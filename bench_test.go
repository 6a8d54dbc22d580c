// Package repro_test hosts the top-level benchmark targets: one testing.B
// benchmark per table and figure of the paper's evaluation (regenerating the
// published rows via the performance model and harness in internal/bench),
// real-execution distributed-layer benchmarks, and ablation benchmarks for
// the design choices called out in DESIGN.md.
//
// Run with: go test -bench=. -benchmem
package repro_test

import (
	"io"
	"os"
	"testing"

	"repro/internal/bench"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/kernels"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/perfmodel"
	"repro/internal/strategy"
	"repro/internal/tensor"
)

// verbose tables go to stdout once under -bench when REPRO_PRINT=1.
func sink() io.Writer {
	if os.Getenv("REPRO_PRINT") == "1" {
		return os.Stdout
	}
	return io.Discard
}

// BenchmarkFig2Microbench regenerates Figure 2 (ResNet-50 conv1 and
// res3b_branch2a layer microbenchmarks).
func BenchmarkFig2Microbench(b *testing.B) {
	m := perfmodel.Lassen()
	for i := 0; i < b.N; i++ {
		for _, t := range bench.Fig2(m) {
			t.Write(sink())
		}
	}
}

// BenchmarkFig3Microbench regenerates Figure 3 (mesh-2K conv1_1 and
// conv6_1).
func BenchmarkFig3Microbench(b *testing.B) {
	m := perfmodel.Lassen()
	for i := 0; i < b.N; i++ {
		for _, t := range bench.Fig3(m) {
			t.Write(sink())
		}
	}
}

// BenchmarkFig4WeakScaling regenerates Figure 4 (1K/2K mesh weak scaling to
// 2048 GPUs).
func BenchmarkFig4WeakScaling(b *testing.B) {
	m := perfmodel.Lassen()
	for i := 0; i < b.N; i++ {
		for _, t := range bench.Fig4(m) {
			t.Write(sink())
		}
	}
}

// BenchmarkTableI regenerates Table I (1K mesh strong scaling).
func BenchmarkTableI(b *testing.B) {
	m := perfmodel.Lassen()
	for i := 0; i < b.N; i++ {
		bench.TableI(m).Write(sink())
	}
}

// BenchmarkTableII regenerates Table II (2K mesh strong scaling).
func BenchmarkTableII(b *testing.B) {
	m := perfmodel.Lassen()
	for i := 0; i < b.N; i++ {
		bench.TableII(m).Write(sink())
	}
}

// BenchmarkTableIII regenerates Table III (ResNet-50 strong scaling).
func BenchmarkTableIII(b *testing.B) {
	m := perfmodel.Lassen()
	for i := 0; i < b.N; i++ {
		bench.TableIII(m).Write(sink())
	}
}

// --- Real-execution benchmarks (the distributed algorithms actually run on
// in-process ranks; scaled-down shapes, CPU time) ---

func benchDistConv(b *testing.B, g dist.Grid, overlap bool) {
	b.Helper()
	old := kernels.SetMaxWorkers(1)
	defer kernels.SetMaxWorkers(old)
	n, c, h, w, f := 2, 8, 64, 64, 16
	geom := dist.ConvGeom{K: 3, S: 1, Pad: 1}
	inD := dist.Dist{Grid: g, N: n, C: c, H: h, W: w}
	x := tensor.New(n, c, h, w)
	x.FillPattern(0.1)
	outD := dist.Dist{Grid: g, N: n, C: f, H: h, W: w}
	dy := tensor.New(n, f, h, w)
	dy.FillPattern(0.2)
	xs := core.Scatter(x, inD)
	dys := core.Scatter(dy, outD)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		world := comm.NewWorld(g.Size())
		world.Run(func(cm *comm.Comm) {
			ctx := core.NewCtx(cm, g)
			l := core.NewConv(ctx, inD, f, geom, false)
			l.Overlap = overlap
			l.DeferAllreduce = true
			l.Forward(ctx, xs[ctx.Rank])
			l.Backward(ctx, dys[ctx.Rank])
		})
	}
}

// BenchmarkDistConvSample1 is the single-rank baseline.
func BenchmarkDistConvSample1(b *testing.B) {
	benchDistConv(b, dist.Grid{PN: 1, PH: 1, PW: 1}, true)
}

// BenchmarkDistConvSpatial4 runs 2x2 spatial parallelism for the same
// global problem.
func BenchmarkDistConvSpatial4(b *testing.B) {
	benchDistConv(b, dist.Grid{PN: 1, PH: 2, PW: 2}, true)
}

// BenchmarkDistConvHybrid4 runs 2-sample x 2-spatial hybrid parallelism.
func BenchmarkDistConvHybrid4(b *testing.B) {
	benchDistConv(b, dist.Grid{PN: 2, PH: 2, PW: 1}, true)
}

// --- Ablation benchmarks (DESIGN.md section 5) ---

// BenchmarkAblationOverlapOn/Off: interior/boundary halo overlap.
func BenchmarkAblationOverlapOn(b *testing.B) {
	benchDistConv(b, dist.Grid{PN: 1, PH: 2, PW: 2}, true)
}

// BenchmarkAblationOverlapOff disables the overlap for comparison.
func BenchmarkAblationOverlapOff(b *testing.B) {
	benchDistConv(b, dist.Grid{PN: 1, PH: 2, PW: 2}, false)
}

// BenchmarkAblationAllreduce compares ring vs recursive doubling on an
// 8-rank world (the MPICH-style switchover the comm package implements).
func BenchmarkAblationAllreduce(b *testing.B) {
	for _, cfg := range []struct {
		name  string
		algo  comm.AllreduceAlgo
		words int
	}{
		{"ring-1M", comm.AllreduceRing, 1 << 20},
		{"rd-1M", comm.AllreduceRecursiveDoubling, 1 << 20},
		{"ring-1K", comm.AllreduceRing, 1 << 10},
		{"rd-1K", comm.AllreduceRecursiveDoubling, 1 << 10},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w := comm.NewWorld(8)
				w.Run(func(c *comm.Comm) {
					buf := make([]float32, cfg.words)
					c.AllreduceAlgo(buf, comm.OpSum, cfg.algo)
				})
			}
		})
	}
}

// BenchmarkAblationConvAlgo compares the direct and im2col+GEMM local
// convolution kernels (the cuDNN algorithm-selection analogue).
func BenchmarkAblationConvAlgo(b *testing.B) {
	x := tensor.New(4, 16, 64, 64)
	x.FillPattern(0.4)
	w := tensor.New(32, 16, 3, 3)
	w.FillPattern(0.6)
	y := tensor.New(4, 32, 64, 64)
	for _, cfg := range []struct {
		name string
		algo kernels.ConvAlgo
	}{{"direct", kernels.ConvDirect}, {"im2col", kernels.ConvIm2col}} {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				kernels.ConvForward(x, w, nil, y, 1, 1, cfg.algo)
			}
		})
	}
}

// BenchmarkGemm measures the blocked SGEMM substrate.
func BenchmarkGemm(b *testing.B) {
	const n = 256
	a := make([]float32, n*n)
	bb := make([]float32, n*n)
	c := make([]float32, n*n)
	for i := range a {
		a[i] = float32(i%7) * 0.1
		bb[i] = float32(i%5) * 0.2
	}
	b.SetBytes(int64(2 * n * n * n * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernels.GemmNN(n, n, n, 1, a, bb, 0, c)
	}
}

// benchGemmGflops runs an n^3 SGEMM and reports GFLOP/s (run with -benchmem
// to see the zero steady-state allocs/op).
func benchGemmGflops(b *testing.B, n int, gemm func(m, nn, k int, alpha float32, a, bb []float32, beta float32, c []float32)) {
	b.Helper()
	a := make([]float32, n*n)
	bb := make([]float32, n*n)
	c := make([]float32, n*n)
	for i := range a {
		a[i] = float32(i%7) * 0.1
		bb[i] = float32(i%5) * 0.2
	}
	gemm(n, n, n, 1, a, bb, 0, c) // warm the workspace pools
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gemm(n, n, n, 1, a, bb, 0, c)
	}
	flops := 2 * float64(n) * float64(n) * float64(n)
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

// BenchmarkGemmNN is the headline kernel benchmark: the packed
// register-blocked microkernel on a 512^3 SGEMM.
func BenchmarkGemmNN(b *testing.B) { benchGemmGflops(b, 512, kernels.GemmNN) }
func BenchmarkGemmNT(b *testing.B) { benchGemmGflops(b, 256, kernels.GemmNT) }
func BenchmarkGemmTN(b *testing.B) { benchGemmGflops(b, 256, kernels.GemmTN) }

// BenchmarkConvForwardGflops measures the im2col+GEMM convolution with
// GFLOP/s and allocs/op (zero when warm: workspace-arena column buffer and
// pack panels).
func BenchmarkConvForwardGflops(b *testing.B) {
	x := tensor.New(4, 16, 64, 64)
	x.FillPattern(0.4)
	w := tensor.New(32, 16, 3, 3)
	w.FillPattern(0.6)
	y := tensor.New(4, 32, 64, 64)
	kernels.ConvForward(x, w, nil, y, 1, 1, kernels.ConvIm2col)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernels.ConvForward(x, w, nil, y, 1, 1, kernels.ConvIm2col)
	}
	flops := 2.0 * 4 * 32 * 16 * 3 * 3 * 64 * 64
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

// BenchmarkConvBackwardGflops measures the GEMM-lowered backward-data and
// backward-filter convolutions on BenchmarkConvForwardGflops's shape, with
// GFLOP/s and allocs/op (zero when warm).
func BenchmarkConvBackwardGflops(b *testing.B) {
	x := tensor.New(4, 16, 64, 64)
	x.FillPattern(0.4)
	w := tensor.New(32, 16, 3, 3)
	w.FillPattern(0.6)
	dy := tensor.New(4, 32, 64, 64)
	dy.FillPattern(0.5)
	dx := tensor.New(4, 16, 64, 64)
	dw := tensor.New(32, 16, 3, 3)
	flops := 2.0 * 4 * 32 * 16 * 3 * 3 * 64 * 64
	for _, bc := range []struct {
		name string
		fn   func()
	}{
		{"data", func() { kernels.ConvBackwardData(dy, w, dx, 1, 1) }},
		{"filter", func() { kernels.ConvBackwardFilter(x, dy, dw, 1, 1, false) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			bc.fn()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bc.fn()
			}
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}

// BenchmarkKernelThroughputTable regenerates the machine-local kernel
// throughput table (GFLOP/s + allocs/op) alongside the paper tables.
func BenchmarkKernelThroughputTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.KernelThroughput().Write(sink())
	}
}

// BenchmarkStrategyOptimizer measures the execution-strategy search on
// ResNet-50 (Section V-C: "we have found this is not an issue in practice").
func BenchmarkStrategyOptimizer(b *testing.B) {
	m := perfmodel.Lassen()
	arch := models.ResNet50(224, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := strategy.Optimize(m, arch, 8, 64); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEndToEndTrainStep measures one real distributed training step of
// the tiny mesh model on 4 in-process ranks.
func BenchmarkEndToEndTrainStep(b *testing.B) {
	old := kernels.SetMaxWorkers(1)
	defer kernels.SetMaxWorkers(old)
	arch := models.MeshTiny(32)
	outShape, _ := arch.Output()
	n := 4
	x := tensor.New(n, 4, 32, 32)
	x.FillPattern(0.3)
	labels := make([]int32, n*outShape.H*outShape.W)
	g := dist.Grid{PN: 2, PH: 2, PW: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		world := comm.NewWorld(g.Size())
		world.Run(func(cm *comm.Comm) {
			ctx := core.NewCtx(cm, g)
			net, err := nn.NewDistNet(ctx, arch, n, 1)
			if err != nil {
				b.Error(err)
				return
			}
			xs := net.ScatterInput(x)
			lbl := nn.ScatterLabels(labels, net.OutputDist())
			logits := net.Forward(xs[ctx.Rank])
			_, dl := nn.DistSegLoss(ctx, logits, lbl[ctx.Rank])
			net.Backward(dl)
			nn.NewSGD(0.01, 0.9, 0).Step(net.Params())
		})
	}
}

// BenchmarkOverlapBackward measures the backward pass of a real
// distributed training step on 4 in-process ranks in the three gradient
// modes: synchronous per-layer allreduce, backward-overlapped bucketed
// IAllreduce, and the communication-free ceiling. The overlapped mode must
// beat sync (cmd/bench -exp overlap sweeps more grids).
func BenchmarkOverlapBackward(b *testing.B) {
	arch := bench.GradStackArch(8, 20, 32)
	g := dist.Grid{PN: 4, PH: 1, PW: 1}
	for _, cfg := range []struct {
		name string
		mode nn.GradMode
	}{{"sync", nn.GradSync}, {"overlap", nn.GradOverlap}, {"comm-free", nn.GradSkip}} {
		b.Run(cfg.name, func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				secs := bench.MeasureBackward(arch, g, 8, 3, cfg.mode)
				b.ReportMetric(secs*1e3, "ms/step")
			}
		})
	}
}

// BenchmarkSurfaceToVolume3D regenerates the 3-D extension table (the
// conclusion's surface-to-volume claim).
func BenchmarkSurfaceToVolume3D(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.SurfaceToVolume3D().Write(sink())
	}
}

// BenchmarkDistConv3D runs the real 3-D distributed convolution on a 2x2x2
// spatial grid (in-process ranks).
func BenchmarkDistConv3D(b *testing.B) {
	old := kernels.SetMaxWorkers(1)
	defer kernels.SetMaxWorkers(old)
	g := dist.Grid3{PN: 1, PD: 2, PH: 2, PW: 2}
	inD := dist.Dist3{Grid3: g, N: 1, C: 4, D: 16, H: 16, W: 16}
	geom := dist.ConvGeom{K: 3, S: 1, Pad: 1}
	x := tensor.New(1, 4, 16, 16, 16)
	x.FillPattern(0.2)
	outD := dist.Dist3{Grid3: g, N: 1, C: 8, D: 16, H: 16, W: 16}
	dy := tensor.New(1, 8, 16, 16, 16)
	dy.FillPattern(0.4)
	xs := core.Scatter3(x, inD)
	dys := core.Scatter3(dy, outD)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		world := comm.NewWorld(g.Size())
		world.Run(func(cm *comm.Comm) {
			ctx := core.NewCtx3(cm, g)
			l := core.NewConv3D(ctx, inD, 8, geom)
			l.DeferAllreduce = true
			l.Forward(ctx, xs[ctx.Rank])
			l.Backward(ctx, dys[ctx.Rank])
		})
	}
}
