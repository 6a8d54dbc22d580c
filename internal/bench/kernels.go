package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/kernels"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// BenchRecord is one kernel-benchmark measurement in machine-readable form
// (cmd/bench -json; CI archives the file as BENCH_kernels.json so runs are
// comparable across commits).
type BenchRecord struct {
	Name        string  `json:"name"`
	Shape       string  `json:"shape"`
	Kernel      string  `json:"kernel"` // active microkernel geometry
	GFLOPS      float64 `json:"gflops,omitempty"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// KernelThroughput measures the real compute-kernel substrate on this
// machine: SGEMM and convolution forward, backward-data and backward-filter
// GFLOP/s plus steady-state allocations per call. These are the
// C(n,c,h,w,f) inputs every modeled number ultimately stands on — the paper's premise is that fine-grained
// parallelism pays off only when the local kernels are fast enough that
// communication, not arithmetic, bounds the step.
func KernelThroughput() *Table {
	t, _ := KernelThroughputRecords()
	return t
}

// KernelThroughputRecords is KernelThroughput returning, alongside the
// rendered table, the raw measurements for JSON archiving.
func KernelThroughputRecords() (*Table, []BenchRecord) {
	t := &Table{
		Title:  "Compute-kernel throughput (this machine)",
		Header: []string{"kernel", "shape", "GFLOP/s", "ns/op", "allocs/op"},
		Note: fmt.Sprintf("packed register-blocked GEMM, microkernel %s; prepacked = serving weights packed at load",
			kernels.GemmKernelName()),
	}
	var recs []BenchRecord
	row := func(name, shape string, flopsPerOp float64, fn func()) {
		ns := nsPerOp(fn)
		gf := 0.0
		if flopsPerOp > 0 {
			gf = flopsPerOp / ns
		}
		al := allocsPerOp(fn)
		t.Rows = append(t.Rows, []string{name, shape,
			fmt.Sprintf("%.2f", gf), fmt.Sprintf("%.0f", ns), fmt.Sprintf("%.0f", al)})
		recs = append(recs, BenchRecord{Name: name, Shape: shape, Kernel: kernels.GemmKernelName(),
			GFLOPS: gf, NsPerOp: ns, AllocsPerOp: al})
	}

	for _, d := range []int{256, 512} {
		m, n, k := d, d, d
		a := make([]float32, m*k)
		b := make([]float32, k*n)
		c := make([]float32, m*n)
		for i := range a {
			a[i] = float32(i%13) * 0.25
		}
		for i := range b {
			b[i] = float32(i%7) * 0.5
		}
		shape := fmt.Sprintf("%dx%dx%d", m, n, k)
		flops := 2 * float64(m) * float64(n) * float64(k)
		row("GemmNN", shape, flops, func() { kernels.GemmNN(m, n, k, 1, a, b, 0, c) })
		pb := kernels.PackB(k, n, b, false)
		row("GemmPrepacked", shape, flops, func() { kernels.GemmPrepacked(false, m, n, k, 1, a, pb, 0, c, nil) })
	}

	x := tensor.New(4, 16, 64, 64)
	x.FillPattern(0.4)
	w := tensor.New(32, 16, 3, 3)
	w.FillPattern(0.6)
	y := tensor.New(4, 32, 64, 64)
	convShape := "4x16x64x64 -> 32f 3x3"
	flops := 2.0 * 4 * 32 * 16 * 3 * 3 * 64 * 64
	row("ConvForward/direct", convShape, flops, func() { kernels.ConvForward(x, w, nil, y, 1, 1, kernels.ConvDirect) })
	row("ConvForward/im2col", convShape, flops, func() { kernels.ConvForward(x, w, nil, y, 1, 1, kernels.ConvIm2col) })
	// The training backward pass on the same shape, y standing in for dy.
	dx := tensor.New(4, 16, 64, 64)
	dw := tensor.New(32, 16, 3, 3)
	row("ConvBackwardData", convShape, flops, func() { kernels.ConvBackwardData(y, w, dx, 1, 1) })
	row("ConvBackwardFilter", convShape, flops, func() { kernels.ConvBackwardFilter(x, y, dw, 1, 1, false) })

	// The serving conv path: one micro-batch lowered onto one GEMM against
	// prepacked weights, raw and with the fused BN+ReLU store epilogue (the
	// latter also folds away two elementwise passes, so its GFLOP/s column
	// credits only the conv arithmetic).
	xb := tensor.New(16, 32, 16, 16)
	xb.FillPattern(0.3)
	wb := tensor.New(64, 32, 3, 3)
	wb.FillPattern(0.5)
	yb := tensor.New(16, 64, 16, 16)
	bShape := "16x32x16x16 -> 64f 3x3"
	bFlops := 2.0 * 16 * 64 * 32 * 3 * 3 * 16 * 16
	wp := kernels.PackConvWeights(wb)
	row("ConvForwardBatchedPrepacked", bShape, bFlops, func() {
		kernels.ConvForwardBatchedPrepacked(xb, wp, 3, nil, yb, 1, 1, nil, 0)
	})
	f := wb.Shape()[0]
	ones := make([]float32, f)
	for i := range ones {
		ones[i] = 1
	}
	epi := kernels.NewBNEpilogue(nil, ones, make([]float32, f), make([]float32, f), ones, 1e-5, true)
	row("ConvForwardBatchedPrepacked/fusedBNReLU", bShape, bFlops, func() {
		kernels.ConvForwardBatchedPrepacked(xb, wp, 3, epi, yb, 1, 1, nil, 0)
	})

	// End-to-end serving forward: resnet-tiny at batch 16, the acceptance
	// workload, on the production path (prepacked weights, fused
	// epilogues). Like the fused conv row, GFLOP/s credits only the conv
	// arithmetic.
	const servingBatch = 16
	inf, err := models.ResNet50TinyForServing(32, 8, servingBatch)
	if err != nil {
		panic(err)
	}
	var sFlops float64
	for i, s := range inf.Arch.Specs {
		if s.Kind == nn.KindConv {
			in, out := inf.ShapeOf[s.Parents[0]], inf.ShapeOf[i]
			sFlops += 2 * float64(servingBatch*s.F*in.C*s.Geom.K*s.Geom.K*out.H*out.W)
		}
	}
	xs := tensor.New(servingBatch, 3, 32, 32)
	xs.FillPattern(0.7)
	row("ServingForward/resnet-tiny", "batch 16, 32x32", sFlops, func() { inf.Forward(xs) })
	return t, recs
}

// WriteKernelJSON writes kernel benchmark records as a JSON array.
func WriteKernelJSON(path string, recs []BenchRecord) error {
	data, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// nsPerOp times fn (after one warm-up) and returns nanoseconds per call.
func nsPerOp(fn func()) float64 {
	fn()
	iters := 1
	for {
		start := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		el := time.Since(start)
		if el > 100*time.Millisecond || iters >= 1<<20 {
			return float64(el.Nanoseconds()) / float64(iters)
		}
		iters *= 2
	}
}

// allocsPerOp counts steady-state heap allocations of fn.
func allocsPerOp(fn func()) float64 {
	fn()
	var before, after runtime.MemStats
	const runs = 10
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / runs
}
