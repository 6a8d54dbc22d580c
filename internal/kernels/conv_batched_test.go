package kernels

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/tensor"
)

// convForwardRef is the oracle of the serving conv: per sample, the
// explicit im2col column matrix times W on the always-packed GEMM, then
// v + bias. ConvForwardBatchedPrepacked must match it bit for bit.
func convForwardRef(x, w *tensor.Tensor, bias []float32, y *tensor.Tensor, stride, pad int) {
	n, c, h, wd, f, k, oh, ow := convCheck(x, w, y, stride, pad)
	ckk, plane := c*k*k, oh*ow
	col := make([]float32, ckk*plane)
	for ni := 0; ni < n; ni++ {
		im2col(x.Data()[ni*c*h*wd:(ni+1)*c*h*wd], c, h, wd, k, stride, pad, oh, ow, col)
		yn := y.Data()[ni*f*plane : (ni+1)*f*plane]
		GemmNNStable(f, plane, ckk, 1, w.Data(), col, 0, yn)
		for fi := 0; bias != nil && fi < f; fi++ {
			for q := fi * plane; q < (fi+1)*plane; q++ {
				yn[q] += bias[fi]
			}
		}
	}
}

// convPrepacked runs ConvForwardBatchedPrepacked on freshly packed w with
// the bias (if any) as its epilogue.
func convPrepacked(x, w *tensor.Tensor, bias []float32, y *tensor.Tensor, stride, pad int) {
	var epi *Epilogue
	if bias != nil {
		epi = &Epilogue{Bias: bias}
	}
	ConvForwardBatchedPrepacked(x, PackConvWeights(w), w.Dim(2), epi, y, stride, pad, nil, 0)
}

func TestConvForwardBatchedMatchesNaive(t *testing.T) {
	cases := append([]convCase{
		{"1x1s2", 2, 4, 8, 8, 3, 1, 2, 0},
		{"batch8", 8, 3, 16, 16, 16, 3, 1, 1},
	}, convCases...)
	for _, tc := range cases {
		x, w, bias := makeConvTensors(tc, 40)
		want := naiveConvForward(x, w, bias, tc.s, tc.pad)
		got := tensor.New(want.Shape()...)
		convPrepacked(x, w, bias, got, tc.s, tc.pad)
		if d := got.RelDiff(want); d > 1e-5 {
			t.Errorf("%s: batched forward rel diff %g", tc.name, d)
		}
		// nil bias path
		want = naiveConvForward(x, w, nil, tc.s, tc.pad)
		convPrepacked(x, w, nil, got, tc.s, tc.pad)
		if d := got.RelDiff(want); d > 1e-5 {
			t.Errorf("%s: batched forward (no bias) rel diff %g", tc.name, d)
		}
	}
}

// The batched lowering must be row-stable: sample i's output may not depend
// on what other samples share the batch, or dynamic micro-batching would
// give non-deterministic answers per request.
func TestConvForwardBatchedRowStable(t *testing.T) {
	tc := convCase{"stab", 6, 5, 10, 10, 8, 3, 1, 1}
	x, w, bias := makeConvTensors(tc, 50)
	full := tensor.New(tc.n, tc.f, tc.h, tc.w)
	convPrepacked(x, w, bias, full, tc.s, tc.pad)

	chw := tc.c * tc.h * tc.w
	plane := tc.f * tc.h * tc.w
	for _, b := range []int{2, 4} {
		sub := tensor.FromSlice(x.Data()[:b*chw], b, tc.c, tc.h, tc.w)
		suby := tensor.New(b, tc.f, tc.h, tc.w)
		convPrepacked(sub, w, bias, suby, tc.s, tc.pad)
		for i := 0; i < b*plane; i++ {
			if suby.Data()[i] != full.Data()[i] {
				t.Fatalf("batch %d: output differs from batch %d at %d: %v vs %v",
					b, tc.n, i, suby.Data()[i], full.Data()[i])
			}
		}
	}
}

func TestConvForward1x1MatchesIm2col(t *testing.T) {
	for _, tc := range []convCase{
		{"1x1", 3, 12, 9, 9, 7, 1, 1, 0},
		{"1x1s2", 2, 8, 8, 8, 4, 1, 2, 0},
	} {
		x, w, _ := makeConvTensors(tc, 60)
		oh := (tc.h-1)/tc.s + 1
		want := tensor.New(tc.n, tc.f, oh, oh)
		got := tensor.New(tc.n, tc.f, oh, oh)
		ConvForward(x, w, nil, want, tc.s, tc.pad, ConvIm2col)
		convForward1x1(x, w, got, tc.s, tc.pad)
		if d := got.RelDiff(want); d > 1e-5 {
			t.Errorf("%s: 1x1 GEMM lowering rel diff %g", tc.name, d)
		}
	}
}

// TestConvAutoCrossover re-measures the direct-vs-im2col crossover that sets
// im2colMinWork. It is informational (run with -v): the threshold constant
// is chosen from these timings on the dev box, not asserted, because CI
// machines differ.
func TestConvAutoCrossover(t *testing.T) {
	if testing.Short() {
		t.Skip("timing measurement")
	}
	shapes := []convCase{
		{"w2k", 1, 2, 6, 6, 2, 3, 1, 1},    // 2.6k MACs
		{"w9k", 1, 4, 8, 8, 4, 3, 1, 1},    // 9.2k MACs
		{"w18k", 1, 8, 8, 8, 4, 3, 1, 1},   // 18k MACs
		{"w73k", 1, 8, 16, 16, 4, 3, 1, 1}, // 73k MACs
		{"w590k", 1, 16, 16, 16, 16, 3, 1, 1},
	}
	for _, tc := range shapes {
		x, w, _ := makeConvTensors(tc, 70)
		oh := (tc.h+2*tc.pad-tc.k)/tc.s + 1
		y := tensor.New(tc.n, tc.f, oh, oh)
		work := tc.f * oh * oh * tc.c * tc.k * tc.k
		timeIt := func(algo ConvAlgo) time.Duration {
			ConvForward(x, w, nil, y, tc.s, tc.pad, algo) // warm
			iters := 2000
			start := time.Now()
			for i := 0; i < iters; i++ {
				ConvForward(x, w, nil, y, tc.s, tc.pad, algo)
			}
			return time.Since(start) / time.Duration(iters)
		}
		d, i2c := timeIt(ConvDirect), timeIt(ConvIm2col)
		t.Logf("%s: %7d MACs  direct %8v  im2col %8v  ratio %.2f (auto picks %s)",
			tc.name, work, d, i2c, float64(d)/float64(i2c),
			map[bool]string{true: "im2col", false: "direct"}[work >= im2colMinWork])
	}
}

func TestConvForward1x1ZeroAllocs(t *testing.T) {
	x := tensor.New(2, 32, 16, 16)
	x.FillPattern(0.3)
	w := tensor.New(16, 32, 1, 1)
	w.FillPattern(0.4)
	y := tensor.New(2, 16, 16, 16)
	assertZeroAllocs(t, "ConvForward/1x1", func() {
		ConvForward(x, w, nil, y, 1, 0, ConvAuto)
	})
}

func BenchmarkConvForwardBatchedVsPerSample(b *testing.B) {
	for _, n := range []int{1, 4, 16} {
		x := tensor.New(n, 16, 16, 16)
		x.FillPattern(0.5)
		w := tensor.New(32, 16, 3, 3)
		w.FillPattern(0.6)
		y := tensor.New(n, 32, 16, 16)
		flops := float64(2 * n * 32 * 16 * 16 * 16 * 9)
		wp := PackConvWeights(w)
		b.Run(fmt.Sprintf("batched/n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ConvForwardBatchedPrepacked(x, wp, 3, nil, y, 1, 1, nil, 0)
			}
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
		b.Run(fmt.Sprintf("persample/n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ConvForward(x, w, nil, y, 1, 1, ConvAuto)
			}
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}
