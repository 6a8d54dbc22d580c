package core

import (
	"sync"
	"testing"

	"repro/internal/dist"
	"repro/internal/kernels"
	"repro/internal/tensor"
)

// Inference-only layers must produce the same forward results as their
// training counterparts (conv) / the sequential inference kernel (batchnorm,
// whose training Forward intentionally uses batch statistics), with no
// gradient buffers and no Backward.
func TestConvInferenceForwardMatchesTraining(t *testing.T) {
	for _, g := range []dist.Grid{{PN: 1, PH: 1, PW: 1}, {PN: 1, PH: 2, PW: 1}, {PN: 2, PH: 1, PW: 2}} {
		inD := dist.Dist{Grid: g, N: 2, C: 3, H: 8, W: 8}
		geom := dist.ConvGeom{K: 3, S: 1, Pad: 1}
		x := tensor.New(2, 3, 8, 8)
		x.FillRandN(21, 1)

		var mu sync.Mutex
		train := make([]DistTensor, g.Size())
		infer := make([]DistTensor, g.Size())
		runDistributed(g, func(ctx *Ctx) {
			lt := NewConv(ctx, inD, 4, geom, true)
			li := NewConvInference(ctx, inD, 4, geom, true)
			if li.DW != nil || li.DBias != nil {
				t.Error("inference conv allocated gradient buffers")
			}
			// Same weights on both layers (and replicated across ranks).
			lt.W.FillRandN(5, 0.5)
			copy(li.W.Data(), lt.W.Data())
			for i := range lt.Bias {
				lt.Bias[i] = 0.01 * float32(i)
			}
			copy(li.Bias, lt.Bias)

			shard := Scatter(x, inD)[ctx.Rank]
			yt := lt.Forward(ctx, shard)
			// Two inference forwards in a row: the second must be identical
			// (the released halo buffers are recycled correctly).
			li.Forward(ctx, shard)
			yi := li.Forward(ctx, shard)
			mu.Lock()
			train[ctx.Rank] = yt
			infer[ctx.Rank] = yi
			mu.Unlock()
		})
		yt := Gather(train)
		yi := Gather(infer)
		if d := yt.MaxAbsDiff(yi); d != 0 {
			t.Errorf("grid %v: inference conv differs from training conv: %g", g, d)
		}
	}
}

func TestBatchNormInferenceUsesRunningStats(t *testing.T) {
	g := dist.Grid{PN: 1, PH: 2, PW: 1}
	d := dist.Dist{Grid: g, N: 2, C: 3, H: 8, W: 8}
	x := tensor.New(2, 3, 8, 8)
	x.FillRandN(31, 1)

	runMean := []float32{0.1, -0.2, 0.3}
	runVar := []float32{1.5, 0.7, 2.0}

	// Sequential reference on the full tensor.
	want := tensor.New(2, 3, 8, 8)
	gamma := []float32{1, 2, 3}
	beta := []float32{-1, 0, 1}
	kernels.BatchNormInference(x, runMean, runVar, gamma, beta, 1e-5, want)

	var mu sync.Mutex
	outs := make([]DistTensor, g.Size())
	runDistributed(g, func(ctx *Ctx) {
		l := NewBatchNormInference(ctx, d)
		if l.DGamma != nil || l.DBeta != nil {
			t.Error("inference batchnorm allocated gradient buffers")
		}
		copy(l.RunMean, runMean)
		copy(l.RunVar, runVar)
		copy(l.Gamma, gamma)
		copy(l.Beta, beta)
		shard := Scatter(x, d)[ctx.Rank]
		y := l.Forward(ctx, shard)
		mu.Lock()
		outs[ctx.Rank] = y
		mu.Unlock()
	})
	got := Gather(outs)
	if diff := got.MaxAbsDiff(want); diff != 0 {
		t.Errorf("distributed inference batchnorm differs from sequential: %g", diff)
	}
}

// Filter-split inference convolutions must be bitwise identical to the
// unsharded serving kernel: every rank holds complete weight rows and
// gathers the complete input channels, so its filter block reproduces the
// same accumulations ConvForwardBatchedPrepacked performs on the full
// weights.
func TestFilterParallelConvInferenceBitwise(t *testing.T) {
	for _, pc := range []int{1, 2, 3} {
		g := dist.Grid{PN: 1, PC: pc, PH: 1, PW: 1}
		inD := dist.Dist{Grid: g, N: 3, C: 5, H: 6, W: 6}
		geom := dist.ConvGeom{K: 3, S: 1, Pad: 1}
		const f = 7
		x := tensor.New(3, 5, 6, 6)
		x.FillRandN(11, 1)
		w := tensor.New(f, 5, 3, 3)
		w.FillRandN(12, 0.5)
		bias := make([]float32, f)
		for i := range bias {
			bias[i] = 0.05 * float32(i)
		}
		want := tensor.New(3, f, 6, 6)
		kernels.ConvForwardBatchedPrepacked(x, kernels.PackConvWeights(w), 3, &kernels.Epilogue{Bias: bias}, want, 1, 1, nil, 0)

		var mu sync.Mutex
		outs := make([]DistTensor, g.Size())
		runDistributed(g, func(ctx *Ctx) {
			l := NewFilterParallelConvInference(ctx, inD, f, geom, true)
			if l.DW != nil || l.DBias != nil {
				t.Error("inference filter-parallel conv allocated gradient buffers")
			}
			// Load this rank's filter rows of the full weights and bias.
			copy(l.W.Data(), w.Data()[l.FRange.Lo*5*3*3:l.FRange.Hi*5*3*3])
			copy(l.Bias, bias[l.FRange.Lo:l.FRange.Hi])
			shard := Scatter(x, inD)[ctx.Rank]
			y := l.Forward(ctx, shard)
			mu.Lock()
			outs[ctx.Rank] = DistTensor{Dist: y.Dist, Rank: y.Rank, Local: y.Local.Clone()}
			mu.Unlock()
		})
		got := Gather(outs)
		for i, v := range got.Data() {
			if v != want.Data()[i] {
				t.Fatalf("pc=%d: output[%d] = %v, want %v (bitwise)", pc, i, v, want.Data()[i])
				break
			}
		}
	}
}

// Channel-split inference convolutions reassociate the channel sum (one
// partial per block), so they match the sequential kernel to float
// tolerance and must be deterministic run-to-run.
func TestChannelParallelConvInferenceDeterministic(t *testing.T) {
	g := dist.Grid{PN: 1, PC: 2, PH: 1, PW: 1}
	inD := dist.Dist{Grid: g, N: 2, C: 6, H: 5, W: 5}
	geom := dist.ConvGeom{K: 3, S: 1, Pad: 1}
	const f = 4
	x := tensor.New(2, 6, 5, 5)
	x.FillRandN(21, 1)
	w := tensor.New(f, 6, 3, 3)
	w.FillRandN(22, 0.5)
	want := tensor.New(2, f, 5, 5)
	kernels.ConvForwardBatchedPrepacked(x, kernels.PackConvWeights(w), 3, nil, want, 1, 1, nil, 0)

	run := func() *tensor.Tensor {
		var mu sync.Mutex
		outs := make([]DistTensor, g.Size())
		runDistributed(g, func(ctx *Ctx) {
			l := NewChannelParallelConvInference(ctx, inD, f, geom, false)
			if l.DW != nil {
				t.Error("inference channel-parallel conv allocated gradient buffers")
			}
			// This rank holds W[:, cBlk].
			l.W.InsertRegion(
				tensor.Region{Off: []int{0, 0, 0, 0}, Size: []int{f, l.CRange.Len(), 3, 3}},
				w.ExtractRegion(tensor.Region{Off: []int{0, l.CRange.Lo, 0, 0}, Size: []int{f, l.CRange.Len(), 3, 3}}))
			shard := Scatter(x, inD)[ctx.Rank]
			y := l.Forward(ctx, shard)
			mu.Lock()
			outs[ctx.Rank] = DistTensor{Dist: y.Dist, Rank: y.Rank, Local: y.Local.Clone()}
			mu.Unlock()
		})
		return Gather(outs)
	}
	a, b := run(), run()
	if d := a.MaxAbsDiff(b); d != 0 {
		t.Errorf("channel-split inference not deterministic run-to-run: %g", d)
	}
	if d := a.RelDiff(want); d > 1e-5 {
		t.Errorf("channel-split inference far from sequential: rel diff %g", d)
	}
}

func TestInferenceBackwardPanics(t *testing.T) {
	g := dist.Grid{PN: 1, PH: 1, PW: 1}
	d := dist.Dist{Grid: g, N: 1, C: 2, H: 4, W: 4}
	runDistributed(g, func(ctx *Ctx) {
		l := NewConvInference(ctx, d, 2, dist.ConvGeom{K: 3, S: 1, Pad: 1}, false)
		x := NewDistTensor(d, ctx.Rank)
		y := l.Forward(ctx, x)
		defer func() {
			if recover() == nil {
				t.Error("Backward on inference conv did not panic")
			}
		}()
		l.Backward(ctx, y)
	})
}
