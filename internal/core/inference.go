package core

import (
	"repro/internal/dist"
)

// Inference-mode constructors: the same distributed layers with no gradient
// state at all. A forward-only (serving) path must not pay for training —
// no DW/DBias/DGamma/DBeta buffers, no stashed activations, no halo buffers
// held between steps — so each layer offers a constructor that allocates
// none of it. Backward on an inference-only layer panics with a clear
// message; weights and running statistics are still exported, so a trained
// checkpoint restores into an inference net unchanged.

// NewConvInference constructs a forward-only distributed convolution: like
// NewConv but without weight-gradient buffers, and Forward releases its
// halo-extended input immediately instead of stashing it for Backward.
func NewConvInference(ctx *Ctx, inDist dist.Dist, f int, geom dist.ConvGeom, bias bool) *Conv {
	l := newConv(ctx, inDist, f, geom, bias)
	l.inference = true
	return l
}

// NewBatchNormInference constructs a forward-only distributed batch
// normalization layer: Forward normalizes with the running statistics — no
// cross-rank statistics aggregation, no gradient buffers, no stashed input.
// Under a channel-split grid the layer holds gamma/beta and the running
// statistics only for this rank's channel block, exactly like NewBatchNorm.
// The output shard is preallocated and reused across calls (serving
// forwards are zero-alloc warm); it is overwritten by the next Forward.
func NewBatchNormInference(ctx *Ctx, d dist.Dist) *BatchNorm {
	l := newBatchNorm(d, BatchNormGlobal, d.RangeC(ctx.Rank).Len())
	l.inference = true
	l.y = NewDistTensor(d, ctx.Rank)
	return l
}

// NewChannelParallelConvInference is NewChannelParallelConv without any
// gradient state: Backward panics, and the local partial-channel
// convolution runs on kernels.ConvForwardBatchedPrepacked, whose per-column
// accumulation is batch-width independent — the row-stable property dynamic
// micro-batching needs. The completed output still reassociates the channel
// sum across blocks (reduce-scatter in block order), so a channel-split
// serving replica is deterministic run-to-run but not bitwise equal to an
// unsharded one; use the filter split when bitwise parity matters.
func NewChannelParallelConvInference(ctx *Ctx, inDist dist.Dist, f int, geom dist.ConvGeom, bias bool) *ChannelParallelConv {
	l := newChannelParallelConv(ctx, inDist, f, geom, bias)
	l.inference = true
	return l
}

// NewFilterParallelConvInference is NewFilterParallelConv without any
// gradient state: Backward panics, and the gathered-input convolution runs
// on kernels.ConvForwardBatchedPrepacked. Because every rank sees the
// complete input channels and computes complete weight rows, each rank's
// filter block is bitwise identical to the corresponding rows of a
// sequential batched forward — a filter-sharded serving replica answers
// bit-for-bit like an unsharded one.
func NewFilterParallelConvInference(ctx *Ctx, inDist dist.Dist, f int, geom dist.ConvGeom, bias bool) *FilterParallelConv {
	l := newFilterParallelConv(ctx, inDist, f, geom, bias)
	l.inference = true
	return l
}

// InvalidatePacked drops the lazily prepacked inference weights; the next
// Forward repacks from the current W. Call after writing new values into W
// (checkpoint restore, rejoin state transfer) on a layer that may already
// have served.
func (l *ChannelParallelConv) InvalidatePacked() { l.wp = nil }

// InvalidatePacked drops the lazily prepacked inference weights and the
// cached bias epilogue; the next Forward repacks from the current W and
// Bias. Call after writing new values into them on a layer that may already
// have served.
func (l *FilterParallelConv) InvalidatePacked() { l.wp, l.epi = nil, nil }
