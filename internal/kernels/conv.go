package kernels

import (
	"fmt"
	"sync"

	"repro/internal/tensor"
)

// ConvAlgo selects the convolution implementation, mirroring cuDNN's
// algorithm choices (the paper relies on cuDNN selecting among algorithms;
// we provide direct and im2col+GEMM).
type ConvAlgo int

// Convolution algorithm choices.
const (
	// ConvAuto picks the GEMM-lowered path (no column buffer) for 1x1
	// kernels, im2col+GEMM when the implied GEMM is large enough to amortize
	// the column buffer, and direct otherwise.
	ConvAuto ConvAlgo = iota
	ConvDirect
	ConvIm2col
	// conv1x1 is the internal GEMM lowering ConvAuto selects for 1x1
	// kernels; not exported because it is only valid for K=1, pad=0.
	conv1x1
)

// im2colMinWork is the multiply-accumulate count (F*OH*OW*C*K*K) above which
// im2col+GEMM beats the direct loops. Re-measured after the packed-GEMM
// rewrite (TestConvAutoCrossover prints the table): on the AVX2 dev box
// im2col already breaks even at ~600 MACs (direct 1.2x faster at 144 MACs,
// even at ~600, 1.2-2.4x slower from 2k up, 8x slower at 590k), so the old
// "oh*ow >= 16 && c*k*k >= 16" heuristic — tuned for the pre-packed GEMM —
// was routing substantial convolutions to the scalar loops. Only
// near-degenerate shapes stay direct now.
const im2colMinWork = 512

// convCheck validates the shape relationships of a convolution call and
// returns the unpacked dimensions.
func convCheck(x, w, y *tensor.Tensor, stride, pad int) (n, c, h, wd, f, k, oh, ow int) {
	xs, ws, ys := x.Shape(), w.Shape(), y.Shape()
	if len(xs) != 4 || len(ws) != 4 || len(ys) != 4 {
		panic("kernels: conv tensors must be rank 4")
	}
	n, c, h, wd = xs[0], xs[1], xs[2], xs[3]
	f, k = ws[0], ws[2]
	if ws[1] != c {
		panic(fmt.Sprintf("kernels: weight channels %d != input channels %d", ws[1], c))
	}
	if ws[3] != k {
		panic("kernels: only square kernels supported")
	}
	if stride < 1 || pad < 0 {
		panic(fmt.Sprintf("kernels: invalid stride %d / pad %d", stride, pad))
	}
	oh = (h+2*pad-k)/stride + 1
	ow = (wd+2*pad-k)/stride + 1
	if ys[0] != n || ys[1] != f || ys[2] != oh || ys[3] != ow {
		panic(fmt.Sprintf("kernels: output shape %v, want [%d %d %d %d]", ys, n, f, oh, ow))
	}
	return
}

// ConvForward computes y = conv(x, w) + bias with the given stride and
// symmetric zero padding (Eq. 1 of the paper). bias may be nil.
// x: [N,C,H,W], w: [F,C,K,K], y: [N,F,OH,OW].
func ConvForward(x, w *tensor.Tensor, bias []float32, y *tensor.Tensor, stride, pad int, algo ConvAlgo) {
	n, c, _, _, f, k, oh, ow := convCheck(x, w, y, stride, pad)
	if algo == ConvAuto {
		switch {
		case k == 1 && pad == 0:
			// 1x1 convolutions lower directly onto the packed GEMM with no
			// column buffer (a gather for strided cases); always a win over
			// the scalar direct loops.
			algo = conv1x1
		case f*oh*ow*c*k*k >= im2colMinWork:
			algo = ConvIm2col
		default:
			algo = ConvDirect
		}
	}
	switch algo {
	case ConvDirect:
		convForwardDirect(x, w, y, stride, pad)
	case ConvIm2col:
		convForwardIm2col(x, w, y, stride, pad)
	case conv1x1:
		convForward1x1(x, w, y, stride, pad)
	default:
		panic(fmt.Sprintf("kernels: unknown conv algorithm %d", algo))
	}
	if bias != nil {
		if len(bias) != f {
			panic("kernels: bias length != filters")
		}
		j := biasAddJobPool.Get().(*biasAddJob)
		j.yd, j.bias, j.f, j.plane = y.Data(), bias, f, oh*ow
		parallelChunks(n*f, j)
		j.yd, j.bias = nil, nil
		biasAddJobPool.Put(j)
	}
	_ = c
}

// biasAddJob adds the per-filter bias over (sample, filter) planes; pooled
// so the warm ConvForward path stays allocation-free.
type biasAddJob struct {
	yd       []float32
	bias     []float32
	f, plane int
}

var biasAddJobPool = sync.Pool{New: func() any { return new(biasAddJob) }}

func (j *biasAddJob) RunChunk(lo, hi int) {
	for i := lo; i < hi; i++ {
		b := j.bias[i%j.f]
		row := j.yd[i*j.plane : (i+1)*j.plane]
		for q := range row {
			row[q] += b
		}
	}
}

// directConvJob carries one direct-convolution invocation; pooled so the
// warm direct path (chosen by ConvAuto for tiny shapes, which the serving
// Predict path can hit) stays allocation-free.
type directConvJob struct {
	xd, wwd, yd            []float32
	c, h, wd, f, k, oh, ow int
	stride, pad            int
}

var directConvJobPool = sync.Pool{New: func() any { return new(directConvJob) }}

// convForwardDirect is the straightforward 7-loop convolution, parallel over
// (sample, filter) pairs with row-contiguous inner accumulation.
func convForwardDirect(x, w, y *tensor.Tensor, stride, pad int) {
	n, c, h, wd, f, k, oh, ow := convCheck(x, w, y, stride, pad)
	j := directConvJobPool.Get().(*directConvJob)
	j.xd, j.wwd, j.yd = x.Data(), w.Data(), y.Data()
	j.c, j.h, j.wd, j.f, j.k, j.oh, j.ow = c, h, wd, f, k, oh, ow
	j.stride, j.pad = stride, pad
	parallelChunks(n*f, j)
	j.xd, j.wwd, j.yd = nil, nil, nil
	directConvJobPool.Put(j)
}

func (j *directConvJob) RunChunk(lo, hi int) {
	c, h, wd, f, k, oh, ow := j.c, j.h, j.wd, j.f, j.k, j.oh, j.ow
	stride, pad := j.stride, j.pad
	xd, wwd, yd := j.xd, j.wwd, j.yd
	for nf := lo; nf < hi; nf++ {
		ni, fi := nf/f, nf%f
		yBase := (ni*f + fi) * oh * ow
		for oy := 0; oy < oh; oy++ {
			yRow := yd[yBase+oy*ow : yBase+(oy+1)*ow]
			for i := range yRow {
				yRow[i] = 0
			}
			iy0 := oy*stride - pad
			for ci := 0; ci < c; ci++ {
				xBase := (ni*c + ci) * h * wd
				wBase := ((fi*c + ci) * k) * k
				for kh := 0; kh < k; kh++ {
					iy := iy0 + kh
					if iy < 0 || iy >= h {
						continue
					}
					xRow := xd[xBase+iy*wd : xBase+(iy+1)*wd]
					wRow := wwd[wBase+kh*k : wBase+(kh+1)*k]
					for kw := 0; kw < k; kw++ {
						wv := wRow[kw]
						if wv == 0 {
							continue
						}
						ix0 := -pad + kw
						// Valid ox range so that ix = ox*stride+ix0 is in [0, wd).
						oxLo := 0
						if ix0 < 0 {
							oxLo = (-ix0 + stride - 1) / stride
						}
						oxHi := ow
						if maxOx := (wd - 1 - ix0) / stride; maxOx+1 < oxHi {
							oxHi = maxOx + 1
						}
						ix := oxLo*stride + ix0
						for ox := oxLo; ox < oxHi; ox++ {
							yRow[ox] += wv * xRow[ix]
							ix += stride
						}
					}
				}
			}
		}
	}
}

// convForward1x1 lowers a 1x1 convolution (pad must be 0) directly onto the
// packed GEMM: for stride 1 each sample's input is already the [C, OH*OW]
// B matrix, so y[n] = W[F,C] * x[n] with no column buffer at all; strided
// 1x1 convolutions gather the subsampled plane through the im2col path.
func convForward1x1(x, w, y *tensor.Tensor, stride, pad int) {
	n, c, _, _, f, k, oh, ow := convCheck(x, w, y, stride, pad)
	if k != 1 || pad != 0 {
		panic("kernels: convForward1x1 requires K=1, pad=0")
	}
	if stride != 1 {
		convForwardIm2col(x, w, y, stride, pad)
		return
	}
	plane := oh * ow
	xd, wwd, yd := x.Data(), w.Data(), y.Data()
	for ni := 0; ni < n; ni++ {
		GemmNN(f, plane, c, 1, wwd, xd[ni*c*plane:(ni+1)*c*plane], 0, yd[ni*f*plane:(ni+1)*f*plane])
	}
}

// convForwardIm2col lowers convolution to GEMM: for each sample, unfold the
// input into a [C*K*K, OH*OW] column matrix and multiply by the [F, C*K*K]
// filter matrix. The column matrix lives in the default workspace, so the
// warm path allocates nothing.
func convForwardIm2col(x, w, y *tensor.Tensor, stride, pad int) {
	n, c, h, wd, f, k, oh, ow := convCheck(x, w, y, stride, pad)
	xd, wwd, yd := x.Data(), w.Data(), y.Data()
	ckk := c * k * k
	plane := oh * ow
	colBuf := defaultWS.Get(ckk * plane)
	col := *colBuf
	for ni := 0; ni < n; ni++ {
		im2col(xd[ni*c*h*wd:(ni+1)*c*h*wd], c, h, wd, k, stride, pad, oh, ow, col)
		GemmNN(f, plane, ckk, 1, wwd, col, 0, yd[ni*f*plane:(ni+1)*f*plane])
	}
	defaultWS.Put(colBuf)
}

// im2colJob unfolds channels [lo, hi) of one sample; pooled for the
// allocation-free warm path.
type im2colJob struct {
	x, col                       []float32
	h, w, k, stride, pad, oh, ow int
}

var im2colJobPool = sync.Pool{New: func() any { return new(im2colJob) }}

func (j *im2colJob) RunChunk(clo, chi int) {
	h, w, k, stride, pad, oh, ow := j.h, j.w, j.k, j.stride, j.pad, j.oh, j.ow
	for ci := clo; ci < chi; ci++ {
		for kh := 0; kh < k; kh++ {
			for kw := 0; kw < k; kw++ {
				row := j.col[((ci*k+kh)*k+kw)*oh*ow:]
				for oy := 0; oy < oh; oy++ {
					iy := oy*stride - pad + kh
					dst := row[oy*ow : (oy+1)*ow]
					if iy < 0 || iy >= h {
						for i := range dst {
							dst[i] = 0
						}
						continue
					}
					src := j.x[(ci*h+iy)*w : (ci*h+iy+1)*w]
					for ox := 0; ox < ow; ox++ {
						ix := ox*stride - pad + kw
						if ix < 0 || ix >= w {
							dst[ox] = 0
						} else {
							dst[ox] = src[ix]
						}
					}
				}
			}
		}
	}
}

// im2col unfolds one sample's [C,H,W] input into a [C*K*K, OH*OW] matrix.
func im2col(x []float32, c, h, w, k, stride, pad, oh, ow int, col []float32) {
	j := im2colJobPool.Get().(*im2colJob)
	j.x, j.col = x, col
	j.h, j.w, j.k, j.stride, j.pad, j.oh, j.ow = h, w, k, stride, pad, oh, ow
	parallelChunks(c, j)
	j.x, j.col = nil, nil
	im2colJobPool.Put(j)
}

// bwdDataColMax caps the column buffer of ConvBackwardDataRegion, in floats
// (512 KiB). Larger problems run the column GEMM and the col2im gather over
// chunks of dx rows. The buffer then stays cache-resident between the GEMM
// that writes it and the gather that reads it, and small enough to share
// workspace size classes with the forward im2col and pack panels instead
// of adding a large class of its own to the training step's heap.
const bwdDataColMax = 1 << 17

// ConvBackwardDataRegion computes the error signal dL/dx (Eq. 3) for a
// rectangular region of the global input, given a region of the global
// output gradient. Per sample it lowers onto the packed GEMM: the column
// matrix col[C*K*K, P] = Wᵀ · dy[F, P], then a col2im gather in which each
// dx element sums its (kh, kw) contributions in a fixed order. No
// cross-region reduction is needed afterwards, and because every column
// element is computed on the always-packed path (gemmStable), each dx
// element is bitwise independent of the region bounds.
//
// dx covers global input rows [xLoH, xLoH+dxH) and columns [xLoW, xLoW+dxW);
// dy covers global output rows [yLoH, yLoH+dyH) and columns [yLoW, ...).
// The caller guarantees dy's region contains every output position that
// touches dx's region (dist.ConvGeom.RequiredBwd). For a full sequential
// backward pass use ConvBackwardData.
func ConvBackwardDataRegion(dy, w, dx *tensor.Tensor, stride, pad, xLoH, xLoW, yLoH, yLoW int) {
	ds, ws, xs := dy.Shape(), w.Shape(), dx.Shape()
	n, f, dyH, dyW := ds[0], ds[1], ds[2], ds[3]
	c, k := ws[1], ws[2]
	if ws[0] != f {
		panic("kernels: weight filters != dy channels")
	}
	if xs[0] != n || xs[1] != c {
		panic(fmt.Sprintf("kernels: dx shape %v incompatible with dy %v and w %v", xs, ds, ws))
	}
	dxH, dxW := xs[2], xs[3]
	dyd, wwd, dxd := dy.Data(), w.Data(), dx.Data()
	dyPlane, dxPlane := dyH*dyW, dxH*dxW
	if k == 1 && pad == 0 && stride == 1 && dyH == dxH && dyW == dxW && yLoH == xLoH && yLoW == xLoW {
		// A 1x1 convolution over matching regions: dy[n] is already the
		// [F, P] operand and dx[n] the [C, P] result, so no column buffer.
		for ni := 0; ni < n; ni++ {
			gemmStable(true, false, c, dxPlane, f, 1, wwd, dyd[ni*f*dyPlane:(ni+1)*f*dyPlane],
				0, dxd[ni*c*dxPlane:(ni+1)*c*dxPlane])
		}
		return
	}
	if n*c*dxPlane == 0 {
		return
	}
	// A chunk of r dx rows reads at most ceil((r+k-1)/stride) dy rows; rows
	// is the largest chunk whose column matrix fits in bwdDataColMax.
	ckk := c * k * k
	rows := max(1, bwdDataColMax/max(1, ckk*dyW)*stride-k+1)
	colRows := min(dyH, (rows+k-1+stride-1)/stride)
	colBuf := defaultWS.Get(ckk * colRows * dyW)
	var dycBuf *[]float32
	j := col2imJobPool.Get().(*col2imJob)
	*j = col2imJob{
		col: *colBuf, k: k, stride: stride, pad: pad,
		dxH: dxH, dxW: dxW, dyW: dyW, xLoH: xLoH, xLoW: xLoW, yLoW: yLoW,
	}
	for ni := 0; ni < n; ni++ {
		dyn := dyd[ni*f*dyPlane : (ni+1)*f*dyPlane]
		j.dx = dxd[ni*c*dxPlane : (ni+1)*c*dxPlane]
		for r0 := 0; r0 < dxH; r0 += rows {
			r1 := min(r0+rows, dxH)
			// Local dy rows [o0, o1) hold every output row touching dx rows
			// [r0, r1): global oy from ceil((ih0+pad-k+1)/s) to
			// floor((ih1-1+pad)/s).
			o0 := max(0, ceilDiv(xLoH+r0+pad-k+1, stride)-yLoH)
			o1 := min(dyH, floorDiv(xLoH+r1-1+pad, stride)+1-yLoH)
			j.r0, j.r1, j.oyLo, j.oyN = r0, r1, yLoH+o0, max(0, o1-o0)
			if cols := j.oyN * dyW; cols > 0 {
				src := dyn
				if j.oyN < dyH {
					if dycBuf == nil {
						dycBuf = defaultWS.Get(f * colRows * dyW)
					}
					src = *dycBuf
					for fi := 0; fi < f; fi++ {
						copy(src[fi*cols:(fi+1)*cols], dyn[fi*dyPlane+o0*dyW:fi*dyPlane+o1*dyW])
					}
				}
				gemmStable(true, false, ckk, cols, f, 1, wwd, src, 0, j.col)
			}
			parallelChunks(c, j)
		}
	}
	*j = col2imJob{}
	col2imJobPool.Put(j)
	defaultWS.Put(colBuf)
	defaultWS.Put(dycBuf)
}

// col2imJob gathers dx rows [r0, r1) of one sample, channels [lo, hi), from
// a column matrix covering global output rows [oyLo, oyLo+oyN); pooled so
// the warm backward-data path dispatches with no per-call allocation.
type col2imJob struct {
	col, dx           []float32
	k, stride, pad    int
	dxH, dxW, dyW     int
	xLoH, xLoW, yLoW  int
	r0, r1, oyLo, oyN int
}

var col2imJobPool = sync.Pool{New: func() any { return new(col2imJob) }}

func (j *col2imJob) RunChunk(clo, chi int) {
	k, s, pad := j.k, j.stride, j.pad
	dxW, dyW, xLoW, yLoW := j.dxW, j.dyW, j.xLoW, j.yLoW
	cols := j.oyN * dyW
	for ci := clo; ci < chi; ci++ {
		for r := j.r0; r < j.r1; r++ {
			dxRow := j.dx[(ci*j.dxH+r)*dxW : (ci*j.dxH+r+1)*dxW]
			clear(dxRow)
			t := j.xLoH + r + pad // global input row + pad
			for kh := 0; kh < k; kh++ {
				if (t-kh)%s != 0 {
					continue
				}
				oyl := (t-kh)/s - j.oyLo
				if oyl < 0 || oyl >= j.oyN {
					continue
				}
				for kw := 0; kw < k; kw++ {
					colRow := j.col[((ci*k+kh)*k+kw)*cols+oyl*dyW:][:dyW]
					// Output columns whose tap kw lands inside dx's columns.
					oxA := max(yLoW, ceilDiv(xLoW+pad-kw, s))
					oxB := min(yLoW+dyW, floorDiv(xLoW+dxW-1+pad-kw, s)+1)
					ix := oxA*s - pad + kw - xLoW
					for ox := oxA; ox < oxB; ox++ {
						dxRow[ix] += colRow[ox-yLoW]
						ix += s
					}
				}
			}
		}
	}
}

// floorDiv is floor(a/b) for b > 0 and any sign of a.
func floorDiv(a, b int) int {
	q := a / b
	if a%b != 0 && a < 0 {
		q--
	}
	return q
}

// ceilDiv is ceil(a/b) for b > 0 and any sign of a.
func ceilDiv(a, b int) int { return floorDiv(a+b-1, b) }

// ConvBackwardData computes the full error signal dL/dx (Eq. 3) for a
// sequential (single-device) layer.
func ConvBackwardData(dy, w, dx *tensor.Tensor, stride, pad int) {
	ConvBackwardDataRegion(dy, w, dx, stride, pad, 0, 0, 0, 0)
}

// ConvBackwardFilter computes the local weight-gradient contribution (Eq. 2):
// dw[f,c,a,b] = sum over the samples and output positions present in dy of
// dy * x. Per sample it lowers onto the packed GEMM as
// dw[F, C*K*K] += dy[F, P] · colᵀ, with col the forward im2col of x (a 1x1,
// stride-1, unpadded convolution uses x itself). When accumulate is false dw
// is overwritten, otherwise added to (used when looping over micro-batches).
// x and dy may be local shards: in distributed operation x is the
// halo-extended buffer and pad must be 0; the global sum is completed by an
// allreduce over all processors (Section III-A).
func ConvBackwardFilter(x, dy, dw *tensor.Tensor, stride, pad int, accumulate bool) {
	xs, ds, ws := x.Shape(), dy.Shape(), dw.Shape()
	n, c, h, wd := xs[0], xs[1], xs[2], xs[3]
	f, oh, ow := ds[1], ds[2], ds[3]
	k := ws[2]
	if ds[0] != n || ws[0] != f || ws[1] != c || ws[3] != k {
		panic(fmt.Sprintf("kernels: bwd-filter shapes x=%v dy=%v dw=%v inconsistent", xs, ds, ws))
	}
	if n == 0 {
		if !accumulate {
			dw.Zero()
		}
		return
	}
	xd, dyd, dwd := x.Data(), dy.Data(), dw.Data()
	ckk, plane, xPlane := c*k*k, oh*ow, h*wd
	var beta float32 // overwrite on the first sample unless accumulating
	if accumulate {
		beta = 1
	}
	if k == 1 && pad == 0 && stride == 1 && h == oh && wd == ow {
		for ni := 0; ni < n; ni++ {
			GemmNT(f, c, plane, 1, dyd[ni*f*plane:(ni+1)*f*plane], xd[ni*c*xPlane:(ni+1)*c*xPlane], beta, dwd)
			beta = 1
		}
		return
	}
	colBuf := defaultWS.Get(ckk * plane)
	col := *colBuf
	for ni := 0; ni < n; ni++ {
		im2col(xd[ni*c*xPlane:(ni+1)*c*xPlane], c, h, wd, k, stride, pad, oh, ow, col)
		GemmNT(f, ckk, plane, 1, dyd[ni*f*plane:(ni+1)*f*plane], col, beta, dwd)
		beta = 1
	}
	defaultWS.Put(colBuf)
}

// BiasBackward computes db[f] = sum over samples and positions of dy.
func BiasBackward(dy *tensor.Tensor, db []float32, accumulate bool) {
	ds := dy.Shape()
	n, f, plane := ds[0], ds[1], ds[2]*ds[3]
	if len(db) != f {
		panic("kernels: bias gradient length != filters")
	}
	if !accumulate {
		for i := range db {
			db[i] = 0
		}
	}
	j := biasBwdJobPool.Get().(*biasBwdJob)
	*j = biasBwdJob{dyd: dy.Data(), db: db, n: n, f: f, plane: plane}
	parallelChunks(f, j)
	*j = biasBwdJob{}
	biasBwdJobPool.Put(j)
}

// biasBwdJob is the pooled chunk worker of BiasBackward.
type biasBwdJob struct {
	dyd, db     []float32
	n, f, plane int
}

var biasBwdJobPool = sync.Pool{New: func() any { return new(biasBwdJob) }}

func (jb *biasBwdJob) RunChunk(flo, fhi int) {
	n, f, plane := jb.n, jb.f, jb.plane
	dyd, db := jb.dyd, jb.db
	{
		for fi := flo; fi < fhi; fi++ {
			var acc float32
			for ni := 0; ni < n; ni++ {
				row := dyd[(ni*f+fi)*plane : (ni*f+fi+1)*plane]
				for _, v := range row {
					acc += v
				}
			}
			db[fi] += acc
		}
	}
}
