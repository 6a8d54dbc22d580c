package kernels

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

// naiveConvForward is an independent brute-force implementation of Eq. 1
// used as the test oracle.
func naiveConvForward(x, w *tensor.Tensor, bias []float32, stride, pad int) *tensor.Tensor {
	xs, ws := x.Shape(), w.Shape()
	n, c, h, wd := xs[0], xs[1], xs[2], xs[3]
	f, k := ws[0], ws[2]
	oh := (h+2*pad-k)/stride + 1
	ow := (wd+2*pad-k)/stride + 1
	y := tensor.New(n, f, oh, ow)
	for ni := 0; ni < n; ni++ {
		for fi := 0; fi < f; fi++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					var acc float64
					for ci := 0; ci < c; ci++ {
						for kh := 0; kh < k; kh++ {
							for kw := 0; kw < k; kw++ {
								iy := oy*stride - pad + kh
								ix := ox*stride - pad + kw
								if iy < 0 || iy >= h || ix < 0 || ix >= wd {
									continue
								}
								acc += float64(x.At4(ni, ci, iy, ix)) * float64(w.At4(fi, ci, kh, kw))
							}
						}
					}
					if bias != nil {
						acc += float64(bias[fi])
					}
					y.Set4(float32(acc), ni, fi, oy, ox)
				}
			}
		}
	}
	return y
}

// naiveConvBackwardData brute-forces Eq. 3.
func naiveConvBackwardData(dy, w *tensor.Tensor, xShape []int, stride, pad int) *tensor.Tensor {
	ds, ws := dy.Shape(), w.Shape()
	n, f, oh, ow := ds[0], ds[1], ds[2], ds[3]
	c, k := ws[1], ws[2]
	dx := tensor.New(xShape...)
	h, wd := xShape[2], xShape[3]
	for ni := 0; ni < n; ni++ {
		for fi := 0; fi < f; fi++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					g := dy.At4(ni, fi, oy, ox)
					for ci := 0; ci < c; ci++ {
						for kh := 0; kh < k; kh++ {
							for kw := 0; kw < k; kw++ {
								iy := oy*stride - pad + kh
								ix := ox*stride - pad + kw
								if iy < 0 || iy >= h || ix < 0 || ix >= wd {
									continue
								}
								dx.Set4(dx.At4(ni, ci, iy, ix)+g*w.At4(fi, ci, kh, kw), ni, ci, iy, ix)
							}
						}
					}
				}
			}
		}
	}
	return dx
}

// naiveConvBackwardFilter brute-forces Eq. 2.
func naiveConvBackwardFilter(x, dy *tensor.Tensor, wShape []int, stride, pad int) *tensor.Tensor {
	xs, ds := x.Shape(), dy.Shape()
	n, c, h, wd := xs[0], xs[1], xs[2], xs[3]
	f, oh, ow := ds[1], ds[2], ds[3]
	k := wShape[2]
	dw := tensor.New(wShape...)
	for fi := 0; fi < f; fi++ {
		for ci := 0; ci < c; ci++ {
			for kh := 0; kh < k; kh++ {
				for kw := 0; kw < k; kw++ {
					var acc float64
					for ni := 0; ni < n; ni++ {
						for oy := 0; oy < oh; oy++ {
							for ox := 0; ox < ow; ox++ {
								iy := oy*stride - pad + kh
								ix := ox*stride - pad + kw
								if iy < 0 || iy >= h || ix < 0 || ix >= wd {
									continue
								}
								acc += float64(dy.At4(ni, fi, oy, ox)) * float64(x.At4(ni, ci, iy, ix))
							}
						}
					}
					dw.Set4(float32(acc), fi, ci, kh, kw)
				}
			}
		}
	}
	return dw
}

// convBackwardDataScatter is the scatter formulation of Eq. 3 (zero dx, then
// accumulate every output element's contributions into the input positions
// its window covered), a cross-check for the gather kernel in float32.
func convBackwardDataScatter(dy, w, dx *tensor.Tensor, stride, pad int) {
	ds, ws, xs := dy.Shape(), w.Shape(), dx.Shape()
	n, f, oh, ow := ds[0], ds[1], ds[2], ds[3]
	c, k := ws[1], ws[2]
	h, wd := xs[2], xs[3]
	dyd, wwd, dxd := dy.Data(), w.Data(), dx.Data()
	dx.Zero()
	for ni := 0; ni < n; ni++ {
		for fi := 0; fi < f; fi++ {
			dyBase := (ni*f + fi) * oh * ow
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					g := dyd[dyBase+oy*ow+ox]
					for ci := 0; ci < c; ci++ {
						dxBase := (ni*c + ci) * h * wd
						wBase := (fi*c + ci) * k * k
						for kh := 0; kh < k; kh++ {
							iy := oy*stride - pad + kh
							if iy < 0 || iy >= h {
								continue
							}
							for kw := 0; kw < k; kw++ {
								ix := ox*stride - pad + kw
								if ix < 0 || ix >= wd {
									continue
								}
								dxd[dxBase+iy*wd+ix] += g * wwd[wBase+kh*k+kw]
							}
						}
					}
				}
			}
		}
	}
}

type convCase struct {
	name                     string
	n, c, h, w, f, k, s, pad int
}

var convCases = []convCase{
	{"3x3same", 2, 3, 8, 8, 4, 3, 1, 1},
	{"1x1", 2, 5, 7, 7, 3, 1, 1, 0},
	{"5x5s2", 1, 2, 12, 12, 3, 5, 2, 2},
	{"7x7s2p3", 1, 3, 16, 16, 4, 7, 2, 3}, // ResNet conv1 geometry
	{"3x3s2", 2, 4, 9, 9, 2, 3, 2, 1},
	{"nonsquare", 1, 2, 10, 6, 2, 3, 1, 1},
	{"nopad", 1, 1, 6, 6, 1, 3, 1, 0},
	{"1x1s2", 2, 4, 9, 9, 3, 1, 2, 0},
	// Column matrices above bwdDataColMax: backward-data runs in row chunks.
	{"3x3chunked", 1, 16, 64, 64, 4, 3, 1, 1},
	{"5x5s2chunked", 1, 16, 96, 96, 4, 5, 2, 2},
}

func makeConvTensors(tc convCase, seed int64) (x, w *tensor.Tensor, bias []float32) {
	x = tensor.New(tc.n, tc.c, tc.h, tc.w)
	w = tensor.New(tc.f, tc.c, tc.k, tc.k)
	x.FillRandN(seed, 1)
	w.FillRandN(seed+1, 0.5)
	bias = make([]float32, tc.f)
	rng := rand.New(rand.NewSource(seed + 2))
	for i := range bias {
		bias[i] = rng.Float32() - 0.5
	}
	return
}

func TestConvForwardDirectMatchesNaive(t *testing.T) {
	for _, tc := range convCases {
		x, w, bias := makeConvTensors(tc, 10)
		want := naiveConvForward(x, w, bias, tc.s, tc.pad)
		got := tensor.New(want.Shape()...)
		ConvForward(x, w, bias, got, tc.s, tc.pad, ConvDirect)
		if d := got.RelDiff(want); d > 1e-5 {
			t.Errorf("%s: direct forward rel diff %g", tc.name, d)
		}
	}
}

func TestConvForwardIm2colMatchesNaive(t *testing.T) {
	for _, tc := range convCases {
		x, w, _ := makeConvTensors(tc, 20)
		want := naiveConvForward(x, w, nil, tc.s, tc.pad)
		got := tensor.New(want.Shape()...)
		ConvForward(x, w, nil, got, tc.s, tc.pad, ConvIm2col)
		if d := got.RelDiff(want); d > 1e-5 {
			t.Errorf("%s: im2col forward rel diff %g", tc.name, d)
		}
	}
}

func TestConvForwardAutoMatchesNaive(t *testing.T) {
	for _, tc := range convCases {
		x, w, bias := makeConvTensors(tc, 30)
		want := naiveConvForward(x, w, bias, tc.s, tc.pad)
		got := tensor.New(want.Shape()...)
		ConvForward(x, w, bias, got, tc.s, tc.pad, ConvAuto)
		if d := got.RelDiff(want); d > 1e-5 {
			t.Errorf("%s: auto forward rel diff %g", tc.name, d)
		}
	}
}

func TestConvBackwardDataMatchesNaive(t *testing.T) {
	for _, tc := range convCases {
		x, w, _ := makeConvTensors(tc, 40)
		y := naiveConvForward(x, w, nil, tc.s, tc.pad)
		dy := tensor.New(y.Shape()...)
		dy.FillRandN(41, 1)
		want := naiveConvBackwardData(dy, w, x.Shape(), tc.s, tc.pad)
		got := tensor.New(x.Shape()...)
		ConvBackwardData(dy, w, got, tc.s, tc.pad)
		if d := got.RelDiff(want); d > 1e-5 {
			t.Errorf("%s: bwd-data rel diff %g", tc.name, d)
		}
	}
}

func TestConvBackwardDataScatterMatchesGather(t *testing.T) {
	for _, tc := range convCases {
		x, w, _ := makeConvTensors(tc, 50)
		oh := (tc.h+2*tc.pad-tc.k)/tc.s + 1
		ow := (tc.w+2*tc.pad-tc.k)/tc.s + 1
		dy := tensor.New(tc.n, tc.f, oh, ow)
		dy.FillRandN(51, 1)
		gather := tensor.New(x.Shape()...)
		scatter := tensor.New(x.Shape()...)
		ConvBackwardData(dy, w, gather, tc.s, tc.pad)
		convBackwardDataScatter(dy, w, scatter, tc.s, tc.pad)
		if d := gather.RelDiff(scatter); d > 1e-5 {
			t.Errorf("%s: gather vs scatter rel diff %g", tc.name, d)
		}
	}
}

func TestConvBackwardFilterMatchesNaive(t *testing.T) {
	for _, tc := range convCases {
		x, w, _ := makeConvTensors(tc, 60)
		y := naiveConvForward(x, w, nil, tc.s, tc.pad)
		dy := tensor.New(y.Shape()...)
		dy.FillRandN(61, 1)
		want := naiveConvBackwardFilter(x, dy, w.Shape(), tc.s, tc.pad)
		got := tensor.New(w.Shape()...)
		ConvBackwardFilter(x, dy, got, tc.s, tc.pad, false)
		if d := got.RelDiff(want); d > 1e-4 {
			t.Errorf("%s: bwd-filter rel diff %g", tc.name, d)
		}
	}
}

func TestConvBackwardFilterAccumulate(t *testing.T) {
	tc := convCases[0]
	x, w, _ := makeConvTensors(tc, 70)
	oh := (tc.h+2*tc.pad-tc.k)/tc.s + 1
	dy := tensor.New(tc.n, tc.f, oh, oh)
	dy.FillRandN(71, 1)
	once := tensor.New(w.Shape()...)
	ConvBackwardFilter(x, dy, once, tc.s, tc.pad, false)
	twice := tensor.New(w.Shape()...)
	ConvBackwardFilter(x, dy, twice, tc.s, tc.pad, false)
	ConvBackwardFilter(x, dy, twice, tc.s, tc.pad, true)
	once.Scale(2)
	if d := once.RelDiff(twice); d > 1e-5 {
		t.Errorf("accumulate: rel diff %g", d)
	}
}

func TestConvBackwardDataRegionTilesEqualFull(t *testing.T) {
	// Computing dx tile by tile (split along H and W) with the region
	// kernel, each tile reading a halo-extended dy region as the distributed
	// layer passes it, must reproduce the full pass bit for bit — the
	// property the distributed algorithm relies on.
	for _, tc := range convCases {
		x, w, _ := makeConvTensors(tc, 80)
		oh := (tc.h+2*tc.pad-tc.k)/tc.s + 1
		ow := (tc.w+2*tc.pad-tc.k)/tc.s + 1
		dy := tensor.New(tc.n, tc.f, oh, ow)
		dy.FillRandN(81, 1)
		want := tensor.New(x.Shape()...)
		ConvBackwardData(dy, w, want, tc.s, tc.pad)

		// required returns the output range touching inputs [lo, hi), widened
		// by one halo position on each side and clipped to [0, out).
		required := func(lo, hi, out int) (int, int) {
			return max(0, ceilDiv(lo+tc.pad-tc.k+1, tc.s)-1), min(out, floorDiv(hi-1+tc.pad, tc.s)+2)
		}
		for _, ph := range [][2]int{{0, tc.h / 2}, {tc.h / 2, tc.h}} {
			for _, pw := range [][2]int{{0, tc.w / 3}, {tc.w / 3, tc.w}} {
				yh0, yh1 := required(ph[0], ph[1], oh)
				yw0, yw1 := required(pw[0], pw[1], ow)
				dyPart := tensor.New(tc.n, tc.f, yh1-yh0, yw1-yw0)
				dyPart.CopyRegion(tensor.Region{Off: []int{0, 0, 0, 0}, Size: dyPart.Shape()},
					dy, tensor.Region{Off: []int{0, 0, yh0, yw0}, Size: dyPart.Shape()})
				dxPart := tensor.New(tc.n, tc.c, ph[1]-ph[0], pw[1]-pw[0])
				ConvBackwardDataRegion(dyPart, w, dxPart, tc.s, tc.pad, ph[0], pw[0], yh0, yw0)
				for ni := 0; ni < tc.n; ni++ {
					for ci := 0; ci < tc.c; ci++ {
						for iy := ph[0]; iy < ph[1]; iy++ {
							for ix := pw[0]; ix < pw[1]; ix++ {
								g, e := dxPart.At4(ni, ci, iy-ph[0], ix-pw[0]), want.At4(ni, ci, iy, ix)
								if math.Float32bits(g) != math.Float32bits(e) {
									t.Fatalf("%s: tile dx(%d,%d,%d,%d) = %v, full pass %v", tc.name, ni, ci, iy, ix, g, e)
								}
							}
						}
					}
				}
			}
		}
	}
}

func TestBiasBackward(t *testing.T) {
	dy := tensor.New(2, 3, 4, 4)
	dy.Fill(1)
	db := make([]float32, 3)
	BiasBackward(dy, db, false)
	for _, v := range db {
		if v != 32 { // 2 samples * 16 positions
			t.Fatalf("db = %v, want 32", v)
		}
	}
	BiasBackward(dy, db, true)
	if db[0] != 64 {
		t.Fatalf("accumulated db = %v, want 64", db[0])
	}
}

func TestConvPanicsOnBadShapes(t *testing.T) {
	x := tensor.New(1, 2, 8, 8)
	w := tensor.New(3, 99, 3, 3) // wrong channel count
	y := tensor.New(1, 3, 8, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched channels did not panic")
		}
	}()
	ConvForward(x, w, nil, y, 1, 1, ConvDirect)
}

func absDiff(a, b float32) float64 {
	d := float64(a - b)
	if d < 0 {
		return -d
	}
	return d
}

// Property: direct and im2col agree on random geometries.
func TestQuickConvAlgosAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + 2*rng.Intn(3)   // 1, 3, 5
		s := 1 + rng.Intn(2)     // 1, 2
		pad := rng.Intn(k/2 + 1) // 0..K/2
		h := k + rng.Intn(10)
		w := k + rng.Intn(10)
		n := 1 + rng.Intn(2)
		c := 1 + rng.Intn(4)
		fo := 1 + rng.Intn(4)
		x := tensor.New(n, c, h, w)
		wt := tensor.New(fo, c, k, k)
		x.FillRandN(seed, 1)
		wt.FillRandN(seed+1, 0.5)
		oh := (h+2*pad-k)/s + 1
		ow := (w+2*pad-k)/s + 1
		if oh <= 0 || ow <= 0 {
			return true
		}
		y1 := tensor.New(n, fo, oh, ow)
		y2 := tensor.New(n, fo, oh, ow)
		ConvForward(x, wt, nil, y1, s, pad, ConvDirect)
		ConvForward(x, wt, nil, y2, s, pad, ConvIm2col)
		return y1.RelDiff(y2) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: <conv(x,w), dy> == <x, convBwdData(dy,w)> — the adjoint identity
// that guarantees backward-data is the true transpose of forward.
func TestQuickConvAdjointIdentity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + 2*rng.Intn(3)
		s := 1 + rng.Intn(2)
		pad := rng.Intn(k/2 + 1)
		h := k + rng.Intn(8)
		w := k + rng.Intn(8)
		c := 1 + rng.Intn(3)
		fo := 1 + rng.Intn(3)
		x := tensor.New(1, c, h, w)
		wt := tensor.New(fo, c, k, k)
		x.FillRandN(seed, 1)
		wt.FillRandN(seed+1, 0.5)
		oh := (h+2*pad-k)/s + 1
		ow := (w+2*pad-k)/s + 1
		if oh <= 0 || ow <= 0 {
			return true
		}
		y := tensor.New(1, fo, oh, ow)
		ConvForward(x, wt, nil, y, s, pad, ConvDirect)
		dy := tensor.New(1, fo, oh, ow)
		dy.FillRandN(seed+2, 1)
		dx := tensor.New(1, c, h, w)
		ConvBackwardData(dy, wt, dx, s, pad)
		// <y, dy> vs <x, dx>
		var lhs, rhs float64
		for i, v := range y.Data() {
			lhs += float64(v) * float64(dy.Data()[i])
		}
		for i, v := range x.Data() {
			rhs += float64(v) * float64(dx.Data()[i])
		}
		scale := 1.0
		if l := lhs; l < 0 {
			scale = -l
		} else {
			scale = l
		}
		if scale < 1 {
			scale = 1
		}
		return abs64(lhs-rhs)/scale < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func abs64(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
