package main

import (
	"math"
	"math/rand"
	"runtime/metrics"
	"sort"
	"time"

	"repro/internal/nn"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank p-th percentile of an ascending slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := rank(p, len(sorted)) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// rank is the 1-based nearest rank of the p-th percentile of n samples,
// forgiving the rounding error of p/100 in binary (99.9% of 10000 is 9990).
func rank(p float64, n int) int {
	return int(math.Ceil(p/100*float64(n) - 1e-6))
}

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []float64{99.9, 99, 90, 50}

// tailPercentile returns the highest candidate percentile that has at least
// ten of n samples beyond it, or 0 when n is too small for any.
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if n-rank(p, n) >= 10 {
			return p
		}
	}
	return 0
}

// poissonSchedule returns the send offsets of an open-loop Poisson arrival
// process of the given mean rate (per second) over d: exponential gaps
// drawn from a generator seeded with seed, so one seed gives one schedule.
func poissonSchedule(seed int64, rate float64, d time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var out []time.Duration
	for t := rng.ExpFloat64() / rate; t < d.Seconds(); t += rng.ExpFloat64() / rate {
		out = append(out, time.Duration(t*float64(time.Second)))
	}
	return out
}

// convFlops counts the floating-point operations of one convolution pass:
// 2*n*f*oh*ow*c*k*k. Forward, backward-data and backward-filter perform the
// same multiply-adds (each output element meets each weight once), so the
// count serves all three.
func convFlops(n, c, f, oh, ow, k int) float64 {
	return 2 * float64(n) * float64(f) * float64(oh) * float64(ow) * float64(c) * float64(k*k)
}

// archConvFlops returns the per-sample flops of every convolution of arch,
// indexed like arch.Specs (zero for other layers).
func archConvFlops(arch *nn.Arch) ([]float64, error) {
	shapes, err := arch.Shapes()
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(arch.Specs))
	for i, s := range arch.Specs {
		if s.Kind != nn.KindConv {
			continue
		}
		in := shapes[s.Parents[0]]
		out[i] = convFlops(1, in.C, s.F, shapes[i].H, shapes[i].W, s.Geom.K)
	}
	return out, nil
}

// allocObjects reads the process's cumulative heap-allocation count. Deltas
// over a window count every object allocated in it, whichever goroutine
// allocated it.
func allocObjects() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapPeak samples the bytes of heap objects (live and not yet swept) every
// interval until Stop, and reports the largest value seen.
type heapPeak struct {
	stop chan struct{}
	done chan uint64
}

const heapSampleEvery = 10 * time.Millisecond

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var peak uint64
		read := func() {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
		}
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		for {
			read()
			select {
			case <-h.stop:
				read()
				h.done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak in bytes.
func (h *heapPeak) Stop() uint64 {
	close(h.stop)
	return <-h.done
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
