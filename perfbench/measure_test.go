package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/nn"
)

func TestPoissonScheduleDeterministic(t *testing.T) {
	const rate, d = 1000.0, 10 * time.Second
	a := poissonSchedule(7, rate, d)
	b := poissonSchedule(7, rate, d)
	if len(a) != len(b) {
		t.Fatalf("same seed gave %d and %d arrivals", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed differs at arrival %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := poissonSchedule(8, rate, d)
	if len(c) == len(a) && c[0] == a[0] && c[len(c)-1] == a[len(a)-1] {
		t.Fatal("different seeds gave the same schedule")
	}
	for i := range a {
		if a[i] < 0 || a[i] >= d || (i > 0 && a[i] < a[i-1]) {
			t.Fatalf("arrival %d at %v is out of order or outside [0, %v)", i, a[i], d)
		}
	}
	// 10000 expected arrivals: the count's standard deviation is 100.
	if got := float64(len(a)) / d.Seconds(); got < 0.95*rate || got > 1.05*rate {
		t.Fatalf("mean rate %.1f/s, want about %.0f/s", got, rate)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90},
		{1000, 99}, {9999, 99}, {10000, 99.9}, {1000000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {99.9, 100}, {0, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

func TestConvFlopsHandComputed(t *testing.T) {
	// x [1,2,5,5], w [3,2,3,3], stride 2, pad 1: the output is 3x3, and
	// each of its 3*3*3 elements takes 2*3*3 multiply-adds:
	// 27 * 18 = 486 MACs = 972 flops.
	if got := convFlops(1, 2, 3, 3, 3, 3); got != 972 {
		t.Fatalf("convFlops = %g, want 972", got)
	}
	b := nn.NewBuilder("flops", nn.Shape{C: 2, H: 5, W: 5})
	c := b.Conv("conv", b.Last(), 3, dist.ConvGeom{K: 3, S: 2, Pad: 1}, false)
	b.ReLU("relu", c)
	arch := b.MustBuild()
	fl, err := archConvFlops(arch)
	if err != nil {
		t.Fatal(err)
	}
	if fl[c] != 972 {
		t.Fatalf("archConvFlops[conv] = %g, want 972", fl[c])
	}
	for i, f := range fl {
		if i != c && f != 0 {
			t.Fatalf("non-conv layer %d has %g flops", i, f)
		}
	}
}

// The metric and workload tables the benchmark prints must be exactly the
// ones BENCHMARK.json declares.
func TestTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		what       string
		json, code []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.code) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", c.what, len(c.json), len(c.code))
		}
		for i := range c.json {
			if c.json[i] != c.code[i] {
				t.Errorf("%s %d: BENCHMARK.json %+v, benchmark %+v", c.what, i, c.json[i], c.code[i])
			}
		}
	}
}
