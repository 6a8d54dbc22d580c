package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"

	"repro/internal/kernels"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the machine-readable record printed as the last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects one workload run's metrics, operation counts and
// correctness verdict, and prints the human-readable lines as it goes.
type report struct {
	res     result
	metrics map[string]float64
}

func newReport() *report {
	return &report{res: result{Correct: true}, metrics: map[string]float64{}}
}

// set records a metric value; its unit comes from the metric tables.
func (r *report) set(name string, v float64) { r.metrics[name] = v }

// ops adds attempted and failed operations.
func (r *report) ops(attempted, failed int) {
	r.res.Attempted += attempted
	r.res.Failed += failed
}

// fail marks the run incorrect and says why.
func (r *report) fail(format string, args ...any) {
	r.res.Correct = false
	fmt.Printf("CHECK FAILED: "+format+"\n", args...)
}

// metricDef names one metric of the benchmark, as BENCHMARK.json lists it.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are the metrics every workload reports with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"heap_peak_mb", "MB", "lower"},
	{"throughput_per_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
}

// servePhases and serveStages name the Server.Stats breakdown reported per
// phase.
var (
	servePhases = []string{"low", "high", "sat", "bin"}
	serveStages = []string{"queue_wait", "batch_wait", "route", "wire", "compute", "gather"}
)

// perLayer are the metrics every workload reports from its traced run.
// Metrics a workload has no layer for read 0.
var perLayer = func() []metricDef {
	d := []metricDef{
		{"kernels.conv_fwd_gflops", "GFLOP/s", "higher"},
		{"kernels.conv_bwd_data_gflops", "GFLOP/s", "higher"},
		{"kernels.conv_bwd_filter_gflops", "GFLOP/s", "higher"},
		{"kernels.infer_conv_ms_per_batch", "ms", "lower"},
		{"kernels.infer_gflops", "GFLOP/s", "higher"},
		{"kernels.infer_microkernel_share", "ratio", "higher"},
		{"core.halo_msgs_per_step", "count", "lower"},
		{"core.halo_mb_per_step", "MB", "lower"},
		{"comm.recv_wait_ms_per_step", "ms", "lower"},
		{"comm.allreduce_calls_per_step", "count", "lower"},
		{"comm.allreduce_mb_per_step", "MB", "lower"},
		{"comm.allreduce_ms_per_step", "ms", "lower"},
		{"comm.exposed_ms_per_step", "ms", "lower"},
		{"nn.step_ms", "ms", "lower"},
		{"nn.forward_ms", "ms", "lower"},
		{"nn.loss_ms", "ms", "lower"},
		{"nn.backward_ms", "ms", "lower"},
		{"nn.sgd_ms", "ms", "lower"},
		{"nn.allocs_per_step", "count", "lower"},
		{"data.batch_ms", "ms", "lower"},
		{"train.scaling_eff", "ratio", "higher"},
		{"perfmodel.step_pred_ratio", "ratio", "higher"},
	}
	for _, ph := range servePhases {
		for _, st := range serveStages {
			d = append(d,
				metricDef{"serve." + ph + "." + st + ".p50_ms", "ms", "lower"},
				metricDef{"serve." + ph + "." + st + ".p99_ms", "ms", "lower"})
		}
		d = append(d,
			metricDef{"serve." + ph + ".avg_batch", "count", "higher"},
			metricDef{"serve." + ph + ".shed", "count", "lower"},
			metricDef{"serve." + ph + ".failed", "count", "lower"},
			metricDef{"serve." + ph + ".allocs_per_req", "count", "lower"})
	}
	return append(d,
		metricDef{"serve.bin.ingest_overhead_us", "us", "lower"},
		metricDef{"sched.replica_batch_share_max", "ratio", "lower"},
		metricDef{"sched.fe_share_max", "ratio", "lower"},
		metricDef{"comm.msgs_per_req", "count", "lower"},
		metricDef{"gen.late_ms_max", "ms", "lower"},
		metricDef{"gen.late_share", "ratio", "lower"},
		metricDef{"obs.overhead_pct", "%", "lower"},
	)
}()

// workload is one benchmark workload: run measures it for the given number
// of seconds, traced or not, and fills in the report.
type workload struct {
	name string
	run  func(seed int64, seconds float64, trace bool, r *report) error
}

var workloads = []workload{
	{"train-mesh-spatial", func(seed int64, s float64, tr bool, r *report) error {
		return runTrain(meshTask(), seed, s, tr, r)
	}},
	{"serve-resnet-open", runServeOpen},
	{"serve-small-binary", runServeBinary},
}

// finish turns the collected metrics into the result record: every metric
// of the table, zero where the workload has none.
func (r *report) finish(defs []metricDef) result {
	r.res.Metrics = map[string]metric{}
	for _, d := range defs {
		r.res.Metrics[d.Name] = metric{Value: r.metrics[d.Name], Unit: d.Unit}
	}
	return r.res
}

func printTable(defs []metricDef, res result) {
	for _, d := range defs {
		fmt.Printf("  %-40s %14.4f %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
}

// fingerprint identifies the machine and build a result came from.
func fingerprint() string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if len(rev) >= 12 {
			commit = rev[:12] + dirty
		}
	}
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d gemm=%s go=%s commit=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), kernels.GemmKernelName(), runtime.Version(), commit)
}

// runOne measures one workload and returns its result record.
func runOne(w workload, seed int64, seconds float64, trace bool) (result, error) {
	mode := "untraced"
	defs := endToEnd
	if trace {
		mode = "traced"
		defs = perLayer
	}
	fmt.Printf("== %s (%s) seed=%d seconds=%g\n", w.name, mode, seed, seconds)
	fmt.Printf("fingerprint: %s\n", fingerprint())
	r := newReport()
	if err := w.run(seed, seconds, trace, r); err != nil {
		return result{}, fmt.Errorf("%s: %w", w.name, err)
	}
	res := r.finish(defs)
	fmt.Printf("%s metrics:\n", mode)
	printTable(defs, res)
	fmt.Printf("operations: attempted=%d failed=%d correct=%v\n", res.Attempted, res.Failed, res.Correct)
	return res, nil
}

// runAll measures every workload untraced, then every workload traced, and
// merges the records under "<workload>/<metric>" names.
func runAll(seed int64, seconds float64) (result, error) {
	all := result{Correct: true, Metrics: map[string]metric{}}
	for _, trace := range []bool{false, true} {
		for _, w := range workloads {
			res, err := runOne(w, seed, seconds, trace)
			if err != nil {
				return result{}, err
			}
			all.Correct = all.Correct && res.Correct
			all.Attempted += res.Attempted
			all.Failed += res.Failed
			for k, m := range res.Metrics {
				all.Metrics[w.name+"/"+k] = m
			}
		}
	}
	return all, nil
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

func main() {
	name := flag.String("workload", "", "workload to run: one of "+workloadNames()+", or all")
	seed := flag.Int64("seed", 1, "workload seed: inputs, weights and arrival schedules derive from it")
	seconds := flag.Float64("seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 reports the traced per-layer metrics, 0 the untraced end-to-end ones")
	flag.Parse()

	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	var res result
	var err error
	if *name == "all" {
		res, err = runAll(*seed, *seconds)
	} else {
		found := false
		for _, w := range workloads {
			if w.name == *name {
				res, err = runOne(w, *seed, *seconds, *trace == 1)
				found = true
			}
		}
		if !found {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s, or all)\n", *name, workloadNames())
			os.Exit(2)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
