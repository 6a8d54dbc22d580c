package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/tensor"
)

const (
	// binSetups is how many servers serve-small-binary starts per untraced
	// run; setup_s is their median.
	binSetups = 9
	numInputs = 64 // distinct seeded inputs per run, each with a reference answer
	// satCallers is the closed-loop caller count of the saturation phase:
	// one per admission-lane slot (PendingRequests defaults to 4*MaxBatch),
	// so the lane can never overflow and shed.
	satCallers = 64
	// openWorkers bounds the goroutines issuing open-loop requests; a
	// request due while all are busy waits, and that wait counts in its
	// latency.
	openWorkers = 128
	// latCap bounds the latencies kept per phase; later requests are still
	// counted and checked.
	latCap = 1 << 19
	// lateAfter is how late the open-loop generator may send a request
	// before it counts in gen.late_share.
	lateAfter = time.Millisecond
	// harvestEvery is how often a traced phase drains the flight recorder.
	harvestEvery = 250 * time.Millisecond
	// warmRequests run through each new server before its timed phase.
	warmRequests = 32
)

// Open-loop arrival rates of serve-resnet-open's low and high phases.
const (
	lowRate  = 50.0
	highRate = 600.0
)

// answerSet is the seeded input set of a serving run with the batch-1
// reference answer of each input.
type answerSet struct {
	inputs, refs [][]float32
}

// newAnswerSet draws numInputs inputs from seed and computes each one's
// reference with a batch-1 InferNet.Forward on a copy of model.
func newAnswerSet(model *nn.InferNet, seed int64) (answerSet, error) {
	ref, err := model.Clone()
	if err != nil {
		return answerSet{}, err
	}
	sh := ref.InShape()
	inLen := sh.C * sh.H * sh.W
	rng := rand.New(rand.NewSource(seed))
	var a answerSet
	for range numInputs {
		in := make([]float32, inLen)
		for j := range in {
			in[j] = rng.Float32()*2 - 1
		}
		y := ref.Forward(tensor.FromSlice(in, 1, sh.C, sh.H, sh.W))
		out := append([]float32(nil), y.Data()...)
		for _, v := range out {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				return answerSet{}, errors.New("reference answer is not finite")
			}
		}
		a.inputs = append(a.inputs, in)
		a.refs = append(a.refs, out)
	}
	return a, nil
}

// outcome classifies one request.
type outcome uint8

const (
	outOK outcome = iota
	outShed
	outFailed
)

// check classifies a Predict result: shed for admission refusals, failed
// for any other error or an answer that differs bitwise from the reference.
func check(err error, out, ref []float32) outcome {
	switch {
	case errors.Is(err, serve.ErrOverloaded), errors.Is(err, serve.ErrExpired), errors.Is(err, serve.ErrQuota):
		return outShed
	case err != nil:
		return outFailed
	}
	for i := range out {
		if math.Float32bits(out[i]) != math.Float32bits(ref[i]) {
			return outFailed
		}
	}
	return outOK
}

// phaseResult is one serving phase's request accounting and latencies.
type phaseResult struct {
	name                   string
	sent, ok, shed, failed int
	lat                    []float64 // ms, served requests, in completion order per caller
	elapsed                time.Duration
	lateMax                time.Duration
	late                   int
	allocs                 uint64
	stats                  serve.Stats
	spans                  *inferSpans
}

func (p *phaseResult) rps() float64 { return float64(p.ok) / p.elapsed.Seconds() }

func (p *phaseResult) print() {
	fmt.Printf("phase %-4s sent=%d succeeded=%d shed=%d failed=%d in %.2fs\n",
		p.name, p.sent, p.ok, p.shed, p.failed, p.elapsed.Seconds())
}

// latencyLines prints the phase's p50 and tail latency under the benchmark
// names, with the sample count.
func (p *phaseResult) latencyLines(prefix, unit string, scale float64) {
	s := sortedCopy(p.lat)
	fmt.Printf("%s.p50_%s %.4f %s (n=%d)\n", prefix, unit, percentile(s, 50)*scale, unit, len(s))
	if tp := tailPercentile(len(s)); tp > 0 {
		fmt.Printf("%s.p%g_%s %.4f %s (n=%d)\n", prefix, tp, unit, percentile(s, tp)*scale, unit, len(s))
	}
}

// tally folds per-request outcomes into the phase counts.
func (p *phaseResult) tally(o outcome) {
	p.sent++
	switch o {
	case outOK:
		p.ok++
	case outShed:
		p.shed++
	default:
		p.failed++
	}
}

// meter brackets the load of one phase: it collects garbage, then samples
// the heap, counts allocations and (when spans is set) harvests the flight
// recorder from begin to end. A nil meter measures nothing.
type meter struct {
	spans  *inferSpans
	hp     *heapPeak
	h      *harvester
	a0     uint64
	allocs uint64
	peak   uint64
}

func (m *meter) begin() {
	if m == nil {
		return
	}
	runtime.GC()
	m.hp = startHeapPeak()
	if m.spans != nil {
		m.h = startHarvest(m.spans)
	}
	m.a0 = allocObjects()
}

func (m *meter) end() {
	if m == nil {
		return
	}
	all := allocObjects() - m.a0
	var own uint64
	if m.h != nil {
		own = m.h.Stop()
	}
	m.allocs = all - min(own, all)
	m.peak = m.hp.Stop()
}

// runOpen drives srv with an open-loop arrival schedule: every request is
// sent at its due time whether or not earlier ones have returned, and its
// latency counts from that due time.
func runOpen(name string, srv *serve.Server, a answerSet, sched []time.Duration, m *meter) *phaseResult {
	n := len(sched)
	lat := make([]int64, n)
	outs := make([]outcome, n)
	late := make([]time.Duration, n)
	work := make(chan int, n) // sized to the number of sends
	var start time.Time
	var wg sync.WaitGroup
	for range openWorkers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]float32, srv.OutputLen())
			for j := range work {
				k := j % len(a.inputs)
				err := srv.Predict(a.inputs[k], out)
				lat[j] = int64(time.Since(start.Add(sched[j])))
				outs[j] = check(err, out, a.refs[k])
			}
		}()
	}
	m.begin()
	start = time.Now() // published to the workers by the channel sends
	for j, off := range sched {
		due := start.Add(off)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late[j] = time.Since(due)
		work <- j
	}
	close(work)
	wg.Wait()
	p := &phaseResult{name: name, elapsed: time.Since(start)}
	m.end()
	for j := range sched {
		p.tally(outs[j])
		if outs[j] == outOK && len(p.lat) < latCap {
			p.lat = append(p.lat, float64(lat[j])/1e6)
		}
		p.lateMax = max(p.lateMax, late[j])
		if late[j] > lateAfter {
			p.late++
		}
	}
	return p
}

// runClosed drives a server from callers that each send their next request
// as soon as the previous one returns, for d.
func runClosed(name string, callers int, predict func(caller int) func(in, out []float32) error, outLen int, a answerSet, d time.Duration, m *meter) *phaseResult {
	type callerLog struct {
		lat  []float32 // ms
		outs [3]int
	}
	logs := make([]callerLog, callers)
	for c := range logs {
		logs[c].lat = make([]float32, 0, latCap/callers)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	begin := make(chan struct{})
	for c := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			step := predict(c)
			out := make([]float32, outLen)
			lg := &logs[c]
			<-begin
			for i := c; !stop.Load(); i += callers {
				k := i % len(a.inputs)
				t0 := time.Now()
				err := step(a.inputs[k], out)
				el := time.Since(t0)
				o := check(err, out, a.refs[k])
				lg.outs[o]++
				if o == outOK && len(lg.lat) < cap(lg.lat) {
					lg.lat = append(lg.lat, float32(float64(el)/1e6))
				}
			}
		}()
	}
	m.begin()
	start := time.Now()
	close(begin)
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
	p := &phaseResult{name: name, elapsed: time.Since(start)}
	m.end()
	for _, lg := range logs {
		for o, n := range lg.outs {
			for range n {
				p.tally(outcome(o))
			}
		}
		for _, v := range lg.lat {
			p.lat = append(p.lat, float64(v))
		}
	}
	return p
}

// harvester drains the flight recorder every harvestEvery into an
// inferSpans while a traced phase runs, and counts its own allocations so
// they can be left out of the phase's.
type harvester struct {
	spans  *inferSpans
	allocs uint64
	stop   chan struct{}
	done   chan struct{}
}

func startHarvest(spans *inferSpans) *harvester {
	h := &harvester{spans: spans, stop: make(chan struct{}), done: make(chan struct{})}
	obs.Enable()
	go func() {
		defer close(h.done)
		tick := time.NewTicker(harvestEvery)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				h.drain(false)
				return
			case <-tick.C:
				h.drain(true)
			}
		}
	}()
	return h
}

func (h *harvester) drain(again bool) {
	obs.Disable()
	a0 := allocObjects()
	h.spans.add(obs.Snapshot())
	h.allocs += allocObjects() - a0
	if again {
		obs.Enable()
	}
}

// Stop drains the last spans and returns the harvester's own allocations.
func (h *harvester) Stop() uint64 {
	close(h.stop)
	<-h.done
	return h.allocs
}

// inferSpans folds flight-recorder spans of served batches: conv layer
// time and flops inside replica forward passes, and message counts.
type inferSpans struct {
	flopsPerSample []float64 // per arch layer index
	batches        int
	convTime       time.Duration
	gemmTime       time.Duration
	flops          float64
	sends          int
}

func (s *inferSpans) add(evs []obs.Event) {
	// A replica's compute span starts before the layer spans of its
	// forward pass and carries the batch size; events arrive sorted by
	// start, so each layer span takes the batch of the compute span it
	// falls in on the same track. Layer spans outside any recorded compute
	// span are dropped.
	type cur struct {
		n   int64
		end int64
	}
	byTrack := map[int]cur{}
	for _, ev := range evs {
		switch ev.Stage {
		case obs.StageCompute:
			s.batches++
			byTrack[ev.Track] = cur{n: ev.Arg, end: ev.Start + ev.Dur}
		case obs.StageLayerConv, obs.StageGemmKernel:
			c, ok := byTrack[ev.Track]
			if !ok || ev.Start > c.end {
				continue
			}
			if ev.Stage == obs.StageGemmKernel {
				s.gemmTime += time.Duration(ev.Dur)
				continue
			}
			s.convTime += time.Duration(ev.Dur)
			if int(ev.Arg) < len(s.flopsPerSample) {
				s.flops += s.flopsPerSample[ev.Arg] * float64(c.n)
			}
		case obs.StageSend:
			s.sends++
		}
	}
}

// setServeLayers reports a traced phase's Server.Stats breakdown.
func setServeLayers(r *report, phase string, p *phaseResult) {
	for _, st := range p.stats.Stages {
		r.set("serve."+phase+"."+st.Name+".p50_ms", ms(st.P50))
		r.set("serve."+phase+"."+st.Name+".p99_ms", ms(st.P99))
	}
	r.set("serve."+phase+".avg_batch", p.stats.AvgBatch)
	r.set("serve."+phase+".shed", float64(p.shed))
	r.set("serve."+phase+".failed", float64(p.failed))
	if p.ok > 0 {
		r.set("serve."+phase+".allocs_per_req", float64(p.allocs)/float64(p.ok))
	}
}

// setInferLayers reports the inference-kernel metrics of traced spans.
func setInferLayers(r *report, s *inferSpans) {
	if s.batches == 0 || s.convTime == 0 {
		return
	}
	r.set("kernels.infer_conv_ms_per_batch", ms(s.convTime)/float64(s.batches))
	r.set("kernels.infer_gflops", s.flops/s.convTime.Seconds()/1e9)
	r.set("kernels.infer_microkernel_share", s.gemmTime.Seconds()/s.convTime.Seconds())
}

func maxShare(xs []uint64) float64 {
	var sum, top uint64
	for _, x := range xs {
		sum += x
		top = max(top, x)
	}
	if sum == 0 {
		return 0
	}
	return float64(top) / float64(sum)
}

func replicaShare(st serve.Stats) float64 {
	var b []uint64
	for _, rep := range st.Replicas {
		b = append(b, rep.Batches)
	}
	return maxShare(b)
}

func frontEndShare(st serve.Stats) float64 {
	var b []uint64
	for _, fe := range st.FrontEnds {
		b = append(b, fe.Requests)
	}
	return maxShare(b)
}

// warm sends warmRequests through srv, MaxBatch-wide, so pools and caches
// fill before timing.
func warm(srv *serve.Server, a answerSet, width int) {
	var wg sync.WaitGroup
	for c := range width {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]float32, srv.OutputLen())
			for i := c; i < warmRequests; i += width {
				_ = srv.Predict(a.inputs[i%len(a.inputs)], out) // answers are checked in the timed phases
			}
		}()
	}
	wg.Wait()
}

// resnetServer is serve-resnet-open's model and server configuration.
func resnetServer() (*nn.InferNet, *serve.Server, error) {
	model, err := models.ResNet50TinyForServing(16, 10, 16)
	if err != nil {
		return nil, nil, err
	}
	srv, err := serve.New(model, serve.Config{Groups: []int{1, 1}, MaxBatch: 16})
	return model, srv, err
}

func runServeOpen(seed int64, seconds float64, trace bool, r *report) error {
	budget := time.Duration(seconds * float64(time.Second))
	part := func(pct int) time.Duration { return budget * time.Duration(pct) / 100 }
	var a answerSet
	var setups []float64
	var peak uint64
	var flopsPerSample []float64
	// newServer starts one phase's server and warms it.
	newServer := func() (*serve.Server, error) {
		t0 := time.Now()
		model, srv, err := resnetServer()
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if a.inputs == nil {
			if a, err = newAnswerSet(model, seed); err != nil {
				srv.Close()
				return nil, err
			}
			if flopsPerSample, err = archConvFlops(model.Arch); err != nil {
				srv.Close()
				return nil, err
			}
		}
		warm(srv, a, 16)
		return srv, nil
	}
	newSpans := func() *inferSpans {
		if !trace {
			return nil
		}
		return &inferSpans{flopsPerSample: flopsPerSample}
	}
	if trace {
		obs.Configure(3, 1<<16)
	} else {
		// Two set-ups beyond the three phase servers: setup_s is a median
		// of five.
		for range 2 {
			t0 := time.Now()
			_, srv, err := resnetServer()
			if err != nil {
				return err
			}
			setups = append(setups, time.Since(t0).Seconds())
			srv.Close()
		}
	}
	openPhase := func(name string, rate float64, schedSeed int64, d time.Duration) (*phaseResult, error) {
		srv, err := newServer()
		if err != nil {
			return nil, err
		}
		defer srv.Close()
		sched := poissonSchedule(schedSeed, rate, d)
		m := &meter{spans: newSpans()}
		p := runOpen(name, srv, a, sched, m)
		p.stats, p.allocs, p.spans = srv.Stats(), m.allocs, m.spans
		peak = max(peak, m.peak)
		return p, nil
	}
	lowShare, highShare, satShare := 35, 25, 40
	if trace {
		lowShare, highShare, satShare = 25, 25, 25
	}
	low, err := openPhase("low", lowRate, seed*3+1, part(lowShare))
	if err != nil {
		return err
	}
	high, err := openPhase("high", highRate, seed*3+2, part(highShare))
	if err != nil {
		return err
	}
	srv, err := newServer()
	if err != nil {
		return err
	}
	defer srv.Close()
	closed := func(name string, spans *inferSpans, d time.Duration) *phaseResult {
		m := &meter{spans: spans}
		p := runClosed(name, satCallers, func(int) func(in, out []float32) error { return srv.Predict }, srv.OutputLen(), a, d, m)
		p.stats, p.allocs, p.spans = srv.Stats(), m.allocs, m.spans
		peak = max(peak, m.peak)
		return p
	}
	sat := closed("sat", newSpans(), part(satShare))
	phases := []*phaseResult{low, high, sat}
	var untraced *phaseResult
	if trace {
		untraced = closed("sat-untraced", nil, budget-part(lowShare+highShare+satShare))
		phases = append(phases, untraced)
	}
	for _, p := range phases {
		p.print()
		r.ops(p.sent, p.shed+p.failed)
		if p.failed > 0 {
			r.fail("phase %s: %d answers failed or differed from the batch-1 reference", p.name, p.failed)
		}
	}
	fmt.Printf("check: every served answer equals its batch-1 InferNet.Forward reference bitwise\n")
	lateMax := ms(max(low.lateMax, high.lateMax))
	lateShare := float64(low.late+high.late) / float64(low.sent+high.sent)
	fmt.Printf("gen.late_ms_max %.4f ms, gen.late_share %.4f\n", lateMax, lateShare)
	if !trace {
		low.latencyLines("serve.low", "ms", 1)
		high.latencyLines("serve.high", "ms", 1)
		fmt.Printf("serve.sat.rps %.4f req/s (%d callers)\n", sat.rps(), satCallers)
		r.set("setup_s", median(setups))
		r.set("heap_peak_mb", float64(peak)/1e6)
		r.set("throughput_per_s", sat.rps())
		r.set("latency_p50_ms", median(low.lat))
		return nil
	}
	for _, p := range []*phaseResult{low, high, sat} {
		setServeLayers(r, p.name, p)
	}
	all := &inferSpans{}
	for _, p := range []*phaseResult{low, high, sat} {
		all.batches += p.spans.batches
		all.convTime += p.spans.convTime
		all.gemmTime += p.spans.gemmTime
		all.flops += p.spans.flops
	}
	setInferLayers(r, all)
	r.set("sched.replica_batch_share_max", replicaShare(sat.stats))
	r.set("sched.fe_share_max", frontEndShare(sat.stats))
	r.set("gen.late_ms_max", lateMax)
	r.set("gen.late_share", lateShare)
	r.set("obs.overhead_pct", (untraced.rps()/sat.rps()-1)*100)
	return nil
}

// binServer is serve-small-binary's server with its binary listener and
// one client connection per front-end.
type binServer struct {
	srv     *serve.Server
	clients []*serve.BinaryClient
	served  chan error
}

func startBinServer() (*binServer, *nn.InferNet, error) {
	model, err := models.SmallCNNForServing(8, 3, 4, 16)
	if err != nil {
		return nil, nil, err
	}
	srv, err := serve.New(model, serve.Config{FrontEnds: 2, Groups: []int{1, 1}, MaxBatch: 8, BatchDeadline: serve.Greedy})
	if err != nil {
		return nil, nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, nil, err
	}
	b := &binServer{srv: srv, served: make(chan error, 1)}
	go func() { b.served <- srv.ServeBinary(ln) }()
	// Connections pin to front-ends in accept order, so dialing one at a
	// time gives one connection per front-end.
	for range 2 {
		c, err := serve.DialBinary(ln.Addr().String(), srv.InputLen(), srv.OutputLen())
		if err != nil {
			b.close()
			return nil, nil, err
		}
		b.clients = append(b.clients, c)
	}
	return b, model, nil
}

func (b *binServer) close() {
	for _, c := range b.clients {
		c.Close()
	}
	b.srv.Close()
	<-b.served
}

func runServeBinary(seed int64, seconds float64, trace bool, r *report) error {
	budget := time.Duration(seconds * float64(time.Second))
	var setups []float64
	var b *binServer
	var a answerSet
	var flopsPerSample []float64
	n := binSetups
	if trace {
		n = 1
		obs.Configure(4, 1<<16)
	}
	for i := 0; i < n; i++ {
		t0 := time.Now()
		bs, model, err := startBinServer()
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i == 0 {
			if a, err = newAnswerSet(model, seed); err != nil {
				bs.close()
				return err
			}
			if flopsPerSample, err = archConvFlops(model.Arch); err != nil {
				bs.close()
				return err
			}
		}
		if i < n-1 {
			bs.close()
		} else {
			b = bs
		}
	}
	defer b.close()
	predict := func(c int) func(in, out []float32) error { return b.clients[c].Predict }
	outLen := b.srv.OutputLen()
	runClosed("warm", 2, predict, outLen, a, 200*time.Millisecond, nil)

	window := budget
	if trace {
		window = budget * 60 / 100
	}
	var spans *inferSpans
	if trace {
		spans = &inferSpans{flopsPerSample: flopsPerSample}
	}
	m := &meter{spans: spans}
	p := runClosed("bin", 2, predict, outLen, a, window, m)
	p.stats, p.allocs = b.srv.Stats(), m.allocs
	phases := []*phaseResult{p}
	var untraced *phaseResult
	if trace {
		untraced = runClosed("bin-untraced", 2, predict, outLen, a, budget-window, &meter{})
		phases = append(phases, untraced)
	}
	for _, ph := range phases {
		ph.print()
		r.ops(ph.sent, ph.shed+ph.failed)
		if ph.failed > 0 {
			r.fail("phase %s: %d answers failed or differed from the batch-1 reference", ph.name, ph.failed)
		}
	}
	fmt.Printf("check: every served answer equals its batch-1 InferNet.Forward reference bitwise\n")
	if !trace {
		fmt.Printf("serve.bin.rps %.4f req/s\n", p.rps())
		p.latencyLines("serve.bin", "us", 1e3)
		r.set("setup_s", median(setups))
		r.set("heap_peak_mb", float64(m.peak)/1e6)
		r.set("throughput_per_s", p.rps())
		r.set("latency_p50_ms", median(p.lat))
		return nil
	}
	setServeLayers(r, "bin", p)
	setInferLayers(r, spans)
	r.set("serve.bin.ingest_overhead_us", median(p.lat)*1e3-float64(p.stats.P50.Microseconds()))
	r.set("sched.replica_batch_share_max", replicaShare(p.stats))
	r.set("sched.fe_share_max", frontEndShare(p.stats))
	if p.ok > 0 {
		r.set("comm.msgs_per_req", float64(spans.sends)/float64(p.ok))
	}
	r.set("obs.overhead_pct", (untraced.rps()/p.rps()-1)*100)
	return nil
}
