package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/kernels"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/perfmodel"
	"repro/internal/tensor"
)

// trainTask is one training workload: a model, its global batch, the
// processor grid, and the synthetic data generator. The same task also
// trains on one rank, the single-worker reference for the grid's losses
// and speed.
type trainTask struct {
	arch  *nn.Arch
	batch int
	grid  dist.Grid
	data  func(seed int64) trainData
}

// trainData is one global batch: inputs plus segmentation labels.
type trainData struct {
	x   *tensor.Tensor
	seg []int32
}

func meshTask() trainTask {
	arch := models.MeshTiny(128)
	out, err := arch.Output()
	if err != nil {
		panic(err) // a fixed, built-in architecture
	}
	outSize := out.H
	return trainTask{
		arch: arch, batch: 2, grid: dist.Grid{PN: 1, PH: 2, PW: 1},
		data: func(seed int64) trainData {
			x, l := data.MeshBatch(data.MeshConfig{Size: 128, Channels: 4, OutSize: outSize}, 2, seed)
			return trainData{x: x, seg: l}
		},
	}
}

// rankStep is one rank's timing of one training step.
type rankStep struct {
	rank                int
	fwd, loss, bwd, sgd time.Duration
	lossVal             float64
}

// trainEnv is a running training world whose ranks execute one step per
// command, so the benchmark decides from outside when steps start and
// stop. Every rank builds its own DistNet, as cmd/trainmesh does.
type trainEnv struct {
	cmds []chan nn.GradMode
	res  chan rankStep
	ran  chan struct{}
}

func startTrain(t trainTask, grid dist.Grid, d trainData, seed int64) (*trainEnv, error) {
	p := grid.Size()
	e := &trainEnv{cmds: make([]chan nn.GradMode, p), res: make(chan rankStep, p), ran: make(chan struct{})}
	for r := range e.cmds {
		e.cmds[r] = make(chan nn.GradMode)
	}
	ready := make(chan error, p)
	world := comm.NewWorld(p)
	go func() {
		defer close(e.ran)
		world.Run(func(c *comm.Comm) { e.rankLoop(c, t, grid, d, seed, ready) })
	}()
	var err error
	for range p {
		if rerr := <-ready; rerr != nil && err == nil {
			err = rerr
		}
	}
	if err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *trainEnv) rankLoop(c *comm.Comm, t trainTask, grid dist.Grid, d trainData, seed int64, ready chan<- error) {
	ctx := core.NewCtx(c, grid)
	net, err := nn.NewDistNet(ctx, t.arch, t.batch, seed)
	if err != nil {
		ready <- err
		return
	}
	x := net.ScatterInput(d.x)[ctx.Rank]
	lbl := nn.ScatterLabels(d.seg, net.OutputDist())[ctx.Rank]
	opt := nn.NewSGD(0.05, 0.9, 1e-4)
	ready <- nil
	for mode := range e.cmds[ctx.Rank] {
		net.Grad = mode
		t0 := time.Now()
		logits := net.Forward(x)
		t1 := time.Now()
		loss, dl := nn.DistSegLoss(ctx, logits, lbl)
		t2 := time.Now()
		net.Backward(dl)
		t3 := time.Now()
		opt.Step(net.Params())
		t4 := time.Now()
		e.res <- rankStep{rank: ctx.Rank, fwd: t1.Sub(t0), loss: t2.Sub(t1), bwd: t3.Sub(t2), sgd: t4.Sub(t3), lossVal: loss}
	}
}

// step runs one training step on every rank and returns its wall time and
// rank 0's breakdown.
func (e *trainEnv) step(mode nn.GradMode) (time.Duration, rankStep) {
	t0 := time.Now()
	for _, c := range e.cmds {
		c <- mode
	}
	var r0 rankStep
	for range e.cmds {
		if r := <-e.res; r.rank == 0 {
			r0 = r
		}
	}
	return time.Since(t0), r0
}

// close stops the ranks and waits for the world to exit.
func (e *trainEnv) close() {
	for _, c := range e.cmds {
		close(c)
	}
	<-e.ran
}

const (
	trainSetups = 3 // set-ups per untraced run; setup_s is their median
	warmSteps   = 2 // steps inside each set-up, compared bitwise across set-ups
	minSteps    = 3 // fewest measured steps per window
)

// warmupTol is the relative loss difference allowed between the 2-rank
// and 1-rank warm-up steps. Step 0 is the forward pass from identical
// weights (halo exchange, distributed batchnorm statistics, loss
// reduction); only the float sums reorder. Step 1 follows one update, and a
// pre-activation that lands within rounding of zero may pass a ReLU
// gradient on one run and not the other, moving one term of a channel's
// weight gradient: over 150 seeds the 1-rank run alone, under the FMA and
// the plain Go GEMM microkernels, differs by up to 1.1e-4 at step 1, and
// the 2-rank run by up to 1.4e-4, against at most 2.2e-7 at step 0. Later
// steps amplify such differences past any fixed tolerance. Halving the
// received halo rows, or skipping the gradient allreduce, moves the step-1
// loss by 6e-3 to 8e-2 relative.
var warmupTol = [warmSteps]float64{1e-5, 1e-3}

// stepWindow runs steps until the window has elapsed (and at least
// minSteps ran). A non-nil wrap is handed each step to run, so it can do
// work just before and after it.
func stepWindow(e *trainEnv, mode nn.GradMode, window time.Duration, wrap func(step func())) (walls []time.Duration, steps []rankStep, elapsed time.Duration) {
	start := time.Now()
	for len(walls) < minSteps || time.Since(start) < window {
		var w time.Duration
		var st rankStep
		step := func() { w, st = e.step(mode) }
		if wrap != nil {
			wrap(step)
		} else {
			step()
		}
		walls = append(walls, w)
		steps = append(steps, st)
	}
	return walls, steps, time.Since(start)
}

func lossesOf(steps []rankStep) []float64 {
	out := make([]float64, len(steps))
	for i, s := range steps {
		out[i] = s.lossVal
	}
	return out
}

// setupTrain builds a training world and runs its warm-up steps.
func setupTrain(t trainTask, grid dist.Grid, seed int64) (*trainEnv, []float64, time.Duration, error) {
	t0 := time.Now()
	e, err := startTrain(t, grid, t.data(seed), seed)
	if err != nil {
		return nil, nil, 0, err
	}
	warm := make([]float64, warmSteps)
	for i := range warm {
		_, st := e.step(nn.GradOverlap)
		warm[i] = st.lossVal
	}
	return e, warm, time.Since(t0), nil
}

func countBadLosses(ls []float64) int {
	n := 0
	for _, l := range ls {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			n++
		}
	}
	return n
}

// checkWarmup compares the warm-up losses of the 2-rank and 1-rank runs of
// one task step by step within warmupTol.
func checkWarmup(r *report, two, one []float64) {
	for i, tol := range warmupTol {
		rel := math.Abs(two[i]-one[i]) / math.Max(math.Abs(one[i]), 1e-12)
		if !(rel <= tol) {
			r.fail("2-rank vs 1-rank: warm-up step %d loss %.9g vs %.9g (relative %.2g > %g)", i, two[i], one[i], rel, tol)
			continue
		}
		fmt.Printf("check: 2-rank vs 1-rank warm-up step %d losses agree (relative difference %.2g <= %g)\n", i, rel, tol)
	}
}

func runTrain(t trainTask, seed int64, seconds float64, trace bool, r *report) error {
	// Ranks are the parallelism unit; kernels stay single-threaded per rank.
	defer kernels.SetMaxWorkers(kernels.SetMaxWorkers(1))
	fmt.Printf("task: %s batch=%d grid=%+v\n", t.arch.Name, t.batch, t.grid)
	if trace {
		return traceTrain(t, seed, seconds, r)
	}
	budget := time.Duration(seconds * float64(time.Second))
	window := budget * 65 / 100 // the rest trains the 1-rank baseline

	var setups []float64
	var warm0 []float64
	var env *trainEnv
	for i := 0; i < trainSetups; i++ {
		e, warm, d, err := setupTrain(t, t.grid, seed)
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
		if i == 0 {
			warm0 = warm
		} else {
			for s := range warm {
				if math.Float64bits(warm[s]) != math.Float64bits(warm0[s]) {
					r.fail("set-up %d step %d loss %.9g differs bitwise from set-up 0's %.9g", i, s, warm[s], warm0[s])
				}
			}
		}
		if i < trainSetups-1 {
			e.close()
		} else {
			env = e
		}
	}
	fmt.Printf("check: warm-up losses %v repeat bitwise across %d set-ups\n", warm0, trainSetups)

	runtime.GC()
	hp := startHeapPeak()
	walls, steps, elapsed := stepWindow(env, nn.GradOverlap, window, nil)
	peak := hp.Stop()
	env.close()
	losses := lossesOf(steps)
	bad := countBadLosses(losses)
	r.ops(len(steps), bad)
	if bad > 0 {
		r.fail("%d of %d steps produced a non-finite loss", bad, len(steps))
	}
	wallMs := durationsMs(walls)
	rate := float64(t.batch*len(steps)) / elapsed.Seconds()
	r.set("setup_s", median(setups))
	r.set("heap_peak_mb", float64(peak)/1e6)
	r.set("throughput_per_s", rate)
	r.set("latency_p50_ms", median(wallMs))
	fmt.Printf("train.samples_per_s %.4f samples/s (%d steps in %.2fs)\n", rate, len(steps), elapsed.Seconds())
	fmt.Printf("train.step_p50_ms %.4f ms\n", median(wallMs))
	fmt.Printf("loss: first %.6g last %.6g\n", losses[0], losses[len(losses)-1])

	one := dist.Grid{PN: 1, PH: 1, PW: 1}
	e1, warm1, _, err := setupTrain(t, one, seed)
	if err != nil {
		return err
	}
	_, steps1, elapsed1 := stepWindow(e1, nn.GradOverlap, budget-window, nil)
	e1.close()
	losses1 := lossesOf(steps1)
	bad1 := countBadLosses(losses1)
	r.ops(len(steps1), bad1)
	if bad1 > 0 {
		r.fail("%d of %d 1-rank steps produced a non-finite loss", bad1, len(steps1))
	}
	checkWarmup(r, warm0, warm1)
	fmt.Printf("train.1rank.samples_per_s %.4f samples/s (%d steps)\n",
		float64(t.batch*len(steps1))/elapsed1.Seconds(), len(steps1))
	return nil
}

// commSpans folds the flight-recorder spans of traced training steps into
// communication totals, summed over ranks. Halo messages are the
// point-to-point sends and receives outside collectives: user-tag traffic,
// and proxy traffic outside the proxy's allreduce operations (overlapped
// halo exchanges run on the proxy engine too).
type commSpans struct {
	haloMsgs, haloBytes float64
	recvWait            time.Duration
	arCalls, arBytes    float64
	arTime              time.Duration
}

func (c *commSpans) add(evs []obs.Event) {
	// Events arrive sorted by start, and a proxy operation's span starts
	// before the messages it sends; an allreduce operation carries its
	// buffer size, a halo exchange none.
	arEnd := map[int]int64{}
	for _, ev := range evs {
		switch ev.Stage {
		case obs.StageProxyOp:
			if ev.Arg > 0 {
				arEnd[ev.Track] = ev.Start + ev.Dur
			}
		case obs.StageAllreduce:
			c.arCalls++
			c.arBytes += float64(ev.Arg)
			c.arTime += time.Duration(ev.Dur)
		case obs.StageSend, obs.StageRecv:
			halo := ev.Class == obs.ClassUser || (ev.Class == obs.ClassProxy && ev.Start > arEnd[ev.Track])
			switch {
			case !halo:
			case ev.Stage == obs.StageSend:
				c.haloMsgs++
				c.haloBytes += float64(ev.Arg)
			default:
				c.recvWait += time.Duration(ev.Dur)
			}
		}
	}
}

// traceTrain is the traced run of a training task: untraced steps, traced
// steps, traced GradSkip steps, the 1-rank baseline and the kernel replay.
func traceTrain(t trainTask, seed int64, seconds float64, r *report) error {
	budget := time.Duration(seconds * float64(time.Second))
	part := func(pct int) time.Duration { return budget * time.Duration(pct) / 100 }

	var dataMs []float64
	for range 3 {
		t0 := time.Now()
		t.data(seed)
		dataMs = append(dataMs, ms(time.Since(t0)))
	}
	r.set("data.batch_ms", median(dataMs))

	env, _, _, err := setupTrain(t, t.grid, seed)
	if err != nil {
		return err
	}
	ranks := t.grid.Size()
	obs.Configure(ranks, 1<<16)

	const plain, tracedShare, skipShare, oneShare = 20, 30, 15, 15
	uWalls, uSteps, _ := stepWindow(env, nn.GradOverlap, part(plain), nil)

	var spans commSpans
	var allocs []float64
	traced := func(step func()) {
		a0 := allocObjects()
		obs.Enable()
		step()
		obs.Disable()
		allocs = append(allocs, float64(allocObjects()-a0))
		spans.add(obs.Snapshot())
	}
	tWalls, tSteps, _ := stepWindow(env, nn.GradOverlap, part(tracedShare), traced)
	var skipSpans commSpans
	sWalls, sSteps, _ := stepWindow(env, nn.GradSkip, part(skipShare), func(step func()) {
		obs.Enable()
		step()
		obs.Disable()
		skipSpans.add(obs.Snapshot())
	})
	env.close()
	// GradSkip steps train on unreduced gradients, so only the other
	// steps' losses are checked.
	bad := countBadLosses(lossesOf(uSteps)) + countBadLosses(lossesOf(tSteps))
	r.ops(len(uSteps)+len(tSteps)+len(sSteps), bad)
	if bad > 0 {
		r.fail("%d steps produced a non-finite loss", bad)
	}

	steps := float64(len(tSteps))
	perRank := steps * float64(ranks)
	uMed, tMed, sMed := median(durationsMs(uWalls)), median(durationsMs(tWalls)), median(durationsMs(sWalls))
	r.set("core.halo_msgs_per_step", spans.haloMsgs/perRank)
	r.set("core.halo_mb_per_step", spans.haloBytes/perRank/1e6)
	r.set("comm.recv_wait_ms_per_step", ms(spans.recvWait)/perRank)
	r.set("comm.allreduce_calls_per_step", spans.arCalls/perRank)
	r.set("comm.allreduce_mb_per_step", spans.arBytes/perRank/1e6)
	r.set("comm.allreduce_ms_per_step", ms(spans.arTime)/perRank)
	r.set("comm.exposed_ms_per_step", tMed-sMed)
	phase := func(f func(rankStep) time.Duration) float64 {
		xs := make([]float64, len(tSteps))
		for i, s := range tSteps {
			xs[i] = ms(f(s))
		}
		return median(xs)
	}
	fwd := phase(func(s rankStep) time.Duration { return s.fwd })
	loss := phase(func(s rankStep) time.Duration { return s.loss })
	bwd := phase(func(s rankStep) time.Duration { return s.bwd })
	sgd := phase(func(s rankStep) time.Duration { return s.sgd })
	r.set("nn.step_ms", tMed)
	r.set("nn.forward_ms", fwd)
	r.set("nn.loss_ms", loss)
	r.set("nn.backward_ms", bwd)
	r.set("nn.sgd_ms", sgd)
	r.set("nn.allocs_per_step", median(allocs))
	r.set("obs.overhead_pct", (tMed-uMed)/uMed*100)
	fmt.Printf("steps: untraced %d (p50 %.3f ms), traced %d (p50 %.3f ms), GradSkip %d (p50 %.3f ms)\n",
		len(uWalls), uMed, len(tWalls), tMed, len(sWalls), sMed)
	fmt.Printf("nn phases sum to %.1f%% of the traced median step\n", (fwd+loss+bwd+sgd)/tMed*100)

	pred, err := perfmodel.CNNCost(bench.CPUMachine(), t.arch, t.grid, t.batch, perfmodel.DefaultOptions())
	if err != nil {
		return err
	}
	r.set("perfmodel.step_pred_ratio", pred.MiniBatchTime*1e3/uMed)
	fmt.Printf("perfmodel: predicted step %.3f ms, measured %.3f ms\n", pred.MiniBatchTime*1e3, uMed)

	e1, _, _, err := setupTrain(t, dist.Grid{PN: 1, PH: 1, PW: 1}, seed)
	if err != nil {
		return err
	}
	oWalls, oSteps, _ := stepWindow(e1, nn.GradOverlap, part(oneShare), nil)
	e1.close()
	r.ops(len(oSteps), countBadLosses(lossesOf(oSteps)))
	// Samples/s on 2 ranks over twice the 1-rank samples/s; the batch
	// is the same on both.
	r.set("train.scaling_eff", median(durationsMs(oWalls))/(float64(ranks)*uMed))

	fwdG, dataG, filtG, err := replayConvs(t, seed, budget-part(plain+tracedShare+skipShare+oneShare))
	if err != nil {
		return err
	}
	r.set("kernels.conv_fwd_gflops", fwdG)
	r.set("kernels.conv_bwd_data_gflops", dataG)
	r.set("kernels.conv_bwd_filter_gflops", filtG)
	return nil
}

// replayConvs replays the task's per-rank convolution shapes through the
// forward, backward-data and backward-filter kernels until the budget is
// spent (at least once), and returns each kernel's GFLOP/s.
func replayConvs(t trainTask, seed int64, budget time.Duration) (fwd, bwdData, bwdFilter float64, err error) {
	shapes, err := t.arch.Shapes()
	if err != nil {
		return 0, 0, 0, err
	}
	type convCase struct {
		x, w, y, dy, dx, dw *tensor.Tensor
		s, p                int
		flops               float64
	}
	var cases []convCase
	nLoc := t.batch / t.grid.PN
	for i, s := range t.arch.Specs {
		if s.Kind != nn.KindConv {
			continue
		}
		in := shapes[s.Parents[0]]
		h := (in.H + t.grid.PH - 1) / t.grid.PH
		w := (in.W + t.grid.PW - 1) / t.grid.PW
		g := s.Geom
		oh, ow := g.OutSize(h), g.OutSize(w)
		if oh < 1 || ow < 1 {
			continue
		}
		c := convCase{
			x: tensor.New(nLoc, in.C, h, w), w: tensor.New(s.F, in.C, g.K, g.K),
			y: tensor.New(nLoc, s.F, oh, ow), dy: tensor.New(nLoc, s.F, oh, ow),
			dx: tensor.New(nLoc, in.C, h, w), dw: tensor.New(s.F, in.C, g.K, g.K),
			s: g.S, p: g.Pad, flops: convFlops(nLoc, in.C, s.F, oh, ow, g.K),
		}
		c.x.FillRandN(seed+int64(i), 1)
		c.w.FillRandN(seed+int64(i)+1, 0.1)
		c.dy.FillRandN(seed+int64(i)+2, 1)
		cases = append(cases, c)
	}
	var tf, td, tw time.Duration
	var flops float64
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < budget; pass++ {
		for _, c := range cases {
			t0 := time.Now()
			kernels.ConvForward(c.x, c.w, nil, c.y, c.s, c.p, kernels.ConvAuto)
			t1 := time.Now()
			kernels.ConvBackwardDataRegion(c.dy, c.w, c.dx, c.s, c.p, 0, 0, 0, 0)
			t2 := time.Now()
			kernels.ConvBackwardFilter(c.x, c.dy, c.dw, c.s, c.p, false)
			t3 := time.Now()
			tf += t1.Sub(t0)
			td += t2.Sub(t1)
			tw += t3.Sub(t2)
			flops += c.flops
		}
	}
	gf := func(d time.Duration) float64 { return flops / d.Seconds() / 1e9 }
	return gf(tf), gf(td), gf(tw), nil
}
