// Command perfbench is the repository's benchmark: it measures distributed
// CNN training and model serving end to end, and in a separate traced run
// breaks the time down by layer (package). Build and run it from the
// repository root:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	bash perfbench/run.sh --workload all --seed 1 --seconds 20
//
// --seed derives every input: training data and weights, the serving input
// set, and the open-loop arrival schedules. --trace 0 prints the end-to-end
// metrics, measured with the flight recorder off; --trace 1 runs the
// workload again with it on and prints the per-layer metrics and the
// tracing overhead. "all" runs every workload untraced, then every workload
// traced. Human-readable lines come first (with a machine fingerprint:
// nproc, GOMAXPROCS, GEMM microkernel, Go version, commit); the last line
// is one JSON object {correct, attempted, failed, metrics}. The exit status
// is non-zero when a correctness check fails. BENCHMARK.json at the
// repository root lists the workloads and metrics; TestTablesMatchBenchmarkJSON
// keeps the two in step. The unit tests run with `go test .` in this
// directory.
//
// # Workloads
//
// Each runs in one process with GOMAXPROCS = nproc. Training runs 2 comm
// ranks with single-threaded kernels per rank, as cmd/trainmesh does;
// serving uses at most 2 TCP connections.
//
//   - train-mesh-spatial: models.MeshTiny(128) on data.MeshBatch, global
//     batch 2, grid {PN:1 PH:2 PW:1}, GradOverlap, SGD(0.05, 0.9, 1e-4), and
//     the same task on one rank as the single-worker baseline. Why: the
//     paper's large-sample regime, where only spatial splitting can
//     strong-scale a batch of 2; conv kernels on large extents and halo
//     exchange do the work.
//   - serve-resnet-open: models.ResNet50TinyForServing(16, 10, 16) behind
//     serve.Config{Groups: {1,1}, MaxBatch: 16}, driven through in-process
//     Predict in three phases, each on a fresh server: low (open-loop
//     Poisson arrivals at 50 r/s), high (600 r/s) and sat (64 closed-loop
//     callers, one per admission-lane slot, so nothing is shed). Why:
//     batching and the prepacked, fused inference kernels do the work, and
//     they are weight-bandwidth bound at small batch. Capacity is measured
//     closed-loop because a rate ramp ends in sheds by construction.
//   - serve-small-binary: models.SmallCNNForServing(8, 3, 4, 16) behind
//     serve.Config{FrontEnds: 2, Groups: {1,1}, MaxBatch: 8, BatchDeadline:
//     serve.Greedy}, with two closed-loop DialBinary connections, one per
//     front-end. Why: compute is trivial, so binary-frame ingest, sharded
//     admission, routing and the wire do the work; no other workload
//     touches ServeBinary. Greedy batching, because two synchronous callers
//     never fill a batch and a timed deadline would only measure the timer.
//
// # End-to-end metrics (--trace 0)
//
// Every workload reports the same four, so each has a value on each
// workload:
//
//   - setup_s: median over several set-ups in the run. Training: generate
//     the batch, build every rank's DistNet and run the two warm-up steps.
//     serve-resnet-open: build the model and start a server (five times:
//     one per phase and two more). serve-small-binary: build the model, start the server and
//     its listener, dial both connections (nine times).
//   - heap_peak_mb: the largest /memory/classes/heap/objects:bytes sampled
//     during the timed windows, after a forced collection at their start.
//   - throughput_per_s: training samples per second on the 2-rank grid;
//     requests served per second in the closed-loop phase (sat, or bin).
//   - latency_p50_ms: the median training step; the median latency of the
//     low phase timed from each request's due time (serve-resnet-open; the
//     high phase's median moves too much from run to run on a 2-core box to
//     gate on); the median client-side latency (serve-small-binary).
//
// The human-readable lines also print the workload-specific numbers under
// their own names: train.samples_per_s, train.step_p50_ms,
// train.1rank.samples_per_s, serve.low.p50_ms, serve.high.p50_ms, the
// phases' tail latency at the highest percentile with at least ten samples
// beyond it, serve.sat.rps, serve.bin.rps and serve.bin.p50_us, and each
// phase's sent/succeeded/shed/failed counts.
//
// # Per-layer metrics (--trace 1)
//
// Layers are measured from outside: the benchmark times its calls into
// each package's public functions (nn.DistNet.Forward/Backward,
// nn.SGD.Step, kernels.Conv*, serve.Server.Predict,
// serve.BinaryClient.Predict) and reads what the program exports
// (serve.Server.Stats and the obs flight-recorder spans that comm,
// nn.InferNet and serve emit). Every workload prints every per-layer
// metric; those of layers a workload does not use read 0. Each line says
// which end-to-end metric it should move, on which workload:
//
//   - kernels.conv_{fwd,bwd_data,bwd_filter}_gflops: the training
//     workload's per-rank conv shapes replayed through kernels.ConvForward,
//     ConvBackwardDataRegion and ConvBackwardFilter, flops counted from the
//     shapes. → throughput_per_s on train-mesh-spatial.
//   - kernels.infer_conv_ms_per_batch, infer_gflops, infer_microkernel_share:
//     InferNet conv-layer and GEMM-microkernel spans inside replica compute
//     spans. → throughput_per_s and latency_p50_ms on serve-resnet-open.
//   - core.halo_msgs_per_step, core.halo_mb_per_step,
//     comm.recv_wait_ms_per_step (per rank): point-to-point traffic outside
//     collectives. → throughput_per_s on train-mesh-spatial.
//   - comm.allreduce_{calls,mb,ms}_per_step (per rank), and
//     comm.exposed_ms_per_step: the traced step minus a traced GradSkip
//     step. → throughput_per_s on train-mesh-spatial.
//   - nn.step_ms and its parts nn.forward_ms, nn.loss_ms, nn.backward_ms,
//     nn.sgd_ms (rank 0, step medians), nn.allocs_per_step. →
//     latency_p50_ms and heap_peak_mb on train-mesh-spatial.
//   - data.batch_ms: one global batch from data.MeshBatch. → setup_s of
//     train-mesh-spatial.
//   - train.scaling_eff: 2-rank samples/s over twice the 1-rank
//     samples/s. A diagnostic: a faster kernel legitimately lowers it.
//   - perfmodel.step_pred_ratio: perfmodel.CNNCost(bench.CPUMachine(), …)
//     over the measured step. Tracked, not timed; it moves no end-to-end
//     metric.
//   - serve.<phase>.<stage>.p50_ms/.p99_ms for the Server.Stats stages and
//     serve.<phase>.avg_batch/.shed/.failed/.allocs_per_req, phases low,
//     high, sat and bin. batch_wait, queue_wait and compute → the low/high
//     latencies; avg_batch → sat throughput; wire and gather → the binary
//     tail.
//   - serve.bin.ingest_overhead_us: client p50 minus the server's p50. →
//     latency_p50_ms on serve-small-binary.
//   - sched.replica_batch_share_max → serve-resnet-open throughput;
//     sched.fe_share_max and comm.msgs_per_req → serve-small-binary
//     throughput.
//   - gen.late_ms_max, gen.late_share: how late the open-loop generator
//     sent (late means more than 1 ms); they move nothing, and must stay
//     small for the open-loop latencies to mean anything.
//   - obs.overhead_pct: the traced primary metric (step time, or closed-loop
//     requests/s) against an untraced window of the same run.
//
// sim, strategy, dist, tensor and models are not timed: none is on a
// training or serving path.
//
// # Checks
//
// A failed check makes the run incorrect. Training: the warm-up losses of
// every set-up repeat bitwise; every loss is finite; train-mesh-spatial's
// 2-rank losses track its 1-rank losses over the two warm-up steps (the
// paper's exactness property): within a relative 1e-5 on the forward pass
// from identical weights, 1e-3 after the first update (a ReLU gradient at a
// pre-activation within rounding of zero may differ; later steps amplify
// such differences past any fixed tolerance). Serving: every answer
// equals, bitwise, a batch-1 InferNet.Forward of its input; sheds, errors
// and mismatches count as failed operations.
package main
