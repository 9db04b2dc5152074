#!/bin/sh
# Runs the bench-gate benchmark set — the engine event loop, the
# event-queue and partition-runner micro-benchmarks, the process Sleep,
# process-to-process handoff and signal-wait micro-benchmarks, the ALPU device micro-benchmarks, the
# matching-fabric dispatch/overflow and dispatch-cache micro-benchmarks,
# the NIC L1 cache lookup,
# the firmware's software queue search, the network transmit path, the 2-rank world build and whole
# world lifecycle, the quick Fig. 5
# sweep cuts and the telemetry exporters — and writes the raw `go test -bench` output to the given
# file (default BENCH_CURRENT.txt). CI runs it on the parent commit (a
# git worktree) and on the change, back to back in alternating order on
# the same host, and compares the two outputs with cmd/benchgate, so the
# gate measures the change rather than the host.
#
# -count 3 runs every benchmark three times; the gate keeps the minimum,
# which is the least-noise estimate of true cost. Benchmarks run with
# -benchmem are gated on allocs/op as well.
set -e
out="${1:-BENCH_CURRENT.txt}"
: > "$out"
go test -run '^$' -bench 'BenchmarkEngineScheduleStep$' -benchtime 1s -count 3 ./internal/sim | tee -a "$out"
# Time-based benchtime: the queue and partition-window ops are tens to
# hundreds of ns, so a fixed small iteration count would be all timer
# noise.
go test -run '^$' -bench 'BenchmarkQueueMicro/' -benchtime 0.2s -count 3 ./internal/sim | tee -a "$out"
# Process Sleep taken inline (alone) is ~4 ns/op: at 0.2s x 3 its minimum
# moved by more than the 15% bound between back-to-back runs of one
# binary, so it gets ten 1s runs. A Sleep that parks (contended: two
# sleepers) and a resume handed from process to process in a crowd
# (Handoff: 48 sleepers) are hundreds of ns each.
go test -run '^$' -bench 'BenchmarkProcessSleep/alone$' -benchtime 1s -count 10 ./internal/sim | tee -a "$out"
go test -run '^$' -bench 'BenchmarkProcessSleep/contended$' -benchtime 0.2s -count 3 ./internal/sim | tee -a "$out"
go test -run '^$' -bench 'BenchmarkProcessHandoff$' -benchtime 0.2s -count 3 ./internal/sim | tee -a "$out"
# Signal wait: a WaitSignal/Raise round trip, the park every firmware and
# rank wait takes; its wake must stay a pooled event, not a closure.
go test -run '^$' -bench 'BenchmarkProcessWait$' -benchtime 0.2s -count 3 ./internal/sim | tee -a "$out"
go test -run '^$' -bench 'BenchmarkMicro/' -benchtime 2000x -count 3 ./internal/alpu | tee -a "$out"
# Fabric hot paths: shard routing + overflow promote/demote are a few ns
# to ~100 ns each, so time-based benchtime again.
go test -run '^$' -bench 'BenchmarkFabric' -benchtime 0.2s -count 3 ./internal/match | tee -a "$out"
go test -run '^$' -bench 'BenchmarkCacheDispatch' -benchtime 0.2s -count 3 ./internal/cache | tee -a "$out"
# The NIC L1's 64-way set lookup, hitting and missing (and evicting from)
# a full cache: tens of ns per access.
go test -run '^$' -bench 'BenchmarkCacheNICL1' -benchtime 0.2s -count 3 ./internal/cache | tee -a "$out"
# Firmware queue search with its cost accounting (a 256-entry list miss,
# a shard prefix walk into the overflow hash, an exact hash probe): tens
# of ns to tens of µs per search.
go test -run '^$' -bench 'BenchmarkFirmwareFind' -benchtime 0.2s -count 3 ./internal/nic | tee -a "$out"
# Network transmit path (serialisation, fault draws, delivery scheduling)
# on a single-engine network, clean and faulty, and on a one-partition
# network's canonical delivery route: a few hundred ns per send, with
# -benchmem so the gate holds its allocs/op.
go test -run '^$' -bench 'BenchmarkNetworkSend' -benchtime 0.2s -benchmem -count 3 ./internal/network | tee -a "$out"
# World build (closed again at once) and world run (build, RunSim and
# teardown of one 2-rank Fig. 5 cell): the setup and the per-world
# lifecycle every sweep cell pays, dominated by model state (cache lines
# are backed on first access) and process goroutines. The world run also
# reports its events, switches and handoffs per op, which the gate holds
# exactly.
go test -run '^$' -bench 'BenchmarkWorld(Build|Run)$' -benchtime 0.2s -benchmem -count 3 ./internal/mpi | tee -a "$out"
# The quick Fig. 5 sweep cuts also report the events, switches and
# handoffs of every world they run, per op; the gate holds them exactly.
go test -run '^$' -bench 'BenchmarkFig5' -benchtime 3x -count 3 . | tee -a "$out"
# Exporters (Chrome trace, sim-time pprof profile, time series) of one
# recorders-sized world, about 600 events: -benchmem lets the gate hold
# their allocs/op, which must not grow with the event count.
go test -run '^$' -bench 'Benchmark(WriteTrace|WriteSimProfile|SamplerWriteJSON)$' -benchtime 0.2s -benchmem -count 3 ./internal/telemetry | tee -a "$out"
