#!/usr/bin/env bash
# bench-gate.sh — run the CI-gated benchmark set with fixed iteration counts
# and append the raw `go test -bench` output to the log file named by $1
# (default bench.txt). Fixed -benchtime/-count keeps runs comparable; the
# gate itself is cmd/benchcmp:
#
#   refresh baseline:  scripts/bench-gate.sh bench.txt &&
#                      go run ./cmd/benchcmp -note "$(go env GOOS)/$(go env GOARCH)" \
#                          -out BENCH_BASELINE.json bench.txt
#   gate (CI):         scripts/bench-gate.sh bench.txt &&
#                      go run ./cmd/benchcmp -baseline BENCH_BASELINE.json \
#                          -threshold 30 -out BENCH.json bench.txt
#
# The baseline is hardware-specific: refresh it (same PR) whenever the CI
# runner class changes or a deliberate perf trade lands.
set -euo pipefail
cd "$(dirname "$0")/.."
out="${1:-bench.txt}"
: > "$out"

# Iteration counts are pinned per benchmark so runs stay comparable, and
# sized so every measurement window is tens of milliseconds at least —
# sub-millisecond windows would make the 30% gate flake on scheduler noise.

# Serving kernel, single-cell reconstruction (~1µs/op → ~100ms windows).
go test -run '^$' -bench '^(BenchmarkPredict|BenchmarkPredictorPredict)$' -benchtime 100000x -count 3 . | tee -a "$out"
# Sparse-core serving: same kernel on a half-pruned core; the gate also
# catches the proportional speedup regressing back toward dense cost.
go test -run '^$' -bench '^BenchmarkPredictSparse$' -benchtime 100000x -count 3 . | tee -a "$out"
# Top-10 ranking through the flat core contraction, dense vs pruned core
# (~5µs/op → ~100ms windows).
go test -run '^$' -bench '^BenchmarkRecommend(Sparse)?$' -benchtime 20000x -count 3 . | tee -a "$out"
# Batched reconstruction (~5ms/op → ~0.5s windows).
go test -run '^$' -bench '^BenchmarkPredictBatch(Serial)?$' -benchtime 100x -count 3 . | tee -a "$out"
# Online fold-in, Eq. 9 single-row solve (~12µs/op → ~60ms windows).
go test -run '^$' -bench '^BenchmarkFoldIn$' -benchtime 5000x -count 3 ./internal/core | tee -a "$out"
# Fold-in plus the publish a server does after it (Snapshot and
# NewPredictorShared) on a 6,6,2,2 model whose mode 0 has 4096 or 65536
# rows. Publishing is O(rank): both sizes should read the same ns/op and
# allocs/op (~5µs/op → ~100ms windows). New to benchcmp until the baseline
# is refreshed, so not gated.
go test -run '^$' -bench '^BenchmarkFoldInPublish$' -benchtime 20000x -count 3 -benchmem ./internal/core | tee -a "$out"
# Fit path, the paper's contribution: one cold ALS iteration of P-Tucker,
# P-Tucker-Cache and P-Tucker-Approx (init, Eq. 9 row updates, error,
# truncation, finalize; ~15-20ms/op → ~0.3-0.4s windows), the exact Eq. 5
# pass over a fitted model and the R(β) scoring pass of truncation and
# Sparsify (~3ms/op each → ~0.3s windows). -benchmem records the row
# solve's allocations next to its time. Until BENCH_BASELINE.json is
# refreshed on the CI runner class, benchcmp lists these as new and does
# not gate them.
go test -run '^$' -bench '^BenchmarkIteration(Plain|Cache|Approx)$' -benchtime 20x -count 3 -benchmem ./internal/core | tee -a "$out"
go test -run '^$' -bench '^Benchmark(ErrorPass|PartialErrors)$' -benchtime 100x -count 3 -benchmem ./internal/core | tee -a "$out"
# The contraction kernel behind δ, fold-in, predict, recommend and R(β), on
# both of its sides: every mode of 1024 entries on a dense 5³ core
# (Kronecker side) and on a 6,6,2,2 core kept to 14 entries (per-entry
# side); ~1ms/op → ~0.1s windows. New to benchcmp until the baseline is
# refreshed, so not gated.
go test -run '^$' -bench '^BenchmarkContract$' -benchtime 100x -count 3 -benchmem ./internal/core | tee -a "$out"
# Binary tensor snapshot load (~230µs/op → ~100ms windows).
go test -run '^$' -bench '^BenchmarkBinaryRead$' -benchtime 500x -count 3 ./internal/store | tee -a "$out"
# Model open, mmap vs heap, small vs 16x-larger file. The mmap rows=64k row
# is the zero-copy acceptance pin: it must stay flat (~30µs metadata-only)
# while the heap rows=64k row scales with the file — if mapped opens start
# regressing toward heap-decode cost, aliasing broke somewhere.
go test -run '^$' -bench '^BenchmarkMmapModelOpen$' -benchtime 2000x -count 3 ./internal/store | tee -a "$out"
go test -run '^$' -bench '^BenchmarkHeapModelOpen$' -benchtime 100x -count 3 ./internal/store | tee -a "$out"
# Histogram record path: every request/fsync observation pays this, so
# it is gated on ns/op like the rest AND must stay allocation-free — an
# alloc here would show up as GC pressure on the serving hot path.
go test -run '^$' -bench '^BenchmarkHistogramRecord$' -benchtime 2000000x -count 3 -benchmem ./internal/metrics | tee -a "$out"
if grep '^BenchmarkHistogramRecord' "$out" | awk '{ for (i=1; i<NF; i++) if ($(i+1) == "allocs/op" && $i != "0") exit 1 }'; then
    :
else
    echo "bench-gate: BenchmarkHistogramRecord allocates on the record path" >&2
    exit 1
fi
