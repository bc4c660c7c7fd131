#!/bin/sh
# Run the root package's benchmarks and record them with cmd/benchjson:
# the four headline benchmarks (one per reproduced table/figure plus the
# memset roof input), the program-cache trajectory benches, the daemon
# load bench (200 concurrent HTTP clients against a warm mperfd), the
# superblock micro-benches (hot-loop dispatch through fused regions and
# loop kernels, reported as sim-MIPS), and the artifact-store benches
# (warm start from serialized programs vs a cold compile, and a sharded
# two-process sweep with merge). The output file gets ns/op, the
# reproduced paper metrics, and the speedup/metric drift against the
# baseline file (benches missing from the baseline have no comparison).
#
# The daemon bench runs at a fixed iteration count so its cache-hit-rate
# metric reflects steady-state serving, not a two-request sample.
#
# Usage: scripts/bench.sh OUTPUT BASELINE [benchtime]   (default 2x)
# Relative paths are taken from the repository root. For example:
#   scripts/bench.sh BENCH_NEW.json BENCH_PR9.json
set -eu
if [ $# -lt 2 ]; then
	echo "usage: $0 OUTPUT BASELINE [benchtime]" >&2
	exit 2
fi
OUT=$1
BASELINE=$2
BENCHTIME="${3:-2x}"
cd "$(dirname "$0")/.."

HEADLINE='BenchmarkTable2_SqliteHotspots|BenchmarkFigure3_FlameGraphs|BenchmarkFigure4_Roofline|BenchmarkMemsetBandwidth'
CACHE='BenchmarkCompileProgram|BenchmarkInstantiate|BenchmarkMatrixWarm'
DAEMON='BenchmarkDaemonConcurrentProfiles'
SUPERBLOCK='BenchmarkSuperblockMatmul|BenchmarkSuperblockTriad|BenchmarkSuperblockSqlite'
STORE='BenchmarkColdVsWarmStart|BenchmarkShardedMatrix'

{
	go test -run '^$' -bench "$HEADLINE|$CACHE" -benchtime "$BENCHTIME" .
	go test -run '^$' -bench "$DAEMON" -benchtime 100x .
	go test -run '^$' -bench "$SUPERBLOCK" -benchtime 2s .
	go test -run '^$' -bench "$STORE" -benchtime 20x .
} |
	tee /dev/stderr |
	go run ./cmd/benchjson -baseline "$BASELINE" > "$OUT"

echo "wrote $OUT" >&2
