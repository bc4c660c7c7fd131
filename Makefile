# Developer entry points; CI runs build/test/bench-smoke.

GO ?= go

.PHONY: build test bench bench-smoke vet

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# bench writes BENCH_OUT (headline, program-cache, daemon, superblock
# dispatch and artifact-store benches, ns/op + the reproduced paper
# metrics)
# compared against the recorded run in BENCH_BASELINE, for example
# make bench BENCH_OUT=BENCH_NEW.json BENCH_BASELINE=BENCH_PR9.json.
BENCH_OUT ?= BENCH_NEW.json
BENCH_BASELINE ?= BENCH_PR9.json

bench:
	sh scripts/bench.sh $(BENCH_OUT) $(BENCH_BASELINE)

# bench-smoke runs every benchmark exactly once so they cannot bit-rot;
# it is part of CI and takes a few seconds.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x .
