GO ?= go

# bench-kernels iteration budget. The default gives stable medians; CI's
# bench-smoke job overrides with BENCHTIME=1x for a single-iteration sweep
# that still proves every kernel runs and stays allocation-free.
BENCHTIME ?= 1s

# bench-compare regression tolerance in percent. Generous by default:
# CI's single-iteration smoke timings are noisy, and the gate is a report,
# not a blocker.
TOLERANCE ?= 25

# fuzz-smoke budget per target.
FUZZTIME ?= 5s

.PHONY: check fmt build test vet lint race chaos fuzz-smoke purego bench bench-kernels bench-eval bench-compare serve-smoke cluster-smoke atload-build size figures

## check: the pre-PR gate — formatting, static analysis (vet + atlint),
## build, full test suite, the lock-bearing packages under the race
## detector, the fault-injection chaos suite under the race detector, the
## multi-process cluster smoke, a short run of every fuzz target, and the
## benchmark driver's own build and short tests (a separate module tier-1
## never compiles).
check: fmt lint build test race chaos cluster-smoke fuzz-smoke atload-build

## fmt: fail if any file is not gofmt-clean.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

## lint: the static-analysis gate — go vet plus the repo-specific atlint
## suite (hot-path allocations, lock discipline, context threading,
## fault-site registration, error wrapping).
lint: vet
	$(GO) run ./cmd/atlint ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

## race: every test of the five packages that own a mutex-guarded struct
## runs under the race detector — which field a lock guards is checked by
## running the code, not inferred from it. core's convCache and sparse
## accumulator list are on the path of the tests its filter selects;
## unfiltered, core adds about as long again as the other five together.
## The product digests (72 products, over 4 min under the detector) are
## skipped: the executor and panic tests cover the same shared views and
## row chunks, sparse segments written side by side included. expr's panel
## and row-stream tasks run side by side on a socket's workers; its filter
## keeps the executor, digest and verify tests.
race:
	$(GO) test -race ./internal/sched ./internal/catalog ./internal/service ./internal/cluster ./cmd/atserve -count=1
	$(GO) test -race ./internal/core -run 'Concurrent|Cancel|Scrub|Recover|Spill|Verify|Bitflip|Distributed|BytesIndependentOfExecutor|PanicReportsTargetTile|AccRetention|Golden|MatchesOldRoute' -skip 'ProductGoldenDigests'
	$(GO) test -race ./internal/expr -run 'EvalMatchesReference|ExprResultDigests|FusedPeak|VerifyExpression'

## fuzz-smoke: run every Fuzz* target in the module for FUZZTIME. The seven
## decoder targets (core, cluster, catalog, mmio) assert an allocation
## bound on every input (internal/alloccheck), so this is also the gate
## that a declared length never becomes an allocation size. A failure
## writes its input under the package's testdata/fuzz/; commit it with the
## fix.
fuzz-smoke:
	@grep -rHo --include='*_test.go' '^func Fuzz[A-Za-z0-9_]*' . | sort | while IFS=: read -r file fn; do \
		echo "fuzz $$(dirname $$file) $${fn#func }"; \
		$(GO) test "$$(dirname $$file)" -run '^$$' -fuzz "^$${fn#func }\$$" -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s || exit 1; \
	done

## purego: the Go bodies that the amd64 assembly of internal/kernels
## replaces, which other architectures and CPUs without AVX2 run: the
## kernel and core suites under -tags purego, golden digests included, and
## a vet of the package's fallback file set on arm64.
purego:
	$(GO) test -tags purego ./internal/kernels ./internal/core -count=1
	GOARCH=arm64 $(GO) vet ./internal/kernels

## chaos: the fault-injection suite — injected kernel panics, hung tasks,
## transient failures, corrupt streams, double releases, bit flips, crash
## recovery, killed cluster workers and injected RPC faults — with the race
## detector and the goroutine leak checks armed. The second pass arms the
## rpc.* wire fault sites through the production ATSERVE_FAULTS path.
chaos:
	$(GO) test -race ./internal/faultinject ./internal/sched ./internal/catalog ./internal/service ./internal/cluster ./cmd/atserve -run 'Chaos|Fault|Panic|Watchdog|Release|WriteFile|Scrub|Recover|Spill|Verify|Bitflip' -count=1
	ATSERVE_FAULTS='rpc.send=transientx2' $(GO) test -race ./internal/cluster -run 'ChaosEnvArmed' -count=1

## bench: the per-figure benchmarks with allocation counts.
bench:
	$(GO) test -bench=. -benchmem

## figures: regenerate every table EXPERIMENTS.md records (Table I to
## Fig. 10) at the recorded settings, under the server's cost table
## (costmodel.Default()). Prints to stdout; several minutes.
figures:
	$(GO) run ./cmd/atbench -exp all -reps 3

## bench-kernels: run the nine tile kernels across the hyper/sparse/dense
## operand classes and serialize the results (name, ns/op, B/op, allocs/op)
## to BENCH_kernels.json via cmd/benchjson. BENCHTIME=1x for a quick smoke.
bench-kernels:
	$(GO) test -run '^$$' -bench '^BenchmarkKernel_' -benchmem -benchtime=$(BENCHTIME) . \
		| $(GO) run ./cmd/benchjson -o BENCH_kernels.json
	@echo "wrote BENCH_kernels.json"

## bench-eval: the expression-engine acceptance numbers — fused vs
## materialized on the 3-term sparse chain and on pow(A,10)*x — the layout
## builds a request pays for (a sum inside an expression, the repartition
## of a stored product, an upload, the assembly of a row-streamed chain),
## planning alone for eval_chain's three requests, and the Freivalds check
## of a product and of an expression as the server runs it, written to
## BENCH_eval.json. The expression records carry peak intermediate bytes
## as a peakB/op entry under "extra". BENCHTIME=1x for a quick smoke.
bench-eval:
	$(GO) test -run '^$$' -bench '^BenchmarkEval_' -benchtime=$(BENCHTIME) . \
		| $(GO) run ./cmd/benchjson -o BENCH_eval.json
	@echo "wrote BENCH_eval.json"

## bench-compare: diff the current BENCH_kernels.json / BENCH_eval.json
## against the committed baselines under bench/baselines/ and report
## regressions beyond TOLERANCE percent (ns/op and extra metrics; allocs/op
## is exact). Run bench-kernels / bench-eval first. Refresh the baselines
## by copying the JSON files over bench/baselines/ from a quiet machine
## with the default BENCHTIME.
bench-compare:
	$(GO) run ./cmd/benchjson -compare bench/baselines/BENCH_kernels.json -tolerance $(TOLERANCE) BENCH_kernels.json
	$(GO) run ./cmd/benchjson -compare bench/baselines/BENCH_eval.json -tolerance $(TOLERANCE) BENCH_eval.json

## serve-smoke: build the real atserve binary and drive it over HTTP — one
## multiply + clean SIGTERM shutdown, then the kill -9 crash-recovery drill
## against a durable data dir — and check that -sockets without -cores
## exits with status 2 instead of serving.
serve-smoke:
	ATSERVE_SMOKE=1 $(GO) test ./cmd/atserve -run 'TestServeSmoke|TestRecoverSmoke' -count=1 -v

## cluster-smoke: build the real binary and stand up a coordinator plus
## three workers on loopback (R=2 replication), run a sharded multiply
## through the normal HTTP API, SIGKILL a worker and assert the
## anti-entropy pass restores R — with the race detector on the test
## harness.
cluster-smoke:
	ATSERVE_SMOKE=1 $(GO) test -race ./cmd/atserve -run 'TestClusterSmoke' -count=1 -v

## atload-build: vet and short-test the benchmark driver. atload/ is its
## own module (replace atmatrix => ../), so `go build ./...` and `go test
## ./...` at the root never compile it; a change to a package it imports
## is only known to keep it working once this has run. Offline, < 10 s.
atload-build:
	cd atload && $(GO) vet ./... && $(GO) test -short ./...

## size: print the root module's non-test line count, the number ROADMAP
## aim 2 tracks: every tracked .go file except _test.go files, then every
## tracked assembly (.s) file, then their total; testdata/ and atload/ (a
## module of its own) are left out. The fourth line counts the non-test
## `go` statements in internal/ and cmd/atserve with DESIGN.md §8's grep;
## that section's table lists each with the leak-checked test that stops
## it. A report, not a gate.
size:
	@go=$$(git ls-files '*.go' | grep -v -e '_test\.go$$' -e 'testdata/' -e '^atload/' | xargs cat | wc -l); \
	asm=$$(git ls-files '*.s' | grep -v -e 'testdata/' -e '^atload/' | xargs -r cat | wc -l); \
	gos=$$(grep -rn 'go func\|^\s*go ' --include=*.go internal cmd/atserve | grep -v _test | wc -l); \
	echo "go $$go"; echo "asm $$asm"; echo "total $$((go + asm))"; echo "go-statements $$gos"
