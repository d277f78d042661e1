GO ?= go

.PHONY: tier1 build vet test race loc traffic bench microbench chaos soak serve crash govern scenarios endurance cache lint

# tier1 is the gate every change must pass: gofmt-clean sources, clean
# build, vet, and the full test suite under the race detector.
tier1:
	@out=$$(gofmt -l cmd internal miso bench examples); \
		if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) test -race ./...

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# loc prints the non-test Go lines of every package (and the total): the
# number a simplicity PR's before/after claim, and the ROADMAP's running
# "net non-test lines removed" tally, are read from.
loc:
	@for d in $$(find cmd internal miso -name '*.go' ! -name '*_test.go' -exec dirname {} \; | sort -u); do \
		printf '%6d %s\n' $$(find $$d -maxdepth 1 -name '*.go' ! -name '*_test.go' | xargs cat | wc -l) $$d; \
	done
	@printf '%6d total\n' $$(find cmd internal miso -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)

# traffic reports what the programs we ship actually execute: the two CLIs
# and the end-to-end benchmark are built with coverage counters on every
# miso package, run over the paper's figures, every extension mode (the
# tuner ablations among them), one warmed query with reuse, checkpoints
# and the audit on and its plan printed (-explain),
# and all five benchmark workloads (traced and untraced), and the merged
# counters are printed as the functions never entered and the unreached
# statements per file. It is the measurement a simplicity PR's "no traffic" claim is read
# from; it is a report, not a gate (a mode that fails its checks under the
# slower instrumented build still counts). miso/bench/ lines are dropped
# because `go tool cover` cannot resolve that module from the root.
traffic:
	@d=$$(mktemp -d) && trap 'rm -rf "$$d"' EXIT && mkdir "$$d/cov" && \
	$(GO) build -cover -coverpkg=miso/... -o "$$d/misobench" ./cmd/misobench && \
	$(GO) build -cover -coverpkg=miso/... -o "$$d/misoquery" ./cmd/misoquery && \
	$(GO) build -C bench -cover -coverpkg=miso/... -o "$$d/bench" . && \
	{ export GOCOVERDIR="$$d/cov"; \
	  "$$d/misobench" -all -scale small; \
	  "$$d/misobench" -mode ablate,chaos,crash,benchgov,serve,scenarios,cache,endurance -scale small; \
	  "$$d/misoquery" -name A3v2 -warm -reuse -checkpointevery 4 -audit -explain; \
	  "$$d/bench" -quick -trace both -tracedir "$$d/trace"; } >"$$d/run.log" 2>&1; \
	$(GO) tool covdata textfmt -i="$$d/cov" -o "$$d/all.txt" && \
	grep -v '^miso/bench/' "$$d/all.txt" >"$$d/cover.txt" && \
	echo "functions the traffic never enters:" && \
	$(GO) tool cover -func="$$d/cover.txt" | awk '$$NF == "0.0%" { print "  " $$1, $$2 }' && \
	echo "unreached statements per file (unreached / total):" && \
	awk 'NR > 1 { f = $$1; sub(/:.*/, "", f); tot[f] += $$2; if (!$$3) miss[f] += $$2 } \
	     END { for (f in miss) printf "%6d / %-6d %s\n", miss[f], tot[f], f }' "$$d/cover.txt" | sort -k1,1nr -k4

# bench runs the package micro-benchmarks (the tuner's reorganization
# decision, the knapsack DP, plan choice, view matching, the exec operators)
# and the governance pipeline, which writes the machine-readable report CI
# uploads as an artifact. The end-to-end benchmark, served soak included, is
# its own module: bash bench/run.sh.
bench: microbench
	$(GO) run ./cmd/misobench -mode benchgov -scale small -out .

# microbench runs every package micro-benchmark once (view matching, plan
# choice on a warm design and a kept plan space's re-cost after a DW view
# swap (BenchmarkRecostWarm), the knapsack DP, the exec operators, DW's plans
# over small views (BenchmarkSmallViewPlan), an HV job's map side, a whole
# HV query, an append that maintains the views over its log, and one and two
# sessions querying one warm system (BenchmarkServedTwoSessions/sessions=1
# and /sessions=2: their p95 and q-per-s, whose ratio is the two-session
# scaleup))
# and, with them, the allocation guards (TestSmallViewPlanAllocs,
# TestReadPhaseHitAllocs, TestPlanSpaceRecostAllocs and TestFreshChooseAllocs
# among them),
# which tier1's race build has to skip. internal/core runs at -cpu 1,2: the
# tuner sizes its what-if pool from GOMAXPROCS, so that records the serial
# and the fanned-out reorganization, each checked against the golden. CI
# runs it so that a benchmark that stops compiling, a guard that regresses
# or a design that diverges fails the change.
microbench:
	$(GO) test -bench . -benchtime 1x -run Alloc ./internal/multistore/ ./internal/views/ ./internal/optimizer/ ./internal/exec/ ./internal/hv/
	$(GO) test -bench . -benchtime 1x -run Alloc -cpu 1,2 ./internal/core/

chaos:
	$(GO) run ./cmd/misobench -mode chaos -scale small

soak:
	$(GO) test -race -run 'TestServeSoak' -count 1 -v ./internal/serve/

serve:
	$(GO) run ./cmd/misobench -mode serve -scale small

crash:
	$(GO) run ./cmd/misobench -mode crash -scale small

govern:
	$(GO) run ./cmd/misobench -mode benchgov -scale small

# endurance runs the long-horizon adversarial endurance harness:
# closed-loop tenants with think time, bit-rot injection (SiteViewRot),
# and the self-healing background scrubber; fails unless every acceptance
# check holds. Add -out <dir> to write BENCH_endurance.json (the same for
# scenarios and cache below); without it nothing is written. The reports
# are CI artifacts: none is committed, and .gitignore keeps `-out .` clean.
endurance:
	$(GO) run ./cmd/misobench -mode endurance -scale small

# scenarios runs the multi-tenant overload scenario matrix (flash crowd,
# Zipf skew, diurnal shift, drift burst, ETL storm, DW brownout) and
# fails if any scenario misses its acceptance checks.
scenarios:
	$(GO) run ./cmd/misobench -mode scenarios -scale small

# cache runs the cross-query reuse soak (result views vs cold
# execution) and fails unless reuse wins >= 2x throughput, each distinct
# statement executes once with every repeat a hit, and answers are
# digest-identical.
cache:
	$(GO) run ./cmd/misobench -mode cache -scale small

# lint runs the static analyzers when they are installed; it skips them
# with a note otherwise so offline checkouts still build.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; else echo "staticcheck not installed; skipping"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; else echo "govulncheck not installed; skipping"; fi
