GO ?= go

.PHONY: build test test-purego race bench bench-compare bench-pairs lint fmt-check fuzz-smoke fuzz-long chaos loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The pure-Go kernels are the only path off amd64, on a CPU without AVX2 and
# for 31-bit moduli, and the reference the assembly is held to; on the amd64
# runners they would otherwise never execute. -tags purego compiles the
# assembly out, so this leg runs every package from the kernels up to the
# evaluators, the simulator, its scheduler, the differential harness, the
# engine that builds every worker's co-processors and the chaos schedules
# that fault them on them, and the figure gate, which holds BENCH_sim.json
# identical on this path; and the wire's frame checksum against hash/crc32,
# which is the whole checksum there: the lane's tests, the mux session's, and
# the two that hold a relay to forwarding every payload under the checksum
# its sender wrote; and the residue range check, which runs on the word
# kernels: the frame fuzzers' seeds, framing that reads no residue, and the
# router's checks of what it forwards and relays. CI's test job calls it.
test-purego:
	$(GO) test -tags purego ./internal/ring ./internal/poly ./internal/rns ./internal/rlwe ./internal/fv ./internal/ckks ./internal/hwsim ./internal/sched ./internal/difftest ./internal/engine ./internal/faults ./internal/hebench
	$(GO) test -tags purego -run 'Checksum|TestMux|TestRouterMemoryFlip|FuzzFrame|TestFramingReadsNoResidue' ./internal/cloud
	$(GO) test -tags purego -run 'TestRouterRelaysPayloadAndChecksum|TestRouterStillRangeChecksRequests|TestRouterFailsOverWithTheSameBytes' ./internal/cluster

race:
	$(GO) test -race ./...

# The repo's benchmark (BENCHMARK.json): each listed workload through the
# real serving stack for the declared run length, every response compared bit
# for bit with the software evaluator (exit 1 on any mismatch). Runs append
# to BENCH_run.json, gitignored scratch output. The exact simulated-clock
# figures (BENCH_sim.json, gated by go test ./internal/hebench) and the
# 0 allocs/op walls are tier-1 tests, not part of this target.
bench:
	for w in mul_paper add_routed ckks_chain; do \
		$(GO) run ./bench -workload $$w -out BENCH_run.json || exit 1; \
	done

# Judge one result file against another, metric by metric and workload by
# workload (ok / worse / unresolved): make bench-compare BASE=a.json CUR=b.json
bench-compare:
	$(GO) run ./bench -compare $(BASE) $(CUR)

# N alternating pairs of one workload, the revision BASE against the working
# tree, ending in -compare's verdict — the way bench/README says a change is
# measured ("compare against runs of the parent made alongside, in turns"):
#   make bench-pairs BASE=HEAD~1 W=mul_paper N=10
# BASE's tree is exported with git archive into a scratch directory (no
# checkout, no worktree metadata) and both benchmarks are built once; which
# side goes first alternates from pair to pair. -compare
# judges all five workloads and calls the ones not run "missing", so the
# target prints, and fails on, W's row alone. The two result files stay in
# BENCH_pairs/ (gitignored).
N ?= 10
bench-pairs:
	@test -n "$(BASE)" -a -n "$(W)" || { echo "usage: make bench-pairs BASE=<rev> W=<workload> [N=10]"; exit 2; }
	rm -rf BENCH_pairs && mkdir -p BENCH_pairs/base
	git archive $(BASE) | tar -x -C BENCH_pairs/base
	cd BENCH_pairs/base && $(GO) build -o ../bench-base ./bench
	rm -rf BENCH_pairs/base
	$(GO) build -o BENCH_pairs/bench-cur ./bench
	for i in $$(seq 1 $(N)); do \
		if [ $$((i % 2)) -eq 1 ]; then order="base cur"; else order="cur base"; fi; \
		for side in $$order; do \
			BENCH_pairs/bench-$$side -workload $(W) -out BENCH_pairs/$$side.json || exit 1; \
		done; \
	done
	$(GO) run ./bench -compare BENCH_pairs/base.json BENCH_pairs/cur.json | grep -E '^(compare|$(W)) ' | tee BENCH_pairs/verdict.txt
	@! grep -qE '=(worse|differs|missing)' BENCH_pairs/verdict.txt

lint:
	golangci-lint run ./...

# gofmt -l must print nothing; CI's test job runs this.
fmt-check:
	@out=$$(gofmt -l .); test -z "$$out" || { echo "gofmt -l is not empty:"; echo "$$out"; exit 1; }

# The fuzz targets, listed once as package:target:smoke-count — the
# differential fv<->hwsim targets (the reused-memory-file one included), the
# host kernels against their scalar references (FuzzKernels), the one
# ciphertext codec under both header layouts (FuzzCodec), the hardened
# wire-protocol decoders and their equivalence to the pre-split reference
# decoders (FuzzFrame*), the compiled-program codec, the BFV ciphertext and
# key readers (an accepted evaluation key must be usable, FuzzDecodeFVKeys),
# the CKKS key container and encoder, the RNS decryption rounding against
# exact rounding (FuzzMessageScaler), the HPS Lift and Scale kernels against
# their exact oracles at q and p widths up to 24 primes (FuzzLiftScale), and
# the assembler against its own listing (FuzzAssemble), and the mux frame
# checksum's vector lane against hash/crc32 (FuzzMuxChecksum).
FUZZ_TARGETS = \
	difftest:FuzzDiffTransform:5x \
	difftest:FuzzDiffPointwise:5x \
	difftest:FuzzDiffMulRelin:5x \
	difftest:FuzzDiffCKKSMulRescale:5x \
	difftest:FuzzDiffReusedCoprocessor:5x \
	poly:FuzzKernels:20x \
	rlwe:FuzzCodec:20x \
	cloud:FuzzDecodeRequest:20x \
	cloud:FuzzDecodeResponse:20x \
	cloud:FuzzDecodeMuxFrame:20x \
	cloud:FuzzFrameRequest:20x \
	cloud:FuzzFrameReply:20x \
	cloud:FuzzMuxChecksum:20x \
	program:FuzzDecodeProgram:20x \
	fv:FuzzReadCiphertext:20x \
	fv:FuzzReadKeyHeader:20x \
	fv:FuzzDecodeFVKeys:20x \
	ckks:FuzzDecodeCKKSKeys:20x \
	ckks:FuzzEncoderRoundTrip:20x \
	rns:FuzzMessageScaler:20x \
	rns:FuzzLiftScale:20x \
	hwsim:FuzzAssemble:20x

# $(call fuzz,T) runs every target for -fuzztime=T, or for its own smoke
# count when T is empty. Each new interesting input is minimized for at most
# ten executions: Go's default is 60 s, during which a worker finds nothing.
define fuzz
	@set -e; for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; t=$${t#*:}; fn=$${t%%:*}; smoke=$${t#*:}; \
		echo "== $$pkg $$fn"; \
		$(GO) test -run=NONE -fuzz=$$fn -fuzztime=$(or $(1),$$smoke) -fuzzminimizetime=10x ./internal/$$pkg; \
	done
endef

# A few iterations per target: enough to catch a harness or seed-corpus
# break. CI's fuzz-smoke job runs this.
fuzz-smoke:
	$(call fuzz)

# Open-ended search, FUZZTIME per target (about a quarter of an hour at the
# default). An input that fails lands in the package's testdata/fuzz; commit
# it with the fix.
FUZZTIME ?= 60s
fuzz-long:
	$(call fuzz,$(FUZZTIME))

# The chaos suite: pinned-seed randomized fault schedules (BRAM flips, DMA
# garbles, RPAU kills/stalls, limb corruption — including during the CKKS
# Rescale — and dropped, garbled and bit-flipped wire frames) through real
# encrypt -> evaluate -> decrypt workloads, under the race detector. Pinned
# seeds make a failure replayable. A bit flipped in a relay's memory, between
# its verify and its forward, rides along.
chaos:
	$(GO) test -race -count=1 -run 'TestChaos' ./internal/faults
	$(GO) test -race -count=1 -run 'TestRouterMemoryFlip' ./internal/cloud

# Lines of non-test Go outside bench/ (the benchmark's own code is not the
# system being measured) — the size figure CHANGES.md quotes for simplicity
# PRs. Counts every line, comments included, so a PR that claims a reduction
# must say how much of it is code. The assembly kernels are counted beside it,
# and the packages simplicity PRs work in are broken out so the figure shows
# where a change took its lines from. The bench-only API (DESIGN §4l) is
# broken out too: the lines ROADMAP item 1(a) deletes.
loc:
	@printf '%6d  non-test Go outside bench/\n' $$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs cat | wc -l)
	@printf '%6d  Go assembly (not in the figure above)\n' $$(find . -name '*.s' ! -path './bench/*' | xargs cat | wc -l)
	@printf '%6d  bench-only API, internal/*/bench_api.go (in the figure above)\n' $$(cat internal/*/bench_api.go | wc -l)
	@for p in sched core engine cloud cluster fv ckks rlwe keyio hwsim rns difftest hebench sampler; do \
		printf '%6d  internal/%s\n' $$(find internal/$$p -name '*.go' ! -name '*_test.go' | xargs cat | wc -l) $$p; \
	done
