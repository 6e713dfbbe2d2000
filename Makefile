# Quality gates for the ShareBackup reproduction. `make check` is what CI
# runs: vet, build, full test suite, the race detector on the packages with
# real concurrency, then every command and example once. `make check-race`
# runs the whole suite under the race detector (slower; CI runs it as its
# own job).

GO ?= go

.PHONY: check check-race vet build test race smoke golden-full docs-budget soak-failover fuzz-smoke bench bench-e2e-smoke tools

check: vet build test race smoke golden-full docs-budget

check-race:
	$(GO) test -race ./...

# Nothing in the module is platform-specific (no build tag, no syscall
# import); vetting for darwin and building for windows keeps that compiled,
# not assumed. Both are stdlib-only cross-compiles and work offline.
vet:
	$(GO) vet ./...
	GOOS=darwin GOARCH=arm64 $(GO) vet ./...
	GOOS=windows $(GO) build ./...
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then \
		echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/ctlnet/... ./internal/ctlplane/... ./internal/obs/... ./internal/sweep/... ./internal/fluid/... ./internal/topo/... ./internal/routing/...
	# The side-by-side pass path's determinism proof, explicitly under the
	# race detector: passes of disjoint classes running beside the loop must
	# be bit-identical AND data-race-free; the storm golden replays the
	# ripple-heavy path at 1, 2
	# and 4 workers against its pinned finish-time hash, and the
	# class-parallel differential runs ten times.
	$(GO) test -race -run 'TestDifferentialParallelWorkers|TestStormFinishTimesGolden' ./internal/fluid/
	$(GO) test -race -count=10 -run 'TestDifferentialClassParallel' ./internal/fluid/
	# The path store carves its arenas under its mutex and serves them
	# lock-free: the concurrent build tests, ten times over.
	$(GO) test -race -count=10 -run 'TestPathStoreConcurrent|TestSelectConcurrentWithPaths' ./internal/topo/

# Every command and example at its smallest flags, in a scratch directory,
# so a main that builds but no longer runs fails CI. The recovery study's
# trace interleaves 64 trial buses, and sbtap -strict must read it without a
# gap or an unstitchable span. sbemu's control-plane emulation runs as a
# cluster of one (its one trace file must read strictly), then four more
# times: with the observability flags on the controller's bus (a
# recovery-complete line on stderr, or it fails), as three replicas with a
# leader kill (its trace must read strictly too), and with a flag its mode
# does not read, -src or -trace (it must exit non-zero naming it).
# Outputs are discarded; any other non-zero exit fails the target (a few
# seconds in total).
smoke:
	@tmp="$$(mktemp -d)" && trap 'rm -rf "$$tmp"' EXIT && set -ex && \
	$(GO) build -o "$$tmp/" ./cmd/... ./examples/... && cd "$$tmp" && \
	./sbexperiments -run all -k 4 > experiments.out && \
	./sbexperiments -run recovery -k 4 -trace rec.jsonl > rec.out && ./sbtap -strict rec.jsonl > rec-tap.out && \
	./sbemu -fail-path -trace emu.jsonl > emu.out && ./sbtap emu.jsonl > tap.out && \
	./sbemu -ctlnet -trace-dir traces > ctlnet.out && ./sbtap -strict traces/trace.jsonl > stitch.out && \
	./sbemu -ctlnet -trace-dir obs-traces -events -slo-budget 1ns > obs.out 2> obs.err && \
	grep -q recovery-complete obs.err && \
	./sbemu -ctlnet -cluster 3 -trace-dir cluster-traces > cluster.out && ./sbtap -strict cluster-traces/trace.jsonl > cluster-stitch.out && \
	! ./sbemu -ctlnet -src 1/0/0 2> unused.err && grep -q -- -src unused.err && \
	! ./sbemu -ctlnet -trace x.jsonl 2> trace-flag.err && grep -q -- -trace trace-flag.err && \
	./sbtrace -gen -racks 16 -coflows 20 -duration 60 > trace.txt && ./sbtrace -inspect trace.txt > inspect.out && \
	./sbwire -verify > wire.out && \
	for ex in coflowstudy diagnosis livefailover nonuniform quickstart; do ./$$ex > $$ex.out; done

# The paper-scale output, byte for byte: `sbexperiments -run all -full` (about
# 18 s, so it stays out of `go test`) against its golden, recorded on amd64
# like testdata/experiments.golden. The k=16 Fig. 1c study in it is where
# fallback components and closed fills run most. Rewrite it only when a result
# is meant to change: go run ./cmd/sbexperiments -run all -full >
# cmd/sbexperiments/testdata/experiments-full.golden
golden-full:
	@tmp="$$(mktemp -d)" && trap 'rm -rf "$$tmp"' EXIT && set -e && \
	$(GO) build -o "$$tmp/" ./cmd/sbexperiments && \
	"$$tmp/sbexperiments" -run all -full > "$$tmp/full.out" && \
	diff -u cmd/sbexperiments/testdata/experiments-full.golden "$$tmp/full.out"

# The docs only shrink: DESIGN.md, EXPERIMENTS.md, CHANGES.md and ROADMAP.md
# may not grow past these sizes in bytes (theirs when last lowered), so a new
# paragraph or CHANGES.md entry is paid for with deletions. Lower a budget when
# a file shrinks; never raise one.
docs-budget:
	@fail=0; for budget in DESIGN.md:82671 EXPERIMENTS.md:86995 CHANGES.md:45115 ROADMAP.md:44266; do \
		f="$${budget%%:*}"; max="$${budget##*:}"; size=$$(wc -c < "$$f"); \
		if [ "$$size" -gt "$$max" ]; then echo "$$f is $$size bytes, over its $$max-byte budget"; fail=1; fi; \
	done; exit $$fail

# Leader-failover soak: the kill-the-leader (mid-storm in the cluster
# emulation), quorum-loss and rebootstrap drills, the bootstrap-election,
# vote-retry, directory-hold and paused-peer transport tests, and the
# election-safety fuzz, repeated under the race detector. A fresh cluster's
# first election is deterministic (the lowest ID campaigns as its node
# starts), but every failover election waits a randomized timeout, so
# repetition is the point — one pass only samples one draw.
soak-failover:
	$(GO) test -race -count 8 -run 'TestCluster|TestElectionSafety|TestLiveCluster|TestRebootstrap|TestBootstrap|TestCandidate|TestDirectoryHolds|TestTransport' ./internal/ctlnet/... ./internal/ctlplane/...

# Ten seconds of coverage-guided fuzzing per target, on top of the committed
# corpora under testdata/fuzz (which plain `go test` and each -fuzz run
# replay first; FuzzRaftStep's include a vote round dropped, then resent and
# duplicated): the consensus wire (every Raft message anyone can send the
# listener), the replicated command and its decoder, the control-plane wire
# (every frame and payload decoder of the one message table), the server's
# frame dispatcher (a hello with a negative switch ID once panicked it), a
# replica restoring a snapshot, the JSONL trace reader, the coflow trace
# parser, the coflow generator and Partition (a NaN or tiny window once
# panicked), and every input the fluid simulator takes (raw IDs, floats and
# link IDs; its corpus holds a NaN arrival, Run(+Inf) and a link outside the
# fabric, each of which once hung or crashed Run). Standard library only; runs offline.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzRaftStep$$' -fuzztime 10s ./internal/ctlplane/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeCommand$$' -fuzztime 10s ./internal/ctlplane/
	$(GO) test -run '^$$' -fuzz '^FuzzWireDecode$$' -fuzztime 10s ./internal/ctlnet/
	$(GO) test -run '^$$' -fuzz '^FuzzHandleFrame$$' -fuzztime 10s ./internal/ctlnet/
	$(GO) test -run '^$$' -fuzz '^FuzzRestoreState$$' -fuzztime 10s ./internal/ctlnet/
	$(GO) test -run '^$$' -fuzz '^FuzzReadJSONL$$' -fuzztime 10s ./internal/obs/
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s ./internal/coflow/
	$(GO) test -run '^$$' -fuzz '^FuzzGenerate$$' -fuzztime 10s ./internal/coflow/
	$(GO) test -run '^$$' -fuzz '^FuzzSimulatorInputs$$' -fuzztime 10s ./internal/fluid/

# Recovery-path microbenchmarks; instrumentation must stay free when no
# event sink is attached, so watch these against the seed numbers.
# BenchmarkFig1cStudy (one pinned sim-fig1c study at 1x) is the data plane's
# profile target: go test -run '^$$' -bench Fig1cStudy -benchtime 40x -cpuprofile cpu.out .
# BenchmarkStormWaves (sim-storm's storm: k=32, 40960 flows, 8 waves x 512
# reroutes; ns/wave, and with -benchmem the bytes one replay allocates) is the
# ripple pass's:
# go test -run '^$$' -bench StormWaves -benchtime 3x -benchmem -cpuprofile cpu.out ./internal/fluid
# BenchmarkPathStoreStormSchedule (sim-storm's set-up: the k=32 fabric plus its
# 40 960 first lookups; bytes and allocs per build) and BenchmarkPathStoreWarm
# (Paths and Select over 4 096 interned pod-local pairs) are the path store's:
# go test -run '^$$' -bench 'PathStore' -benchmem ./internal/topo
# `make bench` runs the root benchmarks and both profile targets once each; it
# names them rather than `-bench .`, since the forced-full storm benchmarks
# take minutes.
bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .
	$(GO) test -bench PathStore -benchtime 1x -benchmem -run '^$$' ./internal/topo
	$(GO) test -bench StormWaves -benchtime 1x -benchmem -run '^$$' ./internal/fluid

# The end-to-end benchmark is its own module (benchmarks/go.mod), invisible
# to the root `go vet ./...` and `go test ./...`: vet and test it, then run
# both simulator workloads for two seconds each and both live workloads for
# three (live-storm: 64 simultaneous failures per storm). A run exits
# non-zero on any output-check violation: a golden-fingerprint mismatch on
# the simulators; a failed, lost, false or duplicate recovery on the live
# cluster (no latency is asserted).
bench-e2e-smoke:
	cd benchmarks && $(GO) vet ./... && $(GO) test ./...
	bash benchmarks/run.sh --workload sim-fig1c --seed 1 --seconds 2 --trace 0
	bash benchmarks/run.sh --workload sim-storm --seed 1 --seconds 2 --trace 0
	bash benchmarks/run.sh --workload live-node --seed 1 --seconds 3 --trace 0
	bash benchmarks/run.sh --workload live-storm --seed 1 --seconds 3 --trace 0

tools:
	$(GO) build ./cmd/...
