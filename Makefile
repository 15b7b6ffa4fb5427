# CI entry points for the Servo reproduction. `make ci` is the gate the
# scenario harness and tier-1 tests run behind. Performance is gated
# elsewhere: the pipeline runs the end-to-end ledger (BENCHMARK.json +
# benchmark/) on parent/change pairs; allocation contracts are
# AllocsPerRun tests in tier-1.

GO ?= go

.PHONY: ci vet fmtcheck nofork nomap oneflip onestore testonly loc abpair build test race sim bench benchsmoke benchcheck benchtest clusterrace fuzzsmoke rtsmoke replaygate paritygate parity-update figuregate figure-update workersgate

ci: vet fmtcheck nofork nomap oneflip onestore testonly build benchcheck benchtest race clusterrace fuzzsmoke rtsmoke replaygate paritygate figuregate workersgate benchsmoke

vet:
	$(GO) vet ./...

# fmtcheck fails if any file needs gofmt.
fmtcheck:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt -l flagged:"; echo "$$out"; exit 1; fi

# nofork fails if tracked Go outside benchmark/ tests System.Cluster
# against nil: every System is a Cluster, so such a test is a fork onto a
# second assembly that no longer exists. The one form let through is the
# bare assertion `if sys.Cluster == nil {` in the assembly test file.
# (benchmark/ is frozen and keeps its nine always-true forks until
# ROADMAP item 1(a).)
nofork:
	@out="$$(git ls-files '*.go' | grep -v '^benchmark/' | xargs grep -nE 'Cluster(\(\))? [!=]= nil|Cluster(\(\))?; cl [!=]= nil' | \
		grep -vE '^internal/core/core_test\.go:[0-9]+:[[:space:]]*if sys\.Cluster == nil \{$$')"; \
	if [ -n "$$out" ]; then echo "nil-Cluster forks:"; echo "$$out"; exit 1; fi

# nomap fails if tracked non-test Go outside benchmark/ declares a Go map
# keyed by a chunk position, a chunk rect or a tile: per-chunk and
# per-tile state lives in world.ChunkMap, which hashes the key's two ints
# instead of running the generic 16-byte map hash. Two maps stay Go maps
# and are let through by field name: mve's halted (touched only when a
# chunk holding constructs unloads or reloads) and rstore's settled
# (keyed by a whole ChunkRect, which at a fixed radius is not a function
# of its Min).
nomap:
	@out="$$(git ls-files '*.go' | grep -v '^benchmark/' | grep -v '_test\.go$$' | xargs grep -nE 'map\[(world\.)?(ChunkPos|ChunkRect|TileID)\]' | \
		grep -vE '^(internal/mve/server\.go:[0-9]+:[[:space:]]*halted|internal/servo/rstore/rstore\.go:[0-9]+:[[:space:]]*settled):? ')"; \
	if [ -n "$$out" ]; then echo "Go maps keyed by ChunkPos/ChunkRect/TileID (use world.ChunkMap):"; echo "$$out"; exit 1; fi

# oneflip fails if tracked non-test Go changes the cluster's live
# ownership table in place: every change goes through
# Cluster.changeOwnership (or, for a failover, its flip half), which hands
# the change a copy to learn what each shard loses, flushes that, and only
# then applies the same change to a fresh copy that becomes the live
# table — so no call site can flip a tile without the flush.
oneflip:
	@out="$$(git ls-files '*.go' | grep -v '_test\.go$$' | xargs grep -nE '\.table\.(SetOwner|SetDead|Grow|Retire|Adopt)\(')"; \
	if [ -n "$$out" ]; then echo "ownership-table changes outside changeOwnership:"; echo "$$out"; exit 1; fi

# onestore fails if tracked non-test Go outside benchmark/ type-asserts a
# store to a part of the storage contract: mve.ChunkStore embeds
# BatchingChunkStore, SyncingChunkStore, AvatarObserver and PlayerStore,
# so every store has them and an assertion could only guard a fallback
# path that never runs. (CachingChunkStore is the one optional
# extension; benchmark/'s frozen decorator names the parts one by one.)
onestore:
	@out="$$(git ls-files '*.go' | grep -v '^benchmark/' | grep -v '_test\.go$$' | xargs grep -nE '\.\((mve\.)?(BatchingChunkStore|SyncingChunkStore|AvatarObserver|PlayerStore)\)')"; \
	if [ -n "$$out" ]; then echo "type assertions to a part of mve.ChunkStore:"; echo "$$out"; exit 1; fi

# testonly fails if product code exports what only tests reach, or keeps
# an unexported declaration that nothing reaches: TestNoTestOnlyExports
# (testonly_test.go) type-checks every package of the module, the non-test
# files of benchmark/ and each package's tests with go/types, and lists the
# exported identifiers no non-test file uses and the unexported ones no
# file uses at all, and the struct fields that are read but never set or
# set but never read (for an exported field only non-test files count);
# -v also prints the allow table's rows and their reasons. The test is
# part of tier-1 too; here it runs alone, early.
testonly:
	$(GO) test -count=1 -run '^TestNoTestOnlyExports$$' -v .

# loc prints the line counts a simplification PR reports in CHANGES.md:
# tracked non-test Go outside benchmark/ and testdata/ (fixtures the build
# never compiles), the scenario package's share of it, and then each
# package directory's share, sorted by directory so that two trees'
# outputs line up under diff.
LOC_FILES = git ls-files '*.go' | grep -v '_test\.go$$' | grep -vE '^benchmark/|(^|/)testdata/'
loc:
	@$(LOC_FILES) | xargs cat | wc -l | xargs echo "non-test Go lines outside benchmark/:"
	@git ls-files 'internal/scenario/*.go' | grep -v '_test\.go$$' | xargs cat | wc -l | xargs echo "non-test Go lines in internal/scenario:"
	@echo "non-test Go lines per package directory:"
	@$(LOC_FILES) | xargs wc -l | \
		awk '$$2 != "total" {d = $$2; if (!sub(/\/[^\/]*$$/, "", d)) d = "."; n[d] += $$1} END {for (d in n) printf "%7d  %s\n", n[d], d}' | sort -k2

# abpair runs PAIRS alternating parent/change pairs of one end-to-end
# benchmark WORKLOAD (scripts/abpair.sh): the parent is a clone of REV,
# the change is this working tree. It prints the per-pair
# cpu_ms_per_vsec and vsec_per_wallsec, their medians, the parent's IQR
# and the pairs the change won — the table a perf claim quotes in
# CHANGES.md. Example: make abpair WORKLOAD=cluster PAIRS=10
REV ?= HEAD~1
abpair:
	bash scripts/abpair.sh $(WORKLOAD) $(PAIRS) $(REV)

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The raised timeout covers the scenario package's bundled-scenario
# sweep, which is slow under the race detector.
race:
	$(GO) test -race -timeout 30m ./...

# clusterrace re-runs the control-plane packages under the race detector
# uncached: the rebalance/failover/visibility paths (and the scenario
# engine that drives them) juggle closures across the virtual clock and
# must stay data-race-free even as they grow; rtserve rides along because
# its sessions read ghost registries concurrently with the real-time
# loop; internal/sim joins the list because the lane-batched scheduler
# runs same-timestamp events on a worker pool and its commit-buffer
# ordering must hold under the race detector. -p 1 serialises the
# packages and the timeout is raised: the scenario package's full
# bundled sweep is slow under the race detector, and contention with the
# other raced packages would push it past the default 10m per-package
# budget.
clusterrace:
	$(GO) test -race -count=1 -p 1 -timeout 30m ./internal/sim/ ./internal/cluster/ ./internal/world/ ./internal/scenario/ ./internal/rtserve/

# fuzzsmoke runs every native Fuzz* target in the tree for FUZZTIME each:
# long enough to replay the checked-in seed corpus under coverage
# instrumentation and mutate it a few ten-thousand times, short enough for
# every CI run. -fuzzminimizetime is capped because minimising a
# multi-kilobyte chunk encoding at the default 60 s per new input would
# otherwise eat the whole budget. A crasher is written to the package's
# testdata/fuzz/ and fails the target; check it in with the fix.
FUZZTIME ?= 5s
fuzzsmoke:
	@$(GO) test -list '^Fuzz' ./... | awk '/^Fuzz/ {names = names " " $$1} /^ok/ {n = split(names, f, " "); for (i = 1; i <= n; i++) print $$2, f[i]; names = ""}' | \
	while read pkg name; do \
		echo "fuzz $$pkg $$name"; \
		$(GO) test -run '^$$' -fuzz "^$$name$$" -fuzztime $(FUZZTIME) -fuzzminimizetime 100x $$pkg || exit 1; \
	done

# rtsmoke drives the wall-clock product end to end from its own CLIs:
# servo-server on a free loopback port, four servo-bot clients for three
# seconds. It fails if either exits non-zero, if no state update or no
# chunk arrived, or if no move was timed to its visible effect; it prints the
# action→update latency the bots felt and does not gate on it (wall-clock
# numbers are the ledger's, see benchmark/).
rtsmoke:
	@set -e; dir="$$(mktemp -d)"; pid=; trap 'test -z "$$pid" || kill $$pid 2>/dev/null; rm -rf "$$dir"' EXIT; \
	$(GO) build -o "$$dir/servo-server" ./cmd/servo-server; \
	$(GO) build -o "$$dir/servo-bot" ./cmd/servo-bot; \
	"$$dir/servo-server" -addr 127.0.0.1:0 -world flat 2>"$$dir/server.log" & pid=$$!; \
	for i in $$(seq 50); do addr="$$(sed -n 's/.* on \(127\.0\.0\.1:[0-9]*\) .*/\1/p' "$$dir/server.log")"; test -n "$$addr" && break; sleep 0.1; done; \
	test -n "$$addr" || { echo "rtsmoke: servo-server did not start"; cat "$$dir/server.log"; exit 1; }; \
	"$$dir/servo-bot" -addr "$$addr" -n 4 -behavior star -speed 8 -duration 3s | tee "$$dir/bot.out"; \
	kill -INT $$pid; wait $$pid; pid=; grep 'shutting down' "$$dir/server.log"; \
	grep -Eq 'received [1-9][0-9]* state updates' "$$dir/bot.out" || { echo "rtsmoke: no state updates"; exit 1; }; \
	grep -Eq 'state updates, [1-9][0-9]* chunks' "$$dir/bot.out" || { echo "rtsmoke: no chunks"; exit 1; }; \
	grep -Eq 'ms \([1-9][0-9]*\)$$' "$$dir/bot.out" || { echo "rtsmoke: no move was timed"; exit 1; }

# replaygate runs every bundled scenario twice and fails on any report
# byte difference: the determinism contract, enforced over the whole
# suite rather than the sampled scenarios the unit tests replay
# (border-patrol is bundled, so its replay rides through here too).
replaygate:
	$(GO) run ./cmd/servo-sim replay all

# paritygate is the parent-parity gate. replaygate proves a build agrees
# with itself; this proves it agrees with the build that last pinned
# PARITY.sha256 (one SHA-256 per bundled scenario, over the same text +
# CSV rendering replaygate compares), and prints the names of the
# scenarios that do not. A perf or refactoring PR must leave the file
# alone; a PR that is *meant* to change a report re-pins it with
# parity-update and says why. The hashes are pinned on linux/amd64:
# report floats are formatted from float64 arithmetic that another
# architecture may fuse or round differently.
paritygate:
	$(GO) run ./cmd/servo-sim parity all

parity-update:
	$(GO) run ./cmd/servo-sim parity -update all

# figuregate is the parent-parity gate of the paper's figures. Their
# full-system cells run through the scenario engine and the cluster, but
# a figure's output is not a scenario report, so PARITY.sha256 does not
# cover them and they keep a pin of their own: FIGURES.sha256 pins one
# SHA-256 per `servo-bench -list`
# name, over the output of `servo-bench -exp <name>` at FIGURE_ARGS, and
# the gate prints the names of the experiments that no longer hash to
# their line. Same contract as paritygate: a perf or refactoring PR must
# leave the file alone; a PR that is *meant* to change a figure re-pins
# it with figure-update and says why. Pinned on linux/amd64.
FIGURE_ARGS = -seed 42 -scale 0.05
# figure_hashes prints one "<sha256>  <name>" line per experiment; the
# recipe around it owns the scratch directory $$dir.
define figure_hashes
$(GO) build -o "$$dir/servo-bench" ./cmd/servo-bench; \
for name in $$("$$dir/servo-bench" -list | awk '{print $$1}'); do \
	"$$dir/servo-bench" -exp $$name $(FIGURE_ARGS) > "$$dir/out"; \
	echo "$$(sha256sum < "$$dir/out" | cut -d' ' -f1)  $$name"; \
done
endef

figuregate:
	@set -e; dir="$$(mktemp -d)"; trap 'rm -rf "$$dir"' EXIT; \
	{ $(figure_hashes); } > "$$dir/now"; \
	n=0; differ=; while read hash name; do n=$$((n + 1)); \
		pinned="$$(awk -v name="$$name" '$$2 == name {print $$1}' FIGURES.sha256)"; \
		if [ -z "$$pinned" ]; then echo "figure NEW   $$name: no pinned hash"; differ="$$differ $$name"; \
		elif [ "$$pinned" != "$$hash" ]; then echo "figure DIFF  $$name: output hashes to $$hash, pinned $$pinned"; differ="$$differ $$name"; \
		else echo "figure ok    $$name"; fi; \
	done < "$$dir/now"; \
	if [ -n "$$differ" ]; then echo "experiment(s) differ from FIGURES.sha256:$$differ"; exit 1; fi; \
	echo "$$n experiment(s) match FIGURES.sha256"

figure-update:
	@set -e; dir="$$(mktemp -d)"; trap 'rm -rf "$$dir"' EXIT; \
	{ $(figure_hashes); } > "$$dir/now"; \
	{ grep '^#' FIGURES.sha256; cat "$$dir/now"; } > "$$dir/new"; \
	mv "$$dir/new" FIGURES.sha256; \
	echo "pinned $$(wc -l < "$$dir/now") experiment(s) in FIGURES.sha256"

# workersgate is the parallel-execution determinism gate: the bundled
# sharded scenarios must render byte-identical reports at -workers 0, 1
# and 4, and two one-shard scenarios at 0 and 4 (the lane-batched
# scheduler's pool-size-independence contract).
workersgate:
	$(GO) test -count=1 -run TestWorkersByteIdentity ./internal/scenario/

# sim executes every bundled scenario and fails on any assertion failure.
sim:
	$(GO) run ./cmd/servo-sim run all

# bench regenerates the paper's tables and figures at bench scale.
bench:
	$(GO) run ./cmd/servo-bench -exp all

# benchsmoke runs every benchmark exactly once in short mode: a fast
# compile-and-execute gate over the figure pipelines, not a measurement.
benchsmoke:
	$(GO) test -short -run '^$$' -bench . -benchtime 1x .

# benchcheck vets and builds the end-to-end benchmark. It is a module of
# its own (benchmark/go.mod, replaced onto this one), so `go build ./...`
# and `go vet ./...` above never see it and an API it calls could drift
# unnoticed.
benchcheck:
	cd benchmark && $(GO) vet . && $(GO) build -o /dev/null .

# benchtest runs the end-to-end benchmark's own tests (manifest <->
# program tables, a smoke run of all five workloads; ~15 s). The
# benchmark's files are frozen between benchmark-defining PRs, so a PR
# that deletes or reshapes an API it calls can break it in a way the
# build alone does not show.
benchtest:
	cd benchmark && $(GO) test .
