GO ?= go
FUZZTIME ?= 10s

.PHONY: all build vet fmt-check test bench-smoke bench-repo race bench bench-store bench-coldstart bench-serve bench-join bench-topk bench-shard bench-update bench-compact bench-json snapshot-smoke shard-smoke live-smoke wal-smoke fuzz clean

all: vet fmt-check build test bench-smoke

build:
	$(GO) build ./...

# go vet runs its full default analyzer suite over every package
# including _test.go files, so the package examples (among them the
# iter.Seq2 cursor example, ExampleResults_Rows) are part of the gate:
# iterator/range-func misuse that vet or the compiler can see fails CI.
vet:
	$(GO) vet ./...

# Fail fast on formatting drift.
fmt-check:
	@files=$$(gofmt -l .); if [ -n "$$files" ]; then \
		echo "gofmt needed on:"; echo "$$files"; exit 1; fi

test:
	$(GO) test ./...

# The repository benchmark (benchmark/, driven by BENCHMARK.json) is a Go
# module of its own that compiles against this module's internal API
# through a replace directive, so `./...` above never sees it: vet it and
# run its tiny-scale workload smoke whenever that API may have moved.
bench-smoke:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# One workload of the repository benchmark, run the way the gate runs it
# (bash benchmark/run.sh builds it from this checkout into .bench_build/):
#   make bench-repo WORKLOAD=hot_templates SECONDS=20 SEED=1
# TRACE=1 adds the per-layer metrics and writes the span file.
WORKLOAD ?= hot_templates
SECONDS ?= 20
SEED ?= 1
TRACE ?= 0
bench-repo:
	bash benchmark/run.sh --workload $(WORKLOAD) --seed $(SEED) --seconds $(SECONDS) --trace $(TRACE)

race:
	$(GO) test -race -timeout 30m ./...

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# Store microbenchmarks: bulk load+freeze and point-lookup paths. CI runs
# this with -benchtime=1x as a smoke test; use -benchtime=5s locally for
# real numbers.
BENCHTIME ?= 1x
bench-store:
	$(GO) test ./internal/bench -run '^$$' -bench 'LoadFreeze|Store' -benchtime $(BENCHTIME)

# Cold-start comparison: snapshot open+mmap vs N-Triples parse+freeze
# on LUBM-13 (the snapshot subsystem's headline number).
bench-coldstart:
	$(GO) test ./internal/bench -run '^$$' -bench 'ColdStart' -benchtime $(BENCHTIME)

# Serving-path comparison on the LUBM-13 repeated-template workload:
# one-shot Query (parse+build+estimate per call) vs prepared execution,
# and HTTP QPS with cold parsing vs a memoized response vs a warm plan
# whose answer is too large to memoize vs the direct prepared API (all
# four BenchmarkServeHTTP cases). CI runs this with -benchtime=1x as a
# smoke test; use -benchtime=2s locally for real numbers (recorded in
# the README's "Serving at scale" section).
bench-serve:
	$(GO) test . -run '^$$' -bench 'QueryOneShot|PreparedExec|ServeHTTP' -benchtime $(BENCHTIME)

# Join micro-benchmarks: the order-aware merge join vs the hash
# fallback vs sort+merge on order-compatible operands, plus the arena
# Distinct. allocs/op is the headline column (merge touches only the
# output arena). CI runs this with -benchtime=1x as a smoke test; use
# -benchtime=2s locally for real numbers.
bench-join:
	$(GO) test ./internal/algebra -run '^$$' -bench 'Join|Distinct' -benchmem -benchtime $(BENCHTIME)

# Top-k / LIMIT push-down micro-family: full stable sort vs bounded-heap
# top-k, the output-capped streaming merge join, and the LUBM merge-join
# query with and without a 20-row window. The -run pattern also executes
# TestLimitPushdownRowsPulled, which asserts the >= 10x rows-pulled
# reduction the early-termination path exists to deliver. CI runs this
# with -benchtime=1x as a smoke test; use -benchtime=2s locally.
bench-topk:
	$(GO) test ./internal/bench -run 'LimitPushdown' -bench 'TopK' -benchmem -benchtime $(BENCHTIME)

# Shard scaling on the Fig10 workload: the same queries through a
# single store and through 2- and 4-way sharded stores with parallel
# scatter-gather. CI runs this with -benchtime=1x as a smoke test; use
# -benchtime=2s locally for real numbers.
bench-shard:
	$(GO) test ./internal/bench -run '^$$' -bench 'ShardScaling' -benchtime $(BENCHTIME)

# Live-update benchmarks: acknowledged write path (single and batched),
# compaction fold time, and query latency while a writer streams and the
# background compactor runs. The LiveWAL family adds the journaled write
# path under every sync policy plus recovery-replay speed (the
# wal_durability table in BENCH_<n>.json). CI runs this with
# -benchtime=1x as a smoke test; use -benchtime=2s locally for real
# numbers.
bench-update:
	$(GO) test ./internal/bench -run '^$$' -bench 'Live' -benchtime $(BENCHTIME)

# Compaction fold comparison: the pre-fold full re-sort rebuild vs the
# linear merge fold (store.MergeFold) over the same base and delta.
# The compaction_fold table in BENCH_<n>.json extends this across
# several base:delta ratios with byte-identity cross-checking. CI runs
# this with -benchtime=1x as a smoke test; use -benchtime=2s locally
# for real numbers.
bench-compact:
	$(GO) test ./internal/bench -run '^$$' -bench 'CompactionFold' -benchtime $(BENCHTIME)

# Machine-readable bench table: join micro-benchmarks + the Fig10 query
# workload as JSON, committed per PR (BENCH_<n>.json) so the perf
# trajectory is diffable across history. The PR number defaults to the
# CHANGES.md line count (one line per PR — append yours first). CI
# emits to a scratch path with one repetition as a smoke test.
BENCHJSON_OUT ?= BENCH_$(shell wc -l < CHANGES.md | tr -d ' ').json
BENCHJSON_REPS ?= 3
bench-json:
	$(GO) run ./cmd/benchjson -reps $(BENCHJSON_REPS) -out $(BENCHJSON_OUT)

# End-to-end snapshot smoke: generate one dataset in both
# representations (N-Triples and snapshot image), run the same UO query
# against each through sparql-uo's magic auto-detection, and require
# byte-identical solutions. The timing line (line 2) is stripped before
# comparing.
snapshot-smoke:
	@set -e; tmp=$$(mktemp -d); \
	q='PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#> SELECT * WHERE { { ?x ub:advisor ?y . } UNION { ?x ub:headOf ?y . } OPTIONAL { ?y ub:name ?n } }'; \
	$(GO) run ./cmd/datagen -dataset lubm -scale 2 -out $$tmp/g.nt -snapshot $$tmp/g.img; \
	$(GO) run ./cmd/sparql-uo -data $$tmp/g.nt -q "$$q" -limit 0 | tail -n +3 > $$tmp/parsed.out; \
	$(GO) run ./cmd/sparql-uo -data $$tmp/g.img -q "$$q" -limit 0 | tail -n +3 > $$tmp/snap.out; \
	if ! cmp -s $$tmp/parsed.out $$tmp/snap.out; then \
		echo "snapshot-smoke: snapshot results differ from parsed store:"; \
		diff $$tmp/parsed.out $$tmp/snap.out | head -20; rm -rf $$tmp; exit 1; fi; \
	if ! test -s $$tmp/parsed.out; then \
		echo "snapshot-smoke: query returned no solutions"; rm -rf $$tmp; exit 1; fi; \
	echo "snapshot-smoke: $$(wc -l < $$tmp/parsed.out | tr -d ' ') identical solutions from image and N-Triples"; \
	rm -rf $$tmp

# End-to-end sharding smoke: write the same dataset as one snapshot
# image and as a 3-way shard set, run the same query against both
# through sparql-uo's magic auto-detection, and require byte-identical
# solutions — the determinism guarantee, exercised through the CLI.
shard-smoke:
	@set -e; tmp=$$(mktemp -d); \
	q='PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#> SELECT * WHERE { { ?x ub:advisor ?y . } UNION { ?x ub:headOf ?y . } OPTIONAL { ?y ub:name ?n } }'; \
	$(GO) run ./cmd/datagen -dataset lubm -scale 2 -snapshot $$tmp/g.img; \
	$(GO) run ./cmd/datagen -dataset lubm -scale 2 -snapshot $$tmp/g.shards -shards 3; \
	$(GO) run ./cmd/sparql-uo -data $$tmp/g.img -q "$$q" -limit 0 | tail -n +3 > $$tmp/single.out; \
	$(GO) run ./cmd/sparql-uo -data $$tmp/g.shards -q "$$q" -limit 0 | tail -n +3 > $$tmp/sharded.out; \
	if ! cmp -s $$tmp/single.out $$tmp/sharded.out; then \
		echo "shard-smoke: sharded results differ from single store:"; \
		diff $$tmp/single.out $$tmp/sharded.out | head -20; rm -rf $$tmp; exit 1; fi; \
	if ! test -s $$tmp/single.out; then \
		echo "shard-smoke: query returned no solutions"; rm -rf $$tmp; exit 1; fi; \
	echo "shard-smoke: $$(wc -l < $$tmp/single.out | tr -d ' ') identical solutions from sharded and single stores"; \
	rm -rf $$tmp

# End-to-end live smoke: serve a generated base with -live, apply an
# insert and a delete over HTTP with a forced compaction in between, and
# require query results to track every mutation. The compacted snapshot
# image must exist and be non-empty afterwards — the full ingest →
# compact → persist → serve loop, exercised through the real server
# binary and curl.
live-smoke:
	@set -e; tmp=$$(mktemp -d); addr=127.0.0.1:18475; \
	$(GO) run ./cmd/datagen -dataset lubm -scale 1 -out $$tmp/g.nt; \
	$(GO) build -o $$tmp/server ./cmd/sparql-server; \
	$$tmp/server -data $$tmp/g.nt -addr $$addr -live -compact-snapshot $$tmp/live.img >$$tmp/server.log 2>&1 & pid=$$!; \
	trap "kill $$pid 2>/dev/null; rm -rf $$tmp" EXIT; \
	ok=; for i in $$(seq 1 50); do \
		if curl -sf http://$$addr/healthz >/dev/null 2>&1; then ok=1; break; fi; sleep 0.2; done; \
	if [ -z "$$ok" ]; then echo "live-smoke: server did not become ready"; cat $$tmp/server.log; exit 1; fi; \
	query() { curl -sf -G --data-urlencode 'query=SELECT * WHERE { <http://smoke/s> <http://smoke/p> ?o }' http://$$addr/sparql; }; \
	if query | grep -q 'http://smoke/o'; then echo "live-smoke: triple present before insert"; exit 1; fi; \
	printf '<http://smoke/s> <http://smoke/p> <http://smoke/o> .\n' | \
		curl -sf -X POST --data-binary @- "http://$$addr/update?op=insert" | grep -q '"applied":1' || \
		{ echo "live-smoke: insert failed"; exit 1; }; \
	query | grep -q 'http://smoke/o' || { echo "live-smoke: inserted triple not visible"; exit 1; }; \
	curl -sf -X POST http://$$addr/compact | grep -q '"merged"' || { echo "live-smoke: compact failed"; exit 1; }; \
	test -s $$tmp/live.img || { echo "live-smoke: no snapshot image after compaction"; exit 1; }; \
	query | grep -q 'http://smoke/o' || { echo "live-smoke: triple lost by compaction"; exit 1; }; \
	printf '<http://smoke/s> <http://smoke/p> <http://smoke/o> .\n' | \
		curl -sf -X POST --data-binary @- "http://$$addr/update?op=delete" | grep -q '"applied":1' || \
		{ echo "live-smoke: delete failed"; exit 1; }; \
	if query | grep -q 'http://smoke/o'; then echo "live-smoke: deleted triple still visible"; exit 1; fi; \
	curl -sf http://$$addr/healthz | grep -q 'live: true' || { echo "live-smoke: healthz missing live line"; exit 1; }; \
	echo "live-smoke: insert, compact, persist and delete all visible through the server"

# End-to-end WAL crash-recovery smoke: serve a generated base with -live
# and a WAL, ingest triples over HTTP (every one acked durable under
# sync=always), kill -9 the server, restart it on the same directories,
# and require every acked triple to be queryable with byte-identical
# JSON to a never-crashed server that applied the same writes. This is
# the durability contract, exercised through the real binary and a real
# SIGKILL. A last stage checks the orderly path: a server journaling
# under -wal-sync interval with the background flusher effectively off
# (1h) is stopped with SIGTERM — it must drain, fsync and close the WAL
# on its way out (exit 0, "stopped" in its log) — and a restart on the
# same directory must replay every acknowledged batch.
wal-smoke:
	@set -e; tmp=$$(mktemp -d); addr=127.0.0.1:18476; \
	q='SELECT * WHERE { ?s <http://smoke/p> ?o }'; \
	$(GO) run ./cmd/datagen -dataset lubm -scale 1 -out $$tmp/g.nt; \
	$(GO) build -o $$tmp/server ./cmd/sparql-server; \
	wait_ready() { for i in $$(seq 1 50); do \
		if curl -sf http://$$addr/healthz >/dev/null 2>&1; then return 0; fi; sleep 0.2; done; \
		echo "wal-smoke: server did not become ready"; cat $$tmp/server.log; return 1; }; \
	ingest() { for i in 1 2 3; do \
		printf '<http://smoke/s%s> <http://smoke/p> <http://smoke/o%s> .\n' $$i $$i | \
			curl -sf -X POST --data-binary @- "http://$$addr/update?op=insert" | grep -q '"applied":1' || \
			{ echo "wal-smoke: insert $$i not acked"; return 1; } done; \
		printf '<http://smoke/s2> <http://smoke/p> <http://smoke/o2> .\n' | \
			curl -sf -X POST --data-binary @- "http://$$addr/update?op=delete" | grep -q '"applied":1' || \
			{ echo "wal-smoke: delete not acked"; return 1; } }; \
	query() { curl -sf -G --data-urlencode "query=$$q" http://$$addr/sparql; }; \
	$$tmp/server -data $$tmp/g.nt -addr $$addr -live -wal-dir $$tmp/wal -wal-sync always \
		-compact-snapshot $$tmp/live.img >$$tmp/server.log 2>&1 & pid=$$!; \
	trap 'kill -9 $$pid 2>/dev/null || true; rm -rf '"$$tmp" EXIT; \
	wait_ready; ingest; \
	kill -9 $$pid; wait $$pid 2>/dev/null || true; \
	$$tmp/server -data $$tmp/g.nt -addr $$addr -live -wal-dir $$tmp/wal -wal-sync always \
		-compact-snapshot $$tmp/live.img >$$tmp/server.log 2>&1 & pid=$$!; \
	wait_ready; \
	grep -Eq 'wal enabled .*replayed [1-9][0-9]* batches' $$tmp/server.log || \
		{ echo "wal-smoke: server did not replay the journal"; cat $$tmp/server.log; exit 1; }; \
	query > $$tmp/recovered.json; \
	kill -9 $$pid; wait $$pid 2>/dev/null || true; \
	$$tmp/server -data $$tmp/g.nt -addr $$addr -live >$$tmp/server.log 2>&1 & pid=$$!; \
	wait_ready; ingest; \
	query > $$tmp/reference.json; \
	if ! cmp -s $$tmp/recovered.json $$tmp/reference.json; then \
		echo "wal-smoke: recovered results differ from never-crashed server:"; \
		diff $$tmp/recovered.json $$tmp/reference.json | head -20; exit 1; fi; \
	grep -q 'http://smoke/o1' $$tmp/recovered.json || { echo "wal-smoke: acked triple lost"; exit 1; }; \
	grep -q 'http://smoke/o3' $$tmp/recovered.json || { echo "wal-smoke: acked triple lost"; exit 1; }; \
	if grep -q 'http://smoke/o2' $$tmp/recovered.json; then \
		echo "wal-smoke: acked delete resurrected"; exit 1; fi; \
	echo "wal-smoke: all acked writes survived kill -9, byte-identical to a never-crashed server"; \
	kill -9 $$pid; wait $$pid 2>/dev/null || true; \
	$$tmp/server -data $$tmp/g.nt -addr $$addr -live -wal-dir $$tmp/wal2 -wal-sync interval -wal-flush-interval 1h \
		>$$tmp/server.log 2>&1 & pid=$$!; \
	wait_ready; ingest; \
	kill -TERM $$pid; \
	wait $$pid || { echo "wal-smoke: SIGTERM'd server exited with status $$?"; cat $$tmp/server.log; exit 1; }; \
	grep -q 'stopped$$' $$tmp/server.log || \
		{ echo "wal-smoke: SIGTERM'd server did not shut down cleanly"; cat $$tmp/server.log; exit 1; }; \
	$$tmp/server -data $$tmp/g.nt -addr $$addr -live -wal-dir $$tmp/wal2 -wal-sync interval -wal-flush-interval 1h \
		>$$tmp/server.log 2>&1 & pid=$$!; \
	wait_ready; \
	grep -Eq 'wal enabled .*replayed 4 batches' $$tmp/server.log || \
		{ echo "wal-smoke: restart after SIGTERM did not replay the 4 acked batches"; cat $$tmp/server.log; exit 1; }; \
	query > $$tmp/graceful.json; \
	if ! cmp -s $$tmp/graceful.json $$tmp/reference.json; then \
		echo "wal-smoke: results after a SIGTERM stop differ from a never-stopped server:"; \
		diff $$tmp/graceful.json $$tmp/reference.json | head -20; exit 1; fi; \
	echo "wal-smoke: -wal-sync interval server stopped by SIGTERM lost no acked batch"

# Short fuzz smoke for every fuzz target; CI runs this with FUZZTIME=10s.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime $(FUZZTIME) ./internal/sparql/
	$(GO) test -run '^$$' -fuzz FuzzPlanCacheKey -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz FuzzNTriples -fuzztime $(FUZZTIME) ./internal/rdf/
	$(GO) test -run '^$$' -fuzz FuzzSnapshotLoad -fuzztime $(FUZZTIME) ./internal/snapshot/
	$(GO) test -run '^$$' -fuzz FuzzManifest -fuzztime $(FUZZTIME) ./internal/snapshot/
	$(GO) test -run '^$$' -fuzz FuzzWALReplay -fuzztime $(FUZZTIME) ./internal/wal/

clean:
	$(GO) clean -testcache
