GO ?= go
FUZZTIME ?= 10s

.PHONY: all build vet fmt-check test loc bench-smoke bench-repo race bench data-smoke live-smoke wal-smoke fuzz clean

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

# ROADMAP item 5's measure: non-test code lines (no blank lines, no
# whole-line // comments) per package and in total. benchmark/ is a
# module of its own, so ./... leaves it out.
loc:
	@$(GO) list -f '{{.Dir}}' ./... | while read d; do \
		n=$$(ls $$d/*.go | grep -v _test.go | xargs cat | grep -v '^\s*//' | grep -cv '^\s*$$'); \
		echo "$$n .$${d#$(CURDIR)}"; done | \
	awk '{ t += $$1; printf "%6d  %s\n", $$1, $$2 } END { printf "%6d  total\n", t }'

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

# Every Go benchmark of the module, compiled and run once: the paper's
# §7 tables and figures (bench_test.go, ablation_bench_test.go) and the
# micro-benchmarks no BENCHMARK.json metric covers (shard scaling, the
# interval/never WAL policies, top-k, store accessors, the join family).
# For real numbers run one family with a real -benchtime, e.g.
#   go test -run '^$$' -bench 'Join|Distinct' -benchmem -benchtime 2s ./internal/algebra
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# End-to-end data-file smoke: datagen writes one dataset as N-Triples
# and a snapshot image, then as a 3-way shard set; sparql-uo answers the
# same UO query from each file through OpenFile's magic detection, and
# the solutions must be non-empty and byte-identical (the timing line,
# line 2, is stripped). TestMatrix checks the stores themselves; this
# covers the CLIs' flag handling.
data-smoke:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf '"$$tmp" EXIT; \
	q='PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#> SELECT * WHERE { { ?x ub:advisor ?y . } UNION { ?x ub:headOf ?y . } OPTIONAL { ?y ub:name ?n } }'; \
	$(GO) run ./cmd/datagen -dataset lubm -scale 2 -out $$tmp/g.nt -snapshot $$tmp/g.img; \
	$(GO) run ./cmd/datagen -dataset lubm -scale 2 -snapshot $$tmp/g.shards -shards 3; \
	for f in g.nt g.img g.shards; do $(GO) run ./cmd/sparql-uo -data $$tmp/$$f -q "$$q" -limit 0 | tail -n +3 > $$tmp/$$f.out; done; \
	test -s $$tmp/g.nt.out || { echo "data-smoke: query returned no solutions"; exit 1; }; \
	for f in g.img g.shards; do cmp -s $$tmp/g.nt.out $$tmp/$$f.out || \
		{ echo "data-smoke: $$f results differ from N-Triples:"; diff $$tmp/g.nt.out $$tmp/$$f.out | head -20; exit 1; }; done; \
	echo "data-smoke: $$(wc -l < $$tmp/g.nt.out | tr -d ' ') identical solutions from N-Triples, image and shard set"

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
	$(GO) test -run '^$$' -fuzz FuzzCanonicalText -fuzztime $(FUZZTIME) ./internal/sparql/
	$(GO) test -run '^$$' -fuzz FuzzPlanCacheKey -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz FuzzOracle -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz FuzzNTriples -fuzztime $(FUZZTIME) ./internal/rdf/
	$(GO) test -run '^$$' -fuzz FuzzSnapshotLoad -fuzztime $(FUZZTIME) ./internal/snapshot/
	$(GO) test -run '^$$' -fuzz FuzzManifest -fuzztime $(FUZZTIME) ./internal/snapshot/
	$(GO) test -run '^$$' -fuzz FuzzWALReplay -fuzztime $(FUZZTIME) ./internal/wal/

clean:
	$(GO) clean -testcache
