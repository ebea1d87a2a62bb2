// Package sparqluo is an RDF triple store and SPARQL-UO query engine
// implementing "Efficient Execution of SPARQL Queries with OPTIONAL and
// UNION Expressions" (Zou, Pang, Özsu, Chen): BE-tree query plans,
// cost-driven merge/inject transformations, and query-time candidate
// pruning on top of two BGP execution engines (a gStore-style
// worst-case-optimal join engine and a Jena-style binary hash-join
// engine).
//
// Basic usage:
//
//	db := sparqluo.Open()
//	if err := db.Load(file); err != nil { ... }
//	db.Freeze()
//	res, err := db.Query(`SELECT ?x WHERE { ... }`)
//	for _, sol := range res.Solutions() {
//		fmt.Println(sol["x"])
//	}
//
// The Strategy option selects between the paper's four approaches (Base,
// TT, CP, Full — Full is the default); the Engine option selects the
// underlying BGP engine. ParseStrategy and ParseEngine read both from
// their flag and request spellings ("base|tt|cp|full" in any case,
// "wco|binary").
//
// # Solution modifiers and pagination
//
// Queries may carry the full set of W3C solution modifiers: ORDER BY
// (ASC/DESC per key), LIMIT and OFFSET. ORDER BY is answered for free
// when the plan's streaming joins already produce the requested order,
// with a bounded-heap top-k when a LIMIT window is present, and with a
// stable sort otherwise. A LIMIT without ORDER BY is pushed into
// execution as true early termination: index scans, the engines'
// depth-first pattern extension and the final join stop as soon as
// enough rows exist.
//
// For serving, WithLimit and WithOffset apply a per-execution window on
// top of the query text without re-parsing or re-planning, so one
// prepared (or plan-cached) query serves every page:
//
//	p, _ := db.Prepare(`SELECT ?x WHERE { ... } ORDER BY ?x`)
//	page2, _ := p.Exec(sparqluo.WithLimit(20), sparqluo.WithOffset(20))
//
// Results.RowsPulled reports how many operand rows execution actually
// drew — the observable effect of early termination.
//
// # Streaming results
//
// Results is a single-use cursor. Rows returns an iter.Seq2 over the
// solution rows without materializing maps; Row.Var and Row.Term read
// one column of the current row straight off the dictionary-ID row:
//
//	res, err := db.Query(`SELECT ?x ?name WHERE { ... }`)
//	if err != nil { ... }
//	defer res.Close()
//	for i, row := range res.Rows() {
//		if name, ok := row.Term(1); ok {
//			fmt.Println(i, name.Value)
//		}
//	}
//
// The cursor may be consumed once: exactly one of Rows, Solutions or
// WriteJSON may iterate it, and a second iteration yields no rows and
// records ErrResultsConsumed (retrievable with Err). Solutions is a
// convenience wrapper over Rows that materializes name→term maps;
// WriteJSON streams the W3C SPARQL JSON document row by row. Close
// releases the cursor early and is idempotent. Metadata accessors (Len,
// Vars, Plan, ExecTime, ...) remain valid after consumption.
//
// # Prepared queries
//
// For templated or repeated workloads, Prepare parses the query and
// builds its BE-tree once; each ExecContext call then pays only the
// per-execution transform+evaluate cost:
//
//	p, err := db.Prepare(`SELECT ?y WHERE { ?x ub:advisor ?y }`)
//	if err != nil { ... }
//	for _, x := range people {
//		res, err := p.Exec(sparqluo.Bind("x", x))
//		...
//	}
//
// Bind substitutes a ground term for a query variable at execution
// time (qgen-style query templates); the bound value is reported in
// every solution row, so templates behave like queries with the
// parameter inlined plus a constant binding.
//
// # Concurrency
//
// Once Freeze has been called the store is immutable, so any number of
// goroutines may issue queries against one DB concurrently; all query
// state lives on the call stack. A single *Prepared may likewise be
// executed from any number of goroutines: the built plan is never
// mutated (transforming strategies clone it per execution). Each query
// runs on its calling goroutine: the BE-tree is walked depth first, so
// results, solution ordering and metrics are a deterministic function of
// the query and the data. Concurrency comes from issuing many queries.
//
// QueryContext threads a context.Context through the evaluator and both
// BGP engines: cancelling the context or passing one with a deadline
// aborts long joins promptly and returns ctx.Err().
//
// # Serving at scale
//
// The serving path composes these pieces: NewHandler exposes the DB
// over HTTP with an optional per-handler LRU plan cache
// (WithPlanCache) that maps normalized query text to a *Prepared, so
// hot queries skip parsing and plan construction entirely (the
// X-Plan-Cache response header reports hit or miss), and query
// responses are streamed with the zero-allocation WriteJSON encoder —
// the handler never materializes a []Solution. See the README's
// "Serving at scale" section for the full picture.
//
// # Live updates
//
// A database can ingest while serving. EnableLiveUpdates (or OpenLive)
// layers a mutable delta overlay — a memtable of pending inserts and
// tombstones — over the frozen base; Insert and Delete are atomic
// batches, every query is pinned to one epoch of the data (snapshot
// isolation), and a background compactor (StartCompaction) folds the
// memtable into a fresh frozen base under an RCU-style pointer swap,
// optionally persisting it with the atomic snapshot writer. Any frozen
// database can go live: one built in memory, one mapped from an image
// (OpenSnapshot), or one opened from a shard set (OpenShards), whose
// images fold into one store. A quiesced live database (after Flush)
// answers queries byte-identically to a freshly frozen store over the
// same triples. Over HTTP, POST /update accepts N-Triples insert/delete
// batches behind the same admission valve as /sparql.
package sparqluo

import (
	"context"
	"fmt"
	"io"
	"strings"

	"sparqluo/internal/core"
	"sparqluo/internal/exec"
	"sparqluo/internal/overlay"
	"sparqluo/internal/rdf"
	"sparqluo/internal/snapshot"
	"sparqluo/internal/store"
	"sparqluo/internal/wal"
)

// Term is an RDF term (IRI, literal or blank node).
type Term = rdf.Term

// Triple is a single RDF statement.
type Triple = rdf.Triple

// Re-exported term constructors.
var (
	NewIRI          = rdf.NewIRI
	NewLiteral      = rdf.NewLiteral
	NewLangLiteral  = rdf.NewLangLiteral
	NewTypedLiteral = rdf.NewTypedLiteral
	NewBlank        = rdf.NewBlank
)

// Strategy selects the query optimization approach of §7.1.
type Strategy = core.Strategy

// The four strategies evaluated in the paper.
const (
	Base = core.Base // Algorithm 1 on the untransformed BE-tree
	TT   = core.TT   // cost-driven tree transformation
	CP   = core.CP   // candidate pruning with a fixed threshold
	Full = core.Full // transformation + adaptive candidate pruning
)

// Engine selects the underlying BGP execution engine.
type Engine int

const (
	// WCO is the gStore-style worst-case-optimal join engine.
	WCO Engine = iota
	// BinaryJoin is the Jena-style binary hash-join engine.
	BinaryJoin
)

func (e Engine) impl() exec.Engine {
	if e == BinaryJoin {
		return exec.BinaryJoinEngine{}
	}
	return exec.WCOEngine{}
}

// ParseStrategy parses a strategy name as flags and requests spell it:
// "base", "tt", "cp" or "full", in any case, so Strategy.String's "TT"
// and "CP" parse back too.
func ParseStrategy(s string) (Strategy, error) {
	switch strings.ToLower(s) {
	case "base":
		return Base, nil
	case "tt":
		return TT, nil
	case "cp":
		return CP, nil
	case "full":
		return Full, nil
	}
	return Full, fmt.Errorf("unknown strategy %q", s)
}

// ParseEngine parses an engine name as flags and requests spell it:
// "wco" or "binary".
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "wco":
		return WCO, nil
	case "binary":
		return BinaryJoin, nil
	}
	return WCO, fmt.Errorf("unknown engine %q", s)
}

// DB is an in-memory RDF database. Load data with Load/Add, call Freeze
// once, then issue queries concurrently. Alternatively, open a
// previously written snapshot image with OpenSnapshot for a cold start
// that skips parsing and index building entirely, or a shard set with
// OpenShards, which folds its images into one store.
type DB struct {
	// dict and pending collect the triples of a loading database (Open,
	// then Add/AddAll/Load) until Freeze builds st from them; both are
	// nil once the database has a built store.
	dict    *store.Dict
	pending []store.EncTriple

	// st is the immutable store of a frozen, snapshot-opened or
	// shard-opened database; nil while loading and once live updates
	// are enabled.
	st *store.Store
	// live is the live-update overlay; nil unless the database is live.
	live *overlay.LiveStore

	// mapping backs a snapshot- or shard-opened database's dictionary
	// strings (and, for an image, its indexes; see OpenSnapshot,
	// OpenShards, Close); nil for in-memory ones.
	mapping *snapshot.Mapping

	// wal is the write-ahead log attached by OpenLive/EnableLiveUpdates
	// when LiveOptions.WALDir is set; nil otherwise. Closed by Close.
	wal *wal.Log
	// recovery records what the WAL replay recovered at open, if any.
	recovery *RecoveryStats
}

// Open returns an empty database, loading until Freeze.
func Open() *DB { return &DB{dict: store.NewDict()} }

// loading reports whether the database is still collecting triples,
// that is, has no built store to read yet.
func (db *DB) loading() bool { return db.st == nil && db.live == nil }

// reader returns the store a query reads: the live overlay's current
// view, or the database's immutable store. Callers rule out a loading
// database first. The store kind is decided here, once per call;
// nothing below it sees the decision.
func (db *DB) reader() store.Reader {
	if db.live != nil {
		return db.live.View()
	}
	return db.st
}

// Load reads an N-Triples document (with optional Turtle-style @prefix
// directives) and adds every triple. On a live database the triples are
// inserted as one atomic batch; on a frozen database Load returns
// ErrFrozen.
func (db *DB) Load(r io.Reader) error {
	if db.Live() {
		ts, err := rdf.ParseAll(r)
		if err != nil {
			return err
		}
		return db.live.Insert(ts...)
	}
	if !db.loading() {
		return ErrFrozen
	}
	d := rdf.NewDecoder(r)
	for {
		t, err := d.Decode()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		db.pending = append(db.pending, db.dict.EncodeTriple(t))
	}
}

// Add inserts one triple. Duplicates are ignored (RDF set semantics).
// On a live database (EnableLiveUpdates/OpenLive) the write is routed
// to the overlay memtable and is immediately visible to new queries.
// Otherwise Add returns ErrFrozen after Freeze — never a panic, so a
// serving process can reject stray writes gracefully.
func (db *DB) Add(t Triple) error {
	return db.AddAll([]Triple{t})
}

// AddAll inserts a batch of triples. A batch holding a triple that
// rdf.Triple.Valid refuses (a literal subject, or a term whose
// N-Triples spelling would not read back) is refused whole. On a live
// database the batch is atomic: concurrent queries see all of it or
// none of it.
func (db *DB) AddAll(ts []Triple) error {
	if db.live != nil {
		return db.live.Insert(ts...)
	}
	if !db.loading() {
		return ErrFrozen
	}
	if err := rdf.CheckAll(ts); err != nil {
		return err
	}
	for _, t := range ts {
		db.pending = append(db.pending, db.dict.EncodeTriple(t))
	}
	return nil
}

// Freeze builds the store — sorted permutations and statistics — from
// the loaded triples and makes the database read-only; queries need it.
// Snapshot- and shard-opened databases are frozen already, and Freeze
// is idempotent. A bulk load too large for the store's int32 index
// range returns an error wrapping store.ErrTooManyTriples instead of
// crashing the process; the database then keeps loading.
func (db *DB) Freeze() error {
	if !db.loading() {
		return nil
	}
	st, err := store.FromTriples(db.dict, db.pending)
	if err != nil {
		return err
	}
	db.st, db.dict, db.pending = st, nil, nil
	return nil
}

// NumTriples returns the number of distinct triples stored (while
// loading: added so far).
func (db *DB) NumTriples() int {
	if db.loading() {
		return store.PendingMemStats(db.dict, db.pending).Triples
	}
	return db.reader().NumTriples()
}

// MemStats reports the memory footprint of the database's columnar
// indexes. While loading, it reports the triples added so far, without building
// anything.
func (db *DB) MemStats() store.MemStats {
	if db.loading() {
		return store.PendingMemStats(db.dict, db.pending)
	}
	return db.reader().MemStats()
}

// Store exposes the underlying store for advanced integrations (the
// experiment harness uses it); most callers never need it. It returns
// nil while loading and for a live database, whose triple set is a base
// plus a memtable.
func (db *DB) Store() *store.Store { return db.st }

// Option configures a Query, Prepare or Exec call.
type Option func(*queryConfig)

type queryConfig struct {
	strategy Strategy
	engine   Engine
	bindings map[string]Term
	limit    int // exec-time row cap; -1 = none
	offset   int // exec-time rows to skip; 0 = none
}

func defaultQueryConfig() queryConfig {
	return queryConfig{strategy: Full, engine: WCO, limit: -1}
}

// WithStrategy selects the optimization strategy (default Full).
func WithStrategy(s Strategy) Option {
	return func(c *queryConfig) { c.strategy = s }
}

// WithEngine selects the BGP engine (default WCO).
func WithEngine(e Engine) Option {
	return func(c *queryConfig) { c.engine = e }
}

// WithLimit caps the number of solutions this execution returns, on top
// of (never widening) any LIMIT in the query text. Unlike a textual
// LIMIT it needs no re-parse or re-plan: one prepared (or plan-cached)
// query serves every page size. n < 0 removes a previously set limit.
//
// The cap is pushed into execution as true early termination: pattern
// scans, the engines' depth-first pattern extension and the final join
// or OPTIONAL fold stop as soon as enough rows exist, and the rows
// returned are byte-identical to the corresponding prefix of the
// unlimited result.
func WithLimit(n int) Option {
	return func(c *queryConfig) {
		if n < 0 {
			n = -1
		}
		c.limit = n
	}
}

// WithOffset skips the first n solutions of this execution, composing
// with any textual OFFSET/LIMIT window (the text window applies first).
// Combined with WithLimit it implements cursor-style pagination over a
// single prepared query. n <= 0 skips nothing.
func WithOffset(n int) Option {
	return func(c *queryConfig) {
		if n < 0 {
			n = 0
		}
		c.offset = n
	}
}

// Bind substitutes a ground term for the named query variable (with or
// without the leading "?") at execution time, turning a prepared query
// into a template: every triple-pattern occurrence of the variable is
// replaced by the term, and the variable is reported bound to the term
// in each solution row. Binding a variable the query does not mention
// is an error; binding a term absent from the data correctly yields no
// matches for the patterns that mention it.
func Bind(name string, t Term) Option {
	return func(c *queryConfig) {
		if c.bindings == nil {
			c.bindings = make(map[string]Term)
		}
		c.bindings[strings.TrimPrefix(name, "?")] = t
	}
}

// Query parses and executes a SPARQL-UO SELECT query. It is
// QueryContext with a background context.
func (db *DB) Query(text string, opts ...Option) (*Results, error) {
	return db.QueryContext(context.Background(), text, opts...)
}

// QueryContext parses and executes a SPARQL-UO SELECT query under a
// context. Cancelling ctx (or exceeding its deadline) aborts evaluation
// promptly — including inside the engines' join loops — and returns an
// error wrapping ctx.Err().
//
// Every QueryContext call re-parses and re-plans the text; callers
// issuing the same query repeatedly should Prepare it once and use
// ExecContext per execution.
func (db *DB) QueryContext(ctx context.Context, text string, opts ...Option) (*Results, error) {
	p, err := db.Prepare(text)
	if err != nil {
		return nil, err
	}
	return p.ExecContext(ctx, opts...)
}

// Explain parses the query and returns the BE-tree plan before and after
// the selected strategy's cost-driven transformation, without executing
// it. The transformation is costed with the engine selected by
// WithEngine (estimated BGP costs differ between the WCO and binary-join
// engines, so the chosen plan may too).
func (db *DB) Explain(text string, opts ...Option) (before, after string, err error) {
	p, err := db.Prepare(text)
	if err != nil {
		return "", "", err
	}
	return p.Explain(opts...)
}
