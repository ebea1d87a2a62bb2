package sparqluo

import (
	"errors"
	"iter"
	"time"

	"sparqluo/internal/algebra"
	"sparqluo/internal/core"
	"sparqluo/internal/sparql"
	"sparqluo/internal/store"
)

// ErrResultsConsumed is recorded (and returned by WriteJSON) when a
// Results cursor is iterated a second time. Exactly one of Rows,
// Solutions or WriteJSON may consume a Results; re-run the query, or
// keep the Solutions slice, to read the rows again.
var ErrResultsConsumed = errors.New("sparqluo: results already consumed (Rows/Solutions/WriteJSON iterate once; re-run the query to read rows again)")

// Solution is one query solution: variable name → bound term. Unbound
// variables (possible under OPTIONAL) are absent from the map.
type Solution map[string]Term

// Results is the outcome of a query: a single-use cursor over the
// solution rows plus execution metadata. Iterate it exactly once with
// Rows (zero-allocation), Solutions (name→term maps) or WriteJSON
// (streaming W3C JSON); a second iteration yields no rows and records
// ErrResultsConsumed. Metadata accessors stay valid after the cursor is
// consumed or closed. A Results is not safe for concurrent use.
type Results struct {
	terms    store.Terms // the dictionary's terms when the cursor was made
	res      *core.Result
	names    []string // projected variable names, render order
	cols     []int    // cols[i] = row slot of names[i]
	consumed bool
	err      error
}

// newResults wraps one execution's outcome in a fresh cursor that
// decodes IDs with dict. It takes the dictionary's append-only term
// snapshot once, so decoding a cell reads the arena, not a lock round trip:
// every ID in the result was encoded before the execution pinned its
// store, so the snapshot holds them all.
func newResults(dict *store.Dict, q *sparql.Query, res *core.Result) *Results {
	names := res.Vars.Names()
	if len(q.Select) > 0 {
		names = q.Select
	}
	cols := make([]int, len(names))
	for i, n := range names {
		cols[i], _ = res.Vars.Lookup(n) // Build interns every projected var
	}
	return &Results{terms: dict.Terms(), res: res, names: names, cols: cols}
}

// Len returns the number of solutions.
func (r *Results) Len() int { return r.res.Bag.Len() }

// Vars returns the variable names of the result rows, in projection
// order. Row column i corresponds to Vars()[i].
func (r *Results) Vars() []string { return r.names }

// Row is a zero-allocation view of one solution row, valid only inside
// the Rows iteration that yielded it. Columns are indexed 0..Len()-1 in
// projection order (the order of Results.Vars).
type Row struct {
	r   *Results
	row algebra.Row
}

// Len returns the number of columns (projected variables).
func (w Row) Len() int { return len(w.r.cols) }

// Var returns the variable name of column i.
func (w Row) Var(i int) string { return w.r.names[i] }

// Bound reports whether column i is bound in this row.
func (w Row) Bound(i int) bool { return w.row[w.r.cols[i]] != store.None }

// Term decodes column i of the row. The second result is false when the
// variable is unbound in this solution (possible under OPTIONAL).
func (w Row) Term(i int) (Term, bool) {
	id := w.row[w.r.cols[i]]
	if id == store.None {
		return Term{}, false
	}
	return w.r.terms.Term(id), true
}

// acquire claims the single iteration; callers that lose record the
// error for Err and get nothing to iterate.
func (r *Results) acquire() error {
	if r.consumed {
		r.err = ErrResultsConsumed
		return r.err
	}
	r.consumed = true
	return nil
}

// Rows returns a single-use iterator over the solution rows: the first
// value is the row index, the second the Row view. Iterating allocates
// nothing per row. After the cursor has been consumed (by Rows,
// Solutions, WriteJSON or Close) the sequence yields nothing and Err
// returns ErrResultsConsumed.
func (r *Results) Rows() iter.Seq2[int, Row] {
	return func(yield func(int, Row) bool) {
		if r.acquire() != nil {
			return
		}
		for i, row := range r.res.Bag.All() {
			if !yield(i, Row{r: r, row: row}) {
				return
			}
		}
	}
}

// Err returns the error recorded during iteration — currently only
// ErrResultsConsumed from a second iteration attempt.
func (r *Results) Err() error { return r.err }

// Close releases the cursor: subsequent iteration attempts yield no
// rows. Closing is idempotent, never fails, and does not disturb an
// already-recorded error or the metadata accessors. It exists so
// callers can `defer res.Close()` symmetrically with database cursors.
func (r *Results) Close() error {
	r.consumed = true
	return nil
}

// Solutions materializes the remaining solutions as name→term maps. It
// is a convenience wrapper over Rows and, like it, consumes the cursor:
// a second iteration of any kind returns nothing (see Err). Only
// projected variables appear in the maps.
func (r *Results) Solutions() []Solution {
	out := make([]Solution, 0, r.Len())
	for _, row := range r.Rows() {
		sol := Solution{}
		for i := 0; i < row.Len(); i++ {
			if t, ok := row.Term(i); ok {
				sol[row.Var(i)] = t
			}
		}
		out = append(out, sol)
	}
	return out
}

// Plan returns a rendering of the BE-tree that was executed (after any
// transformations).
func (r *Results) Plan() string { return r.res.Tree.String() }

// Transformations returns the number of merge/inject transformations the
// optimizer applied.
func (r *Results) Transformations() int { return r.res.Transformations }

// ExecTime returns the time spent executing the plan.
func (r *Results) ExecTime() time.Duration { return r.res.ExecTime }

// TransformTime returns the time spent in plan transformation.
func (r *Results) TransformTime() time.Duration { return r.res.TransformTime }

// JoinSpace returns the paper's join-space metric for this execution, an
// indicator of the largest intermediate result materialized.
func (r *Results) JoinSpace() float64 {
	return core.JoinSpace(r.res.Tree, r.res.Stats)
}

// RowsPulled returns the number of operand and index rows execution
// drew from the engines' scans and the capped final operators — the
// work metric LIMIT push-down shrinks. A query answered by early
// termination reports far fewer pulled rows than the same query run to
// completion.
func (r *Results) RowsPulled() int { return r.res.Stats.RowsPulled }
