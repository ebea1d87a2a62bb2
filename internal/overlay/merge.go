package overlay

import "sparqluo/internal/store"

// mergeIDs is store.MergeRun over ID columns: it returns
// (base − minus) ∪ plus ascending, under the same resolve invariants
// (all three ascending and duplicate-free, minus ⊆ base,
// plus ∩ base = ∅), and base itself when no delta touches the key. It
// stays a separate function because it compares with < on the per-row
// read path of a dirty view; sharing a comparator-taking generic with
// the triple merge would put an indirect call there.
func mergeIDs(base, minus, plus []store.ID) []store.ID {
	if len(minus) == 0 && len(plus) == 0 {
		return base
	}
	out := make([]store.ID, 0, len(base)-len(minus)+len(plus))
	j, k := 0, 0
	for _, v := range base {
		if j < len(minus) && minus[j] == v {
			j++
			continue
		}
		for k < len(plus) && plus[k] < v {
			out = append(out, plus[k])
			k++
		}
		out = append(out, v)
	}
	return append(out, plus[k:]...)
}
