package store

import (
	"fmt"
	"slices"
)

// MemStats reports the memory footprint of the store's columnar arrays,
// so index-size regressions show up in benchmark and tooling output.
type MemStats struct {
	Triples    int   // distinct triples (after sort+compact)
	LogTriples int   // triples outside the permutations: pending ones not yet built, or a live view's delta
	LogBytes   int64 // bytes held by those triples
	SPOBytes   int64 // SPO permutation: triples + level-1 runs + object column
	POSBytes   int64 // POS permutation: triples + level-1 runs + subject column
	OSPBytes   int64 // OSP permutation: triples + level-1 runs + predicate column
	DictTerms  int   // distinct terms in the dictionary
	DictBytes  int64 // term string data held by the dictionary
	TotalBytes int64 // log + all permutations + dictionary strings
	// DictIndexBytes is what the dictionary really takes: arena
	// capacity, record column and key→ID table (Dict.IndexBytes). It
	// stays out of TotalBytes, which counts only term string data for
	// the dictionary.
	DictIndexBytes int64
}

// MemStats returns the memory footprint of the store's permutations
// and dictionary.
func (st *Store) MemStats() MemStats {
	m := MemStats{
		Triples:        len(st.spo.tri),
		SPOBytes:       st.spo.bytes(),
		POSBytes:       st.pos.bytes(),
		OSPBytes:       st.osp.bytes(),
		DictTerms:      st.dict.Len(),
		DictBytes:      st.dict.StringBytes(),
		DictIndexBytes: st.dict.IndexBytes(),
	}
	m.TotalBytes = m.SPOBytes + m.POSBytes + m.OSPBytes + m.DictBytes
	return m
}

// PendingMemStats reports the footprint of triples collected over dict
// but not yet built into a store. tris may hold duplicates; Triples
// counts the distinct ones on a sorted copy, so neither input is
// mutated and concurrent callers need no lock.
func PendingMemStats(dict *Dict, tris []EncTriple) MemStats {
	sorted := slices.Clone(tris)
	slices.SortFunc(sorted, cmpSPO)
	m := MemStats{
		Triples:        len(slices.Compact(sorted)),
		LogTriples:     len(tris),
		LogBytes:       int64(len(tris)) * 12,
		DictTerms:      dict.Len(),
		DictBytes:      dict.StringBytes(),
		DictIndexBytes: dict.IndexBytes(),
	}
	m.TotalBytes = m.LogBytes + m.DictBytes
	return m
}

// String renders the footprint as a single human-readable line.
func (m MemStats) String() string {
	return fmt.Sprintf("triples=%d log=%s spo=%s pos=%s osp=%s dict=%s total=%s (dict terms=%d index=%s)",
		m.Triples, fmtBytes(m.LogBytes), fmtBytes(m.SPOBytes), fmtBytes(m.POSBytes),
		fmtBytes(m.OSPBytes), fmtBytes(m.DictBytes), fmtBytes(m.TotalBytes), m.DictTerms, fmtBytes(m.DictIndexBytes))
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%dB", n)
}
