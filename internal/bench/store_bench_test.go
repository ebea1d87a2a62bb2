package bench

import (
	"math/rand"
	"testing"

	"sparqluo/internal/store"
)

// benchProbes returns pseudo-random existing triples to drive point
// lookups; the seed is fixed so runs are comparable.
func benchProbes(b *testing.B, st *store.Store, n int) []store.EncTriple {
	b.Helper()
	all := st.Triples()
	rng := rand.New(rand.NewSource(42))
	out := make([]store.EncTriple, n)
	for i := range out {
		out[i] = all[rng.Intn(len(all))]
	}
	return out
}

// BenchmarkStoreContains measures the ground-triple membership probe
// (binary search on the SPO permutation).
func BenchmarkStoreContains(b *testing.B) {
	st := StoreFor("LUBM")
	probes := benchProbes(b, st, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := probes[i&1023]
		if !st.Contains(t.S, t.P, t.O) {
			b.Fatal("stored triple not found")
		}
	}
}

// BenchmarkStoreObjectsSP measures the (s p ?) point lookup.
func BenchmarkStoreObjectsSP(b *testing.B) {
	st := StoreFor("LUBM")
	probes := benchProbes(b, st, 1024)
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		t := probes[i&1023]
		n += len(st.ObjectsSP(t.S, t.P))
	}
	if n == 0 {
		b.Fatal("no objects found")
	}
}

// BenchmarkStoreSubjectsPO measures the (? p o) point lookup.
func BenchmarkStoreSubjectsPO(b *testing.B) {
	st := StoreFor("LUBM")
	probes := benchProbes(b, st, 1024)
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		t := probes[i&1023]
		n += len(st.SubjectsPO(t.P, t.O))
	}
	if n == 0 {
		b.Fatal("no subjects found")
	}
}

// benchSink keeps benchmark loop results observable so the compiler
// cannot eliminate the scans being measured.
var benchSink int

// BenchmarkStorePredicateScan measures the full (? p ?) range scan over
// the POS permutation, the bulk access path of both engines.
func BenchmarkStorePredicateScan(b *testing.B) {
	st := StoreFor("LUBM")
	probes := benchProbes(b, st, 64)
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		for _, t := range st.PredicateTriples(probes[i&63].P) {
			n += int(t.S & 1)
		}
	}
	benchSink = n
}
