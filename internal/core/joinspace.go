package core

// JoinSpace computes the paper's join-space metric JS(P) (§7.1) for an
// executed plan: the same size fold the cost model estimates with (size),
// with each BGP node's materialized result size recorded during
// evaluation as the leaf in place of the engine's estimate. Joins (AND,
// OPTIONAL) multiply, UNION adds. It estimates the largest intermediate
// result the execution materializes and is indicative of both execution
// time and memory overhead.
//
// The stats must come from evaluating exactly this tree (strategies that
// transform or prune yield correspondingly smaller join spaces, which is
// what Figure 11 plots).
func JoinSpace(t *Tree, stats *EvalStats) float64 {
	return size(t.Root, func(b *BGPNode) float64 {
		if sz, ok := stats.bgpSizes[b]; ok {
			return float64(sz)
		}
		return 1 // never evaluated (e.g. short-circuited); neutral
	})
}
