package algebra

// MergeSortedBags appends the rows of several bags — each sorted
// ascending by seq — into dst in global seq order: the k-way ordered
// merge that recombines per-shard scan results when the shard key is not
// the leading order variable. Rows with equal seq keys never span inputs
// in the sharded setting (subject ranges are disjoint and the subject
// always participates in the key sequence), but for determinism the
// merge still breaks ties by input index, emitting all of part i's tied
// rows before part i+1's. max >= 0 caps the output at max appended rows,
// so per-input prefixes capped at max are sufficient to produce the
// global prefix. dst's Cert/Maybe/Order are the caller's responsibility.
func MergeSortedBags(dst *Bag, parts []*Bag, seq []int, max int) {
	total := 0
	live := 0
	var single *Bag
	for _, p := range parts {
		if p.Len() > 0 {
			total += p.Len()
			live++
			single = p
		}
	}
	if max >= 0 && total > max {
		total = max
	}
	dst.Grow(total)
	if live == 1 {
		appendPrefix(dst, single, total)
		return
	}
	heads := make([]int, len(parts))
	for appended := 0; appended < total; appended++ {
		best := -1
		for i, p := range parts {
			if heads[i] >= p.Len() {
				continue
			}
			if best < 0 || compareOn(p.Row(heads[i]), parts[best].Row(heads[best]), seq) < 0 {
				best = i
			}
		}
		if best < 0 {
			return
		}
		dst.Append(parts[best].Row(heads[best]))
		heads[best]++
	}
}

// appendPrefix bulk-copies the first n rows of src (n <= src.Len()) to dst.
func appendPrefix(dst, src *Bag, n int) {
	dst.data = append(dst.data, src.data[:n*src.Width]...)
	dst.rows += n
}
