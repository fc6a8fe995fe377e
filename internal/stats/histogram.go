package stats

// Histogram is an exact distribution of non-negative integer samples
// (latencies in cycles): one count per value over the observed
// [min, max] range, so its memory is bounded by the range of the
// samples, not their number, and Quantile reads ranks straight off the
// counts. The zero value is an empty histogram.
type Histogram struct {
	lo     int64   // the smallest sample: counts[0] counts it
	counts []int64 // counts[v-lo] is the number of samples equal to v
	n      int64
	sum    int64
}

// Add records one sample. The counts widen only when v is a new
// minimum or maximum, and then to exactly v.
func (h *Histogram) Add(v int64) {
	if len(h.counts) == 0 {
		h.lo = v
	}
	lo, hi := min(h.lo, v), max(h.lo+int64(len(h.counts))-1, v)
	if need := int(hi-lo) + 1; need > len(h.counts) {
		old := len(h.counts)
		//vichar:alloc the range widens only on a new minimum or maximum latency, so growth is bounded by the latency range, not the sample count
		h.counts = append(h.counts, make([]int64, need-old)...)
		if shift := int(h.lo - lo); shift > 0 {
			// A new minimum: the counts move up to make room below.
			copy(h.counts[shift:], h.counts[:old])
			clear(h.counts[:shift])
		}
		h.lo = lo
	}
	h.counts[v-h.lo]++
	h.n++
	h.sum += v
}

// Count returns the number of samples.
func (h *Histogram) Count() int64 { return h.n }

// Sum returns the exact integer sum of the samples.
func (h *Histogram) Sum() int64 { return h.sum }

// Max returns the largest sample, or 0 when there is none.
func (h *Histogram) Max() int64 {
	if len(h.counts) == 0 {
		return 0
	}
	return h.lo + int64(len(h.counts)) - 1
}

// Quantile returns the p-quantile (0..1) by linear interpolation
// between the two closest ranks (the "C = 1" / inclusive convention:
// pos = p*(n-1), the value interpolated between the samples of rank
// floor(pos) and ceil(pos) in ascending order) — bit for bit what
// interpolating over a sorted copy of the samples gives. A single
// sample is every quantile, p = 1.0 is the maximum, and an empty
// histogram answers 0.
func (h *Histogram) Quantile(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	pos := p * float64(h.n-1)
	lo := int64(pos)
	hi := lo + 1
	if hi >= h.n {
		return float64(h.Max())
	}
	frac := pos - float64(lo)
	return float64(h.rank(lo))*(1-frac) + float64(h.rank(hi))*frac
}

// rank returns the sample of rank k (0-based) in ascending order.
func (h *Histogram) rank(k int64) int64 {
	for i, c := range h.counts {
		if k < c {
			return h.lo + int64(i)
		}
		k -= c
	}
	return h.Max()
}
