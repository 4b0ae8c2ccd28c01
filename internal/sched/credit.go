package sched

import (
	"math/bits"
	"slices"

	"fractal/internal/wire"
)

// creditBound is the largest exponent of a credit. Each external grant
// halves its donor's credit, so a piece deepens by one with every grant of
// each worker that held it in the step, and a donor holding the piece
// 2^-creditBound declines to grant. The deepest piece measured was 2^-4077,
// after 2 858 grants by one worker in an 81 s step (FSM, support 1000, on
// the orkut analog, 4 workers × 2 cores, external stealing only).
const creditBound = 1<<20 - 1

// credit is an exact dyadic fraction of a step attempt's one unit (DESIGN
// §6): a fixed-point number, bit 63-e%64 of word e/64 the piece 2^-e, as
// many words long as its deepest piece needs and no longer, so equal
// credits are equal slices, slices.Compare orders credits as numbers, and
// a shallow one is a word. add and halve replace the words they change,
// never writing to ones a copy may share.
type credit []uint64

// piece returns the credit 2^-e; unit, 2^0, is the whole of an attempt's.
func piece(e int) credit {
	c := make(credit, e/64+1)
	c[e/64] = 1 << (63 - e%64)
	return c
}

var unit = piece(0)

// splitUnit gives each of n participants share, the largest power of two
// no larger than 1/n; rest is what the n shares leave of the unit.
func splitUnit(n int) (share, rest credit) {
	k := bits.Len(uint(n - 1))
	for i := n; i < 1<<k; i++ {
		rest.add(piece(k))
	}
	return piece(k), rest
}

// add adds o to c; the credits of a step sum to at most the unit, so no
// carry leaves word 0.
func (c *credit) add(o credit) {
	sum, o := slices.Clone(*c), o
	if len(sum) < len(o) {
		sum, o = append(sum, o[len(sum):]...), o[:len(sum)]
	}
	var carry uint64
	for i := len(o) - 1; i >= 0; i-- {
		sum[i], carry = bits.Add64(sum[i], o[i], carry)
	}
	for len(sum) > 0 && sum[len(sum)-1] == 0 {
		sum = sum[:len(sum)-1]
	}
	*c = sum
}

// halve keeps half of c and returns the other half, the same value. It
// fails, changing nothing, when c is zero or holds the piece at the bound.
func (c *credit) halve() (half credit, ok bool) {
	n := len(*c)
	if n == 0 || 64*n-1-bits.TrailingZeros64((*c)[n-1]) == creditBound {
		return nil, false
	}
	half = make(credit, n, n+1)
	var in uint64
	for i, w := range *c {
		half[i], in = w>>1|in<<63, w&1
	}
	if in != 0 {
		half = append(half, 1<<63)
	}
	*c = half
	return half, true
}

// putCredit writes a credit as the counted, strictly ascending list of its
// exponents; getCredit reads one, and a count or an exponent beyond the
// bound, or exponents out of order, is an error.
func putCredit(w *wire.Writer, c credit) {
	var es []uint64
	for i, word := range c {
		for word != 0 {
			b := bits.LeadingZeros64(word)
			word &^= 1 << (63 - b)
			es = append(es, uint64(64*i+b))
		}
	}
	putSeq(w, es, (*wire.Writer).Uvarint)
}

func getCredit(r *wire.Reader) (c credit) {
	n, prev := r.Count(), -1
	for i := 0; i < n; i++ {
		e := r.Uvarint()
		if n > creditBound+1 || e > creditBound || int(e) <= prev {
			r.Failf("credit exponent %d of %d out of range or order", e, n)
			return nil
		}
		prev = int(e)
		for len(c) <= prev/64 {
			c = append(c, 0)
		}
		c[prev/64] |= 1 << (63 - prev%64)
	}
	return c
}
