package sched

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"

	"fractal/internal/metrics"
	"fractal/internal/subgraph"
	"fractal/internal/wire"
)

// sumOf adds credits.
func sumOf(cs ...credit) (sum credit) {
	for _, c := range cs {
		sum.add(c)
	}
	return sum
}

// TestCreditSplitUnit: n participants' equal shares plus the master's rest
// are the unit, each share the largest power of two no larger than 1/n.
func TestCreditSplitUnit(t *testing.T) {
	for n, k := 1, 0; n <= 70; n++ {
		if n > 1<<k {
			k++
		}
		share, rest := splitUnit(n)
		if !slices.Equal(share, piece(k)) {
			t.Fatalf("n=%d: share is not 2^-%d", n, k)
		}
		sum := rest
		for i := 0; i < n; i++ {
			sum.add(share)
		}
		if !slices.Equal(sum, unit) || n == 1<<k && len(rest) != 0 {
			t.Fatalf("n=%d: n shares and the rest do not make the unit, or the rest of a power of two is not 0", n)
		}
	}
}

// TestCreditHalveConserves: a grant's half and the half its donor keeps
// add up to what the donor held, exactly, and credits order as numbers.
func TestCreditHalveConserves(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		var c credit
		for j := rng.Intn(20); j >= 0; j-- {
			c.add(piece(1 + rng.Intn(1000)))
		}
		before := c
		half, ok := c.halve()
		if !ok || !slices.Equal(half, c) || !slices.Equal(sumOf(half, c), before) || slices.Compare(c, before) >= 0 {
			t.Fatalf("halving %x: ok %v, halves %x and %x", before, ok, half, c)
		}
	}
	less := func(a, b credit) bool { return slices.Compare(a, b) < 0 }
	if !less(piece(3), piece(2)) || less(piece(2), piece(3)) || less(unit, unit) || !less(nil, piece(creditBound)) || !less(piece(64), sumOf(piece(63), piece(64))) {
		t.Error("credits do not order as the numbers they are")
	}
}

// TestCreditExponentBound drives credits to the bound: the unit, and a
// piece 130 halvings above the bound, halve into each next piece across
// word boundaries, down to the smallest piece; then a split fails and
// changes nothing, also when the credit holds more than that piece. So
// does splitting nothing.
func TestCreditExponentBound(t *testing.T) {
	for _, from := range []int{0, creditBound - 130} {
		c := piece(from)
		for e := from + 1; e <= from+130; e++ {
			if half, ok := c.halve(); !ok || !slices.Equal(half, piece(e)) || !slices.Equal(c, half) {
				t.Fatalf("split %d of 2^-%d: ok %v", e-from, from, ok)
			}
		}
	}
	for _, c := range []credit{piece(creditBound), sumOf(piece(1), piece(creditBound))} {
		before := c
		if _, ok := c.halve(); ok || !slices.Equal(c, before) {
			t.Fatal("a credit at the bound was split")
		}
	}
	var zero credit
	if _, ok := zero.halve(); ok {
		t.Fatal("zero credit was split")
	}
}

// TestCreditWireForm: a credit goes on the wire as its exponents, largest
// piece first, and back; out of order, repeated or beyond the bound they
// are a *wire.Error.
func TestCreditWireForm(t *testing.T) {
	c := sumOf(piece(0), piece(63), piece(64), piece(creditBound))
	var w wire.Writer
	putCredit(&w, c)
	r := wire.NewReader(w.B)
	if r.Count() != 4 || r.Uvarint() != 0 || r.Uvarint() != 63 || r.Uvarint() != 64 || r.Uvarint() != creditBound || r.Done() != nil {
		t.Fatalf("%x is not the four exponents in ascending order", w.B)
	}
	if back := getCredit(wire.NewReader(w.B)); !slices.Equal(back, c) {
		t.Fatal("credit did not round-trip")
	}
	for _, body := range [][]byte{{2, 5, 5}, {2, 5, 4}, binary.AppendUvarint([]byte{1}, creditBound+1)} {
		r := wire.NewReader(body)
		if getCredit(r); r.Err() == nil {
			t.Errorf("credit % x decoded cleanly", body)
		}
	}
}

// TestCreditBoundDeclinesGrant: a busy worker whose credit has a piece at
// the bound declines a remote request — answers it empty, keeps its work
// and traces the decline — while a worker one split away grants, and its
// share and the grant's are the two smallest pieces.
func TestCreditBoundDeclinesGrant(t *testing.T) {
	r := newStealRig(t, 1, 1)
	r.st.held = piece(creditBound - 1)
	r.st.run.tracer = metrics.NewTracer(16)
	c := r.w.cores[0]
	c.stack.PushRoot(0, 1, 40)
	for want := 0; want < 2; want++ {
		r.w.serveSteal(r.remoteReq())
		c.donate(r.st)
		resp := r.responses(t)
		if want == 0 && (len(resp) != 1 || !slices.Equal(resp[0].Prefix, []subgraph.Word{0}) || !slices.Equal(resp[0].Credit, piece(creditBound))) {
			t.Fatalf("first request: sent %+v, want the grant [0] carrying 2^-%d", resp, creditBound)
		}
		if want == 1 && (len(resp) != 1 || len(resp[0].Prefix) != 0 || len(resp[0].Credit) != 0 || c.stack.Pending() != 39) {
			t.Fatalf("request at the bound: sent %+v with %d roots left, want an empty answer and 39", resp, c.stack.Pending())
		}
	}
	if !slices.Equal(r.st.held, piece(creditBound)) {
		t.Error("the donor does not hold the piece it kept")
	}
	if ev := r.st.run.tracer.Events(); len(ev) != 1 || ev[0].Kind != metrics.TraceStealDecline || ev[0].Worker != 0 || ev[0].Core != 0 {
		t.Errorf("trace %+v, want the one decline, by core 0 of worker 0", ev)
	}
}
