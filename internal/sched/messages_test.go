package sched

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"fractal/internal/agg"
	"fractal/internal/graph"
	"fractal/internal/metrics"
	"fractal/internal/pattern"
	"fractal/internal/subgraph"
	"fractal/internal/wire"
)

// wireMessage is both halves of a message body's wire form.
type wireMessage interface {
	message
	get(r *wire.Reader)
}

// newMessage returns an empty message of the struct the envelope kind
// carries, or nil for a kind with no body (kShutdown) or no meaning.
func newMessage(kind uint8) wireMessage {
	switch kind {
	case kStepStart:
		return &stepStartMsg{}
	case kStepEnd, kStatusPing, kCancel:
		return &attemptKey{}
	case kAggData:
		return &aggDataMsg{}
	case kAggDone:
		return &aggDoneMsg{}
	case kStatusReport:
		return &statusReportMsg{}
	case kStealReq:
		return &stealReqMsg{}
	case kStealResp:
		return &stealRespMsg{}
	case kRegister:
		return &registerMsg{}
	case kWelcome:
		return &welcomeMsg{}
	}
	return nil
}

// messageCases holds at least one message of each of the 11 kinds that carry
// a body (9 Go types: the step end, cancel and status ping are each an
// attemptKey) with its body in hex. The bodies were generated at the commit
// before the codec moved onto the shared reader/writer, and the wire form
// did not change.
// The message that ends a step attempt, aggDone, closes with the worker's
// counter block — 16 varints (13 until
// PR 16 appended QuickPatterns and CanonCalls, 15 until PR 20 appended
// ClassesPruned and SubgraphsPruned, 17 until PR 21 dropped the steal-scan slot)
// and the counted CoreWork sequence, 17 zero bytes when empty. PR 21 also
// redrew the status pair: the ping lost its round number, and the report is
// the edge-triggered one (Seq and the grant counts). Since PR 33 a job
// spec's Env is the environment's names only; the aggregations ride the
// step starts. Spelling the key as an embedded attemptKey changed no body.
// The step start now carries the job spec — the former job-spec message's
// body less its job id, which the key holds, four zero bytes when empty: the
// jobSpec cases are step starts — and that message and its ack are gone. A
// status reply with Seq 0 ends with its Err; no other report changed.
// A step start names each participant with the address it registered (empty
// in process), so the welcome lost its address book and the peer join is
// gone; no other body changed. An in-process step start costs one byte per
// participant for its empty address (stepStartInProcess).
// A step ends when its credit comes home (DESIGN §6): the step start closes
// with each participant's share and a granted prefix with the credit it
// carries, both as a counted ascending list of exponents, and the status
// report is redrawn — running flag, then the activity count and the credit
// returned so far, or the not-running reply's Err. An empty steal response
// and every other kind keep their bytes.
// A cancel is answered by the done message a step end gets, with nothing
// sent and no errors: its body is the former cancel ack's with those two
// zero bytes after the worker (aggDoneCancel: not running the attempt,
// aggDoneCancelCounters: every counter slot in order). The ack kind is gone,
// and register and welcome moved down one kind number; no body changed.
var messageCases = []struct {
	name   string
	kind   uint8
	in     wireMessage
	golden string
}{
	{"stepStart", kStepStart, &stepStartMsg{attemptKey: attemptKey{3, 2, 5},
		Workers: []peerAddr{{0, "a:1"}, {2, ""}, {7, "c:3"}}, Share: piece(2)},
		"06040a" + "03" + "0003613a31" + "0400" + "0e03633a33" + "00" + "00000000" + "0102"},
	{"stepStartEnv", kStepStart, &stepStartMsg{attemptKey: attemptKey{3, 1, 0}, Workers: []peerAddr{{0, "a:1"}, {1, "b:2"}},
		Env: []envEntry{{Name: "support1", Data: []byte{4, 5}}, {Name: "support2", Data: nil}}, Share: piece(1)},
		"060200" + "02" + "0003613a31" + "0203623a32" + "0208737570706f72743102040508737570706f72743200" + "00000000" + "0101"},
	{"stepStartNoWorkers", kStepStart, &stepStartMsg{attemptKey: attemptKey{Job: 1}}, "0200000000" + "00000000" + "00"},
	{"stepStartInProcess", kStepStart, &stepStartMsg{attemptKey: attemptKey{Job: 1}, Workers: []peerAddr{{Worker: 0}, {Worker: 1}}, Share: piece(1)},
		"020000" + "02" + "0000" + "0200" + "00" + "00000000" + "0101"},
	{"jobSpec", kStepStart, &stepStartMsg{attemptKey: attemptKey{Job: 2}, Workers: []peerAddr{{Worker: 1}}, Share: unit,
		Spec: wireSpec{App: "cliques", Graph: "/tmp/g.el", Args: []kvPair{{"k", "4"}, {"engine", "plan"}}, Env: []string{"support1"}}},
		"040000" + "010200" + "00" + "07636c6971756573092f746d702f672e656c02016b013406656e67696e6504706c616e0108737570706f727431" + "0100"},
	{"stepStartEnvSpec", kStepStart, &stepStartMsg{attemptKey: attemptKey{3, 1, 0}, Workers: []peerAddr{{0, "a:1"}, {1, "b:2"}}, Share: piece(1),
		Env:  []envEntry{{Name: "support1", Data: []byte{4, 5}}},
		Spec: wireSpec{App: "fsm", Graph: "g.fgr", Args: []kvPair{{"level", "2"}, {"support", "8"}}, Env: []string{"frequent1"}}},
		"060200" + "02" + "0003613a31" + "0203623a32" + "0108737570706f7274310204050366736d05672e66677202056c6576656c013207737570706f7274013801096672657175656e7431" + "0101"},
	{"jobSpecBare", kStepStart, &stepStartMsg{Spec: wireSpec{App: "motifs", Graph: "g"}}, "000000" + "00" + "00" + "066d6f7469667301670000" + "00"},
	{"stepEnd", kStepEnd, &attemptKey{1, 2, 3}, "020406"},
	{"cancel", kCancel, &attemptKey{9, 0, 1}, "120002"},
	{"aggData", kAggData, &aggDataMsg{attemptKey: attemptKey{1, 2, 3}, Worker: 4, Name: "support", Data: []byte{1, 2, 0, 255}},
		"0204060807737570706f727404010200ff"},
	{"aggDataEmpty", kAggData, &aggDataMsg{Name: ""}, "000000000000"},
	{"aggDone", kAggDone, &aggDoneMsg{attemptKey: attemptKey{1, 2, 3}, Worker: 4, Sent: 2, Errs: []string{"boom", ""}},
		"02040608040204626f6f6d00" + "0000000000000000000000000000000000"},
	{"aggDoneCounters", kAggDone, &aggDoneMsg{attemptKey: attemptKey{1, 2, 3}, Worker: 4, Sent: 1, Counters: metrics.Snapshot{
		ExtensionTests: 1 << 40, Subgraphs: 64, BusyTimeNs: 1_000_000, AggShippedBytes: 300, CoreWork: []int64{1<<40 + 64}}},
		"020406080200" + "808080808040" + "8001" + "00000000" + "80897a" + "00000000" + "d804" + "00000000" + "01" + "808180808040"},
	{"aggDoneCancel", kAggDone, &aggDoneMsg{attemptKey: attemptKey{1, 2, 3}, Worker: 4}, "02040608" + "0000" + "0000000000000000000000000000000000"},
	{"aggDoneCancelCounters", kAggDone, &aggDoneMsg{attemptKey: attemptKey{1, 2, 3}, Worker: 4, Counters: metrics.Snapshot{
		ExtensionTests: 1, Subgraphs: 2, StealsInternal: 3, StealsExternal: 4, StealBytes: 5, StealTimeNs: 6,
		BusyTimeNs: 8, IdleTimeNs: 9, PeakStateBytes: 10, AbandonedExts: 11, AggMergeTimeNs: 12, AggShippedBytes: 13,
		QuickPatterns: 14, CanonCalls: 15, ClassesPruned: 16, SubgraphsPruned: 17, CoreWork: []int64{3, 0}}},
		"02040608" + "0000" + "020406080a0c10121416181a1c1e" + "2022" + "020600"},
	{"statusPing", kStatusPing, &attemptKey{1, 2, 3}, "020406"},
	{"statusReport", kStatusReport, &statusReportMsg{attemptKey: attemptKey{1, 2, 3}, Worker: 2, Reply: true, Running: true,
		Active: 3, Returned: sumOf(piece(2), piece(5))},
		"020406" + "04" + "01" + "01" + "06" + "020205"},
	{"statusReportReturnsAll", kStatusReport, &statusReportMsg{attemptKey: attemptKey{1, 2, 3}, Worker: 2, Running: true, Returned: unit},
		"020406" + "04" + "00" + "01" + "00" + "0100"},
	{"statusReportNotRunning", kStatusReport, &statusReportMsg{attemptKey: attemptKey{1, 2, 3}, Worker: 2, Reply: true, Err: "boom"},
		"020406" + "04" + "01" + "00" + "04626f6f6d"},
	{"stealReq", kStealReq, &stealReqMsg{attemptKey: attemptKey{1, 2, 3}, Worker: 1, Core: 2}, "0204060204"},
	{"stealResp", kStealResp, &stealRespMsg{attemptKey: attemptKey{1, 2, 3}, Core: 2, Prefix: []subgraph.Word{0, -1, 1 << 30, 42},
		Credit: sumOf(piece(1), piece(3), piece(creditBound))},
		"02040604040001808080800854" + "03" + "01" + "03" + "ffff3f"},
	{"stealRespEmpty", kStealResp, &stealRespMsg{attemptKey: attemptKey{Job: 1}}, "0200000000"},
	{"register", kRegister, &registerMsg{Addr: "10.0.0.7:6001"}, "0d31302e302e302e373a36303031"},
	{"welcome", kWelcome, &welcomeMsg{Worker: 2, CoresPerWorker: 4, WS: uint8(WSBoth), WorkerTimeout: 60_000_000_000},
		"04080380e0ba84bf03"},
	{"welcomeNoPeers", kWelcome, &welcomeMsg{Worker: 0, CoresPerWorker: 1}, "00020000"},
}

// TestMessageCodecRoundTrip encodes every control-message shape, compares
// the body with its golden bytes, and decodes it back, checking
// field-for-field equality. The wire format is fixed field order with no
// self-description, so this is the guard that both sides agree.
func TestMessageCodecRoundTrip(t *testing.T) {
	for _, tc := range messageCases {
		t.Run(tc.name, func(t *testing.T) {
			body := encode(tc.in)
			if got := hex.EncodeToString(body); got != tc.golden {
				t.Errorf("body %s, golden %s", got, tc.golden)
			}
			out := newMessage(tc.kind)
			if err := decode(body, out); err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !reflect.DeepEqual(tc.in, out) {
				t.Errorf("round trip mismatch:\n in  %+v\n out %+v", tc.in, out)
			}
		})
	}
}

// keyOf returns the attempt key a message body opens with: the message
// itself, or the attemptKey it embeds as its first field.
func keyOf(m wireMessage) (attemptKey, bool) {
	v := reflect.ValueOf(m).Elem()
	if k, ok := v.Interface().(attemptKey); ok {
		return k, true
	}
	if f := v.Field(0); v.Type().Field(0).Anonymous && f.Type() == reflect.TypeOf(attemptKey{}) {
		return attemptKey{int(f.Field(0).Int()), int(f.Field(1).Int()), int(f.Field(2).Int())}, true
	}
	return attemptKey{}, false
}

// TestEveryKindHasAGoldenBody: every kind but kShutdown, which carries no
// body, has a golden case; exactly the step-scoped kinds carry an
// attemptKey, and each of their golden bodies opens with the case's key as
// three varints — the bytes both sides' attempt checks read.
func TestEveryKindHasAGoldenBody(t *testing.T) {
	stepScoped := map[uint8]bool{
		kStepStart: true, kStepEnd: true, kAggData: true, kAggDone: true, kStatusPing: true,
		kStatusReport: true, kStealReq: true, kStealResp: true, kCancel: true,
	}
	covered := map[uint8]bool{}
	for _, tc := range messageCases {
		covered[tc.kind] = true
		key, keyed := keyOf(tc.in)
		if keyed != stepScoped[tc.kind] {
			t.Errorf("%s: carries an attempt key: %v, step-scoped: %v", tc.name, keyed, stepScoped[tc.kind])
		}
		if !keyed {
			continue
		}
		body, err := hex.DecodeString(tc.golden)
		if err != nil {
			t.Fatal(err)
		}
		r := wire.NewReader(body)
		if got := (attemptKey{r.Int(), r.Int(), r.Int()}); got != key || r.Err() != nil {
			t.Errorf("%s: the golden body opens with %+v (%v), want the key %+v", tc.name, got, r.Err(), key)
		}
	}
	for kind := kStepStart; kind <= kWelcome; kind++ {
		if kind != kShutdown && !covered[kind] {
			t.Errorf("kind %d has no golden body in messageCases", kind)
		}
	}
}

// TestMessageCodecValueAndPointerAgree guards the call-site convenience of
// encoding either form.
func TestMessageCodecValueAndPointerAgree(t *testing.T) {
	m := stepStartMsg{attemptKey: attemptKey{1, 2, 3}, Workers: []peerAddr{{1, "a:1"}, {2, "b:2"}}}
	a, b := encode(m), encode(&m)
	if string(a) != string(b) {
		t.Errorf("value and pointer encodings differ: %x vs %x", a, b)
	}
}

// TestMessageCodecRejectsCorrupt feeds truncated and trailing-garbage bodies
// to decode; every case must error rather than yield a half-filled struct.
func TestMessageCodecRejectsCorrupt(t *testing.T) {
	body := encode(&aggDataMsg{attemptKey: attemptKey{1, 2, 3}, Worker: 4, Name: "n", Data: []byte{1, 2, 3}})
	for cut := 0; cut < len(body); cut++ {
		if err := decode(body[:cut], &aggDataMsg{}); err == nil {
			t.Fatalf("truncation at %d/%d decoded cleanly", cut, len(body))
		}
	}
	if err := decode(append(append([]byte{}, body...), 0xFF), &aggDataMsg{}); err == nil {
		t.Error("trailing garbage decoded cleanly")
	}
	if err := decode(encode(&stealRespMsg{Prefix: []subgraph.Word{1}})[:4], &stealRespMsg{}); err == nil {
		t.Error("truncated prefix decoded cleanly")
	}
	if err := decode([]byte{0, 0, 0, 0, 1, 0x80, 0x80, 0x80, 0x80, 0x20}, &stealRespMsg{}); err == nil {
		t.Error("prefix word beyond int32 decoded cleanly")
	}
}

// TestHostileCountsFailBeforeAllocating is the regression test of the
// count-bomb fix: a five-byte body whose slice count is far larger than the
// bytes behind it used to make ints(), words() and strs() allocate up to
// 128 MB (any count up to 1<<24 passed) before the first element failed to
// decode. The count itself is now the error. A credit is a fixed-size
// value: an exponent beyond creditBound, or more exponents than it has
// pieces, fails with nothing allocated for it.
func TestHostileCountsFailBeforeAllocating(t *testing.T) {
	count := []byte{0xff, 0xff, 0xff, 0x07} // uvarint 1<<24 - 1, under the old cap
	beyond := binary.AppendUvarint(nil, creditBound+1)
	pieces := append(binary.AppendUvarint(nil, creditBound+2), make([]byte, creditBound+1)...)
	cases := map[string]struct {
		m    wireMessage
		body []byte
	}{
		"stepStart workers":           {&stepStartMsg{}, append([]byte{0, 0, 0}, count...)},
		"stepStart addr":              {&stepStartMsg{}, append([]byte{0, 0, 0, 1, 0}, count...)},
		"stepStart env":               {&stepStartMsg{}, append([]byte{0, 0, 0, 0}, count...)},
		"stealResp prefix":            {&stealRespMsg{}, append([]byte{0, 0, 0, 0}, count...)},
		"aggDone errs":                {&aggDoneMsg{}, append([]byte{0, 0, 0, 0, 0}, count...)},
		"aggDone core work":           {&aggDoneMsg{}, append(make([]byte, 6+16), count...)},
		"stepStart spec args":         {&stepStartMsg{}, append(make([]byte, 7), count...)},
		"stepStart spec env":          {&stepStartMsg{}, append(make([]byte, 8), count...)},
		"aggData bytes":               {&aggDataMsg{}, append([]byte{0, 0, 0, 0, 0}, count...)},
		"stepStart share exponent":    {&stepStartMsg{}, append(make([]byte, 9), append([]byte{1}, beyond...)...)},
		"stepStart share count":       {&stepStartMsg{}, append(make([]byte, 9), count...)},
		"stealResp credit exponent":   {&stealRespMsg{}, append([]byte{0, 0, 0, 0, 1, 0, 1}, beyond...)},
		"statusReport credit count":   {&statusReportMsg{}, append([]byte{0, 0, 0, 0, 0, 1, 0}, pieces...)},
		"statusReport credit order":   {&statusReportMsg{}, []byte{0, 0, 0, 0, 0, 1, 0, 2, 3, 3}},
		"statusReport credit exceeds": {&statusReportMsg{}, append([]byte{0, 0, 0, 0, 0, 1, 0, 2, 0}, beyond...)},
	}
	for name, tc := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := decode(tc.body, tc.m)
		runtime.ReadMemStats(&after)
		var werr *wire.Error
		if !errors.As(err, &werr) {
			t.Errorf("%s: err = %v, want a *wire.Error", name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16 {
			t.Errorf("%s: decoding a %d-byte body allocated %d bytes", name, len(tc.body), grew)
		}
	}
}

// FuzzDecodeMessage drives a kind byte plus an arbitrary body through the
// decoder of every message struct: it never panics, fails only with a
// *wire.Error, and whatever decodes survives a round trip through its own
// encoding unchanged — with one trailing byte added, that encoding is
// rejected. A step start that decodes also has its Env decoded the way a
// worker does (decodeReads): a failure is a *wire.Error, and what it
// allocates is bounded by the body's size.
func FuzzDecodeMessage(f *testing.F) {
	for _, tc := range messageCases {
		f.Add(append([]byte{tc.kind}, encode(tc.in)...))
	}
	counts := agg.New[string, int64](agg.SumInt64)
	counts.Add("a", 3)
	sup := agg.New[string, *agg.DomainSupport](agg.ReduceDomainSupport)
	sup.Add("tri", agg.NewDomainSupport(pattern.Triangle(), 2, []graph.VertexID{5, 1, 9}, pattern.Triangle().Canonical().Perm))
	var reads []envEntry
	for i, s := range []agg.Store{counts, sup, agg.NewInt64Sums(2)} {
		data, err := s.Encode()
		if err != nil {
			f.Fatal(err)
		}
		reads = append(reads, envEntry{Name: fmt.Sprint("read", i), Data: data})
	}
	f.Add(append([]byte{kStepStart}, encode(stepStartMsg{attemptKey: attemptKey{Job: 1}, Workers: []peerAddr{{0, "127.0.0.1:7001"}}, Env: reads})...))
	// An environment whose store is cut short: the message decodes, the
	// store does not.
	cut := envEntry{Name: "cut", Data: reads[1].Data[:len(reads[1].Data)/2]}
	f.Add(append([]byte{kStepStart}, encode(stepStartMsg{attemptKey: attemptKey{Job: 1}, Workers: []peerAddr{{Worker: 0}}, Env: []envEntry{cut}})...))
	// Credit at its extremes: a share of one piece at the bound, a grant
	// carrying the pieces 2^-1 to 2^-1023 and the one at the bound, a
	// report returning as much.
	var deep credit
	for e := 1; e < 1024; e++ {
		deep.add(piece(e))
	}
	deep.add(piece(creditBound))
	f.Add(append([]byte{kStepStart}, encode(stepStartMsg{attemptKey: attemptKey{Job: 1}, Workers: []peerAddr{{Worker: 0}}, Share: piece(creditBound)})...))
	f.Add(append([]byte{kStealResp}, encode(stealRespMsg{attemptKey: attemptKey{Job: 1}, Prefix: []subgraph.Word{3}, Credit: deep})...))
	f.Add(append([]byte{kStatusReport}, encode(statusReportMsg{attemptKey: attemptKey{Job: 1}, Running: true, Returned: deep})...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		m := newMessage(data[0])
		if m == nil {
			return
		}
		var werr *wire.Error
		if err := decode(data[1:], m); err != nil {
			if !errors.As(err, &werr) {
				t.Fatalf("decode error %v is not a *wire.Error", err)
			}
			return
		}
		if start, ok := m.(*stepStartMsg); ok {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := decodeReads(start.Env)
			runtime.ReadMemStats(&after)
			if err != nil && !errors.As(err, &werr) {
				t.Fatalf("environment decode error %v is not a *wire.Error", err)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16+256*uint64(len(data)) {
				t.Fatalf("decoding a %d-byte step start's environment allocated %d bytes", len(data), grew)
			}
		}
		body := encode(m)
		back := newMessage(data[0])
		if err := decode(body, back); err != nil || !reflect.DeepEqual(m, back) {
			t.Fatalf("%+v encodes to %x, which decodes to %+v (%v)", m, body, back, err)
		}
		if !bytes.Equal(encode(back), body) {
			t.Fatalf("encoding of %+v is not stable", m)
		}
		if err := decode(append(body, 0), newMessage(data[0])); err == nil {
			t.Fatalf("%T body with a trailing byte decoded cleanly", m)
		}
	})
}
