package sched

import (
	"bytes"
	"encoding/hex"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"fractal/internal/metrics"
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
	case kStepEnd:
		return &stepEndMsg{}
	case kAggData:
		return &aggDataMsg{}
	case kAggDone:
		return &aggDoneMsg{}
	case kStatusPing:
		return &statusPingMsg{}
	case kStatusReport:
		return &statusReportMsg{}
	case kStealReq:
		return &stealReqMsg{}
	case kStealResp:
		return &stealRespMsg{}
	case kCancel:
		return &cancelMsg{}
	case kCancelAck:
		return &cancelAckMsg{}
	case kRegister:
		return &registerMsg{}
	case kWelcome:
		return &welcomeMsg{}
	case kPeerJoin:
		return &peerJoinMsg{}
	case kJobSpec:
		return &jobSpecMsg{}
	case kJobSpecAck:
		return &jobSpecAckMsg{}
	case kJobEnd:
		return &jobEndMsg{}
	}
	return nil
}

// messageCases holds at least one message of each of the 16 structs with
// its body in hex. The bodies were generated at the commit before the codec
// moved onto the shared reader/writer (PR 12): the wire form did not change.
// Since PR 15 the two messages that end a step attempt, aggDone and
// cancelAck, close with the worker's counter block — 16 varints (13 until
// PR 16 appended QuickPatterns and CanonCalls, 15 until PR 20 appended
// ClassesPruned and SubgraphsPruned, 17 until PR 21 dropped the steal-scan slot)
// and the counted CoreWork sequence, 17 zero bytes when empty. PR 21 also
// redrew the status pair: the ping lost its round number, and the report is
// the edge-triggered one (Seq and the grant counts).
var messageCases = []struct {
	name   string
	kind   uint8
	in     wireMessage
	golden string
}{
	{"stepStart", kStepStart, &stepStartMsg{Job: 3, Step: 2, Attempt: 5, Workers: []int{0, 2, 7}}, "06040a0300040e00"},
	{"stepStartEnv", kStepStart, &stepStartMsg{Job: 3, Step: 1, Attempt: 0, Workers: []int{0, 1},
		Env: []envEntry{{Name: "support1", Data: []byte{4, 5}}, {Name: "support2", Data: nil}}},
		"0602000200020208737570706f72743102040508737570706f72743200"},
	{"stepStartNoWorkers", kStepStart, &stepStartMsg{Job: 1}, "0200000000"},
	{"stepEnd", kStepEnd, &stepEndMsg{Job: 1, Step: 2, Attempt: 3}, "020406"},
	{"cancel", kCancel, &cancelMsg{Job: 9, Step: 0, Attempt: 1}, "120002"},
	{"cancelAck", kCancelAck, &cancelAckMsg{Job: 1, Step: 2, Attempt: 3, Worker: 4}, "02040608" + "0000000000000000000000000000000000"},
	{"cancelAckCounters", kCancelAck, &cancelAckMsg{Job: 1, Step: 2, Attempt: 3, Worker: 4, Counters: metrics.Snapshot{
		ExtensionTests: 1, Subgraphs: 2, StealsInternal: 3, StealsExternal: 4, StealBytes: 5, StealTimeNs: 6,
		BusyTimeNs: 8, IdleTimeNs: 9, PeakStateBytes: 10, AbandonedExts: 11, AggMergeTimeNs: 12, AggShippedBytes: 13,
		QuickPatterns: 14, CanonCalls: 15, ClassesPruned: 16, SubgraphsPruned: 17, CoreWork: []int64{3, 0}}},
		"02040608" + "020406080a0c10121416181a1c1e" + "2022" + "020600"},
	{"aggData", kAggData, &aggDataMsg{Job: 1, Step: 2, Attempt: 3, Worker: 4, Name: "support", Data: []byte{1, 2, 0, 255}},
		"0204060807737570706f727404010200ff"},
	{"aggDataEmpty", kAggData, &aggDataMsg{Name: ""}, "000000000000"},
	{"aggDone", kAggDone, &aggDoneMsg{Job: 1, Step: 2, Attempt: 3, Worker: 4, Sent: 2, Errs: []string{"boom", ""}},
		"02040608040204626f6f6d00" + "0000000000000000000000000000000000"},
	{"aggDoneCounters", kAggDone, &aggDoneMsg{Job: 1, Step: 2, Attempt: 3, Worker: 4, Sent: 1, Counters: metrics.Snapshot{
		ExtensionTests: 1 << 40, Subgraphs: 64, BusyTimeNs: 1_000_000, AggShippedBytes: 300, CoreWork: []int64{1<<40 + 64}}},
		"020406080200" + "808080808040" + "8001" + "00000000" + "80897a" + "00000000" + "d804" + "00000000" + "01" + "808180808040"},
	{"statusPing", kStatusPing, &statusPingMsg{Job: 1, Step: 2, Attempt: 3}, "020406"},
	{"statusReport", kStatusReport, &statusReportMsg{Job: 1, Step: 2, Attempt: 3, Worker: 2, Reply: true,
		Seq: 7, Active: 3, Granted: 1 << 40, Adopted: 5},
		"020406" + "04" + "01" + "0e" + "06" + "808080808040" + "0a"},
	{"stealReq", kStealReq, &stealReqMsg{Job: 1, Step: 2, Attempt: 3, Worker: 1, Core: 2}, "0204060204"},
	{"stealResp", kStealResp, &stealRespMsg{Job: 1, Step: 2, Attempt: 3, Core: 2, Prefix: []subgraph.Word{0, -1, 1 << 30, 42}},
		"02040604040001808080800854"},
	{"stealRespEmpty", kStealResp, &stealRespMsg{Job: 1}, "0200000000"},
	{"register", kRegister, &registerMsg{Addr: "10.0.0.7:6001"}, "0d31302e302e302e373a36303031"},
	{"welcome", kWelcome, &welcomeMsg{Worker: 2, CoresPerWorker: 4, WS: uint8(WSBoth), IdleSleep: 100_000, WorkerTimeout: 60_000_000_000,
		Peers: []peerAddr{{Worker: 0, Addr: "a:1"}, {Worker: 1, Addr: "b:2"}}},
		"040803c09a0c80e0ba84bf03020003613a310203623a32"},
	{"welcomeNoPeers", kWelcome, &welcomeMsg{Worker: 0, CoresPerWorker: 1}, "000200000000"},
	{"peerJoin", kPeerJoin, &peerJoinMsg{Worker: 3, Addr: "c:3"}, "0603633a33"},
	{"jobSpec", kJobSpec, &jobSpecMsg{Job: 2, App: "cliques", Graph: "/tmp/g.el",
		Args: []kvPair{{"k", "4"}, {"engine", "plan"}},
		Env:  []envEntry{{Name: "support1", Data: []byte{9, 8, 7}}}},
		"0407636c6971756573092f746d702f672e656c02016b013406656e67696e6504706c616e0108737570706f72743103090807"},
	{"jobSpecBare", kJobSpec, &jobSpecMsg{Job: 0, App: "motifs", Graph: "g"}, "00066d6f7469667301670000"},
	{"jobSpecAck", kJobSpecAck, &jobSpecAckMsg{Job: 2, Worker: 1, Err: "load failed"}, "04020b6c6f6164206661696c6564"},
	{"jobEnd", kJobEnd, &jobEndMsg{Job: 5}, "0a"},
}

// TestMessageCodecRoundTrip encodes every control-message shape, compares
// the body with its golden bytes, and decodes it back, checking
// field-for-field equality. The wire format is fixed field order with no
// self-description, so this is the guard that both sides agree.
func TestMessageCodecRoundTrip(t *testing.T) {
	kinds := map[uint8]bool{}
	for _, tc := range messageCases {
		kinds[tc.kind] = true
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
	if len(kinds) != 16 {
		t.Errorf("the table covers %d message structs, want all 16", len(kinds))
	}
}

// TestMessageCodecValueAndPointerAgree guards the call-site convenience of
// encoding either form.
func TestMessageCodecValueAndPointerAgree(t *testing.T) {
	m := stepStartMsg{Job: 1, Step: 2, Attempt: 3, Workers: []int{1, 2}}
	a, b := encode(m), encode(&m)
	if string(a) != string(b) {
		t.Errorf("value and pointer encodings differ: %x vs %x", a, b)
	}
}

// TestMessageCodecRejectsCorrupt feeds truncated and trailing-garbage bodies
// to decode; every case must error rather than yield a half-filled struct.
func TestMessageCodecRejectsCorrupt(t *testing.T) {
	body := encode(&aggDataMsg{Job: 1, Step: 2, Attempt: 3, Worker: 4, Name: "n", Data: []byte{1, 2, 3}})
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
// decode. The count itself is now the error.
func TestHostileCountsFailBeforeAllocating(t *testing.T) {
	count := []byte{0xff, 0xff, 0xff, 0x07} // uvarint 1<<24 - 1, under the old cap
	cases := map[string]struct {
		m    wireMessage
		body []byte
	}{
		"stepStart workers":   {&stepStartMsg{}, append([]byte{0, 0, 0}, count...)},
		"stepStart env":       {&stepStartMsg{}, append([]byte{0, 0, 0, 0}, count...)},
		"stealResp prefix":    {&stealRespMsg{}, append([]byte{0, 0, 0, 0}, count...)},
		"aggDone errs":        {&aggDoneMsg{}, append([]byte{0, 0, 0, 0, 0}, count...)},
		"aggDone core work":   {&aggDoneMsg{}, append(make([]byte, 6+16), count...)},
		"cancelAck core work": {&cancelAckMsg{}, append(make([]byte, 4+16), count...)},
		"welcome peers":       {&welcomeMsg{}, append([]byte{0, 0, 0, 0, 0}, count...)},
		"jobSpec args":        {&jobSpecMsg{}, append([]byte{0, 0, 0}, count...)},
		"aggData bytes":       {&aggDataMsg{}, append([]byte{0, 0, 0, 0, 0}, count...)},
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
// rejected.
func FuzzDecodeMessage(f *testing.F) {
	for _, tc := range messageCases {
		f.Add(append([]byte{tc.kind}, encode(tc.in)...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		m := newMessage(data[0])
		if m == nil {
			return
		}
		if err := decode(data[1:], m); err != nil {
			var werr *wire.Error
			if !errors.As(err, &werr) {
				t.Fatalf("decode error %v is not a *wire.Error", err)
			}
			return
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
