package sched

import (
	"fmt"
	"math"

	"fractal/internal/metrics"
	"fractal/internal/subgraph"
	"fractal/internal/wire"
)

// Message kinds carried in rpc.Envelope.Kind. Eleven of them carry a body,
// of 9 Go types: kStepEnd, kCancel and kStatusPing carry an attemptKey and
// nothing else; kShutdown carries none. A cancel is answered by the kAggDone
// a step end gets, shipping nothing.
const (
	kStepStart uint8 = iota + 1
	kStepEnd
	kAggData
	kAggDone
	kStatusPing
	kStatusReport
	kStealReq
	kStealResp
	kShutdown
	kCancel
	kRegister
	kWelcome
)

// Exported aliases of the kinds fault-injection schedules (rpc.FaultRule.Kind)
// target — "sever worker 1 when it ships its first aggregation partial" —
// without this package leaking its message structs.
const (
	KindStepStart    = kStepStart
	KindAggData      = kAggData
	KindStatusPing   = kStatusPing
	KindStatusReport = kStatusReport
	KindStealResp    = kStealResp
)

// attemptKey names one execution attempt of one step of one job. Every
// step-scoped message opens with it: a retried step re-executes from scratch
// under a new Attempt, and both sides discard messages whose key is not the
// attempt they run — which is what guarantees a stale partial from a failed
// attempt (still queued in a mailbox, or shipped by a worker the master
// already gave up on) can never leak into the retried step's aggregations or
// steal traffic. The step end (kStepEnd), the cancel (kCancel) and the status
// ping (kStatusPing) hold nothing else: their body is the key.
//
// A step end tells a worker the step is globally quiescent: stop cores and
// ship aggregation partials. A cancel tells it the master has abandoned the
// attempt (context cancellation, deadline, or worker loss): stop cores,
// discard partial aggregations, and ship none. Both are answered by one
// aggDoneMsg (worker.stopStep). A status ping is the master's liveness probe
// after WorkerTimeout of silence; each participant answers with one
// statusReportMsg marked Reply.
type attemptKey struct {
	Job, Step, Attempt int
}

// stepStartMsg tells a worker to start executing a step. Workers lists the
// attempt's participants in rank order, each with the listener address it
// registered (empty in process): a retry may exclude lost workers, and the
// remaining ones re-partition the root domain among
// len(Workers)×CoresPerWorker cores and steal only from each other, at
// those addresses — the step start is how a worker process learns where
// its peers listen. Env
// carries, encoded with the aggregation wire codec, every aggregation the
// step's AggFilter primitives read, whether an earlier job or an earlier
// step of this job computed it: a remote worker decodes them (agg.Decode)
// into the attempt's environment, so a worker that joined mid-job reads
// what every other one does. The master encodes them once per step. Spec
// is the job the step belongs to, which a worker process installs the first
// time a step start names a job newer than the one it holds. An in-process
// deployment shares the job and the registry by reference and leaves Env
// and Spec empty. Share is each participant's equal share of the unit of
// credit (DESIGN §6).
type stepStartMsg struct {
	attemptKey
	Workers []peerAddr
	Env     []envEntry
	Spec    wireSpec
	Share   credit
}

// aggDataMsg carries one frame of one worker's partial aggregation for one
// name (agg.Store.FoldToFrames): a complete payload of the aggregation wire
// codec holding a run of ascending keys. A worker's frames for a name leave
// in key order, and the transport keeps the order of one sender. Decoded,
// Data aliases the envelope body — the master keeps frames as received until
// it folds them.
type aggDataMsg struct {
	attemptKey
	Worker int
	Name   string
	Data   []byte
}

// aggDoneMsg ends a worker's part of an attempt, at a step end or a cancel:
// its cores have stopped. Sent counts the aggData messages — frames — that
// preceded it (0 for a cancel), and Errs carries one entry per aggregation
// whose partial could not be folded, encoded, or shipped, and one for work a
// core still held at a step end. A non-empty Errs fails the step with an
// AggregationError at the master — a partial that cannot be assembled must
// fail loudly, never silently ship a wrong or missing result. Counters is
// the worker's counter block for the attempt: its cores' blocks summed,
// plus its own merge time and shipped bytes (zero when a cancel finds the
// worker not running the attempt). It rides the message that ends the
// attempt anyway, so the master's report costs no message of its own.
type aggDoneMsg struct {
	attemptKey
	Worker   int
	Sent     int
	Errs     []string
	Counters metrics.Snapshot
}

// statusReportMsg is a worker's status: sent when its activity count falls
// to 0 (its last core ran dry) and as the Reply to a ping. Returned is the
// credit the worker has handed back in the attempt so far; it only grows,
// so the master keeps the largest one it has seen, whatever order reports
// arrive in. A report from a worker not Running the attempt carries Err
// instead of Active and Returned: why, when it could not install the job
// ("" when it merely never received its step start).
type statusReportMsg struct {
	attemptKey
	Worker   int
	Reply    bool
	Running  bool
	Active   int64
	Returned credit
	Err      string
}

// stealReqMsg asks a worker to donate one enumeration prefix.
type stealReqMsg struct {
	attemptKey
	Worker int // requesting worker
	Core   int // requesting core (worker-local index)
}

// stealRespMsg answers a stealReqMsg. An empty Prefix means no work; a
// prefix carries Credit, half its donor's, and nothing else does.
type stealRespMsg struct {
	attemptKey
	Core   int // destination core (worker-local index)
	Prefix []subgraph.Word
	Credit credit
}

// registerMsg is a worker process introducing itself to the master: the
// address its own listener is bound to (for the master's address book and
// for peer-to-peer stealing). It is the only message sent with an
// Unregistered envelope From.
type registerMsg struct {
	Addr string
}

// welcomeMsg is the master's registration reply: the worker's assigned ID
// plus the execution configuration every participant must agree on. The
// worker adopts the ID from it; the master names the worker in step starts
// only once the welcome has been sent, so on its connection it arrives
// first.
type welcomeMsg struct {
	Worker         int
	CoresPerWorker int
	WS             uint8
	WorkerTimeout  int64 // ns
}

// peerAddr is one participant of a step start: its worker ID and the
// address its listener registered.
type peerAddr struct {
	Worker int
	Addr   string
}

// wireSpec names a job over the wire, inside its step starts: the
// registered app, the graph it loads, its arguments, and the names of the
// environment the job runs against. Every participant reconstructs the
// identical workflow from it via the app's registered SpecBuilder, and the
// names make step.Split give it the master's step list; the aggregations
// themselves ride the step starts' Env. The job's id is the attemptKey's.
type wireSpec struct {
	App   string
	Graph string
	Args  []kvPair
	Env   []string
}

// kvPair is one spec argument; Args are sorted by key so the encoding is
// canonical.
type kvPair struct {
	K, V string
}

// envEntry is one encoded environment aggregation.
type envEntry struct {
	Name string
	Data []byte
}

// ---------------------------------------------------------------------------
// Wire form
//
// A message body is a fixed field sequence over the shared leaf reader/writer
// (internal/wire): varint integers, length-prefixed strings, byte slices and
// sequences, no self-description — the envelope kind, not the body,
// identifies the shape. The set is closed (this package owns both ends), and
// every message type carries its own put/get pair, so a type without a wire
// form does not compile as an argument of encode or decode. A step-scoped
// message embeds attemptKey, whose pair it shadows with its own; the golden
// table (messageCases) is what catches one that forgets to.

// message is a control-message body: put is declared on the value, get on
// the pointer, so call sites encode either and decode into a pointer.
type message interface{ put(w *wire.Writer) }

// encode returns the wire form of a message body.
func encode(m message) []byte {
	var w wire.Writer
	m.put(&w)
	return w.B
}

// decode fills m, a pointer to the struct matching the envelope kind, from
// a message body. Truncated input, a count beyond the bytes that remain, an
// out-of-range value and trailing bytes are all errors.
func decode(data []byte, m interface{ get(r *wire.Reader) }) error {
	r := wire.NewReader(data)
	m.get(r)
	if err := r.Done(); err != nil {
		return fmt.Errorf("sched: corrupt %T body: %w", m, err)
	}
	return nil
}

// putSeq writes a counted sequence; getSeq reads one (nil when empty). The
// count is checked against the bytes that remain before the slice is made.
func putSeq[T any](w *wire.Writer, vs []T, put func(*wire.Writer, T)) {
	w.Count(len(vs))
	for _, v := range vs {
		put(w, v)
	}
}

func getSeq[T any](r *wire.Reader, get func(*wire.Reader) T) []T {
	n := r.Count()
	if n == 0 {
		return nil
	}
	out := make([]T, n)
	for i := range out {
		out[i] = get(r)
	}
	return out
}

// put and get carry the key that opens every step-scoped message.
func (k attemptKey) put(w *wire.Writer) {
	w.Int(k.Job)
	w.Int(k.Step)
	w.Int(k.Attempt)
}

func (k *attemptKey) get(r *wire.Reader) { k.Job, k.Step, k.Attempt = r.Int(), r.Int(), r.Int() }

func putWord(w *wire.Writer, v subgraph.Word) { w.Varint(int64(v)) }

func getWord(r *wire.Reader) subgraph.Word {
	v := r.Varint()
	if v < math.MinInt32 || v > math.MaxInt32 {
		r.Failf("prefix word %d out of range", v)
	}
	return subgraph.Word(v)
}

// counterFields lists a counter block's scalars in wire order.
func counterFields(c *metrics.Snapshot) [16]*int64 {
	return [...]*int64{
		&c.ExtensionTests, &c.Subgraphs, &c.StealsInternal, &c.StealsExternal, &c.StealBytes,
		&c.StealTimeNs, &c.BusyTimeNs, &c.IdleTimeNs, &c.PeakStateBytes,
		&c.AbandonedExts, &c.AggMergeTimeNs, &c.AggShippedBytes, &c.QuickPatterns, &c.CanonCalls,
		&c.ClassesPruned, &c.SubgraphsPruned,
	}
}

// putCounters and getCounters carry a counter block: its scalars as
// varints, then CoreWork as a counted sequence.
func putCounters(w *wire.Writer, c metrics.Snapshot) {
	for _, v := range counterFields(&c) {
		w.Varint(*v)
	}
	putSeq(w, c.CoreWork, (*wire.Writer).Varint)
}

func getCounters(r *wire.Reader) (c metrics.Snapshot) {
	for _, v := range counterFields(&c) {
		*v = r.Varint()
	}
	c.CoreWork = getSeq(r, (*wire.Reader).Varint)
	return c
}

func putEnvEntry(w *wire.Writer, e envEntry) {
	w.Str(e.Name)
	w.Bytes(e.Data)
}

func getEnvEntry(r *wire.Reader) envEntry { return envEntry{Name: r.Str(), Data: r.Bytes()} }

func putPeer(w *wire.Writer, p peerAddr) {
	w.Int(p.Worker)
	w.Str(p.Addr)
}

func getPeer(r *wire.Reader) peerAddr { return peerAddr{Worker: r.Int(), Addr: r.Str()} }

func putKV(w *wire.Writer, kv kvPair) {
	w.Str(kv.K)
	w.Str(kv.V)
}

func getKV(r *wire.Reader) kvPair { return kvPair{K: r.Str(), V: r.Str()} }

func (m stepStartMsg) put(w *wire.Writer) {
	m.attemptKey.put(w)
	putSeq(w, m.Workers, putPeer)
	putSeq(w, m.Env, putEnvEntry)
	w.Str(m.Spec.App)
	w.Str(m.Spec.Graph)
	putSeq(w, m.Spec.Args, putKV)
	putSeq(w, m.Spec.Env, (*wire.Writer).Str)
	putCredit(w, m.Share)
}

func (m *stepStartMsg) get(r *wire.Reader) {
	m.attemptKey.get(r)
	m.Workers = getSeq(r, getPeer)
	m.Env = getSeq(r, getEnvEntry)
	m.Spec.App = r.Str()
	m.Spec.Graph = r.Str()
	m.Spec.Args = getSeq(r, getKV)
	m.Spec.Env = getSeq(r, (*wire.Reader).Str)
	m.Share = getCredit(r)
}

func (m aggDataMsg) put(w *wire.Writer) {
	m.attemptKey.put(w)
	w.Int(m.Worker)
	w.Str(m.Name)
	w.Bytes(m.Data)
}

func (m *aggDataMsg) get(r *wire.Reader) {
	m.attemptKey.get(r)
	m.Worker = r.Int()
	m.Name = r.Str()
	m.Data = r.View()
}

func (m aggDoneMsg) put(w *wire.Writer) {
	m.attemptKey.put(w)
	w.Int(m.Worker)
	w.Int(m.Sent)
	putSeq(w, m.Errs, (*wire.Writer).Str)
	putCounters(w, m.Counters)
}

func (m *aggDoneMsg) get(r *wire.Reader) {
	m.attemptKey.get(r)
	m.Worker = r.Int()
	m.Sent = r.Int()
	m.Errs = getSeq(r, (*wire.Reader).Str)
	m.Counters = getCounters(r)
}

func (m statusReportMsg) put(w *wire.Writer) {
	m.attemptKey.put(w)
	w.Int(m.Worker)
	w.Bool(m.Reply)
	w.Bool(m.Running)
	if m.Running {
		w.Varint(m.Active)
		putCredit(w, m.Returned)
	} else {
		w.Str(m.Err)
	}
}

func (m *statusReportMsg) get(r *wire.Reader) {
	m.attemptKey.get(r)
	m.Worker = r.Int()
	m.Reply = r.Bool()
	m.Running = r.Bool()
	if m.Running {
		m.Active = r.Varint()
		m.Returned = getCredit(r)
	} else {
		m.Err = r.Str()
	}
}

func (m stealReqMsg) put(w *wire.Writer) {
	m.attemptKey.put(w)
	w.Int(m.Worker)
	w.Int(m.Core)
}

func (m *stealReqMsg) get(r *wire.Reader) {
	m.attemptKey.get(r)
	m.Worker = r.Int()
	m.Core = r.Int()
}

func (m stealRespMsg) put(w *wire.Writer) {
	m.attemptKey.put(w)
	w.Int(m.Core)
	putSeq(w, m.Prefix, putWord)
	if len(m.Prefix) > 0 {
		putCredit(w, m.Credit)
	}
}

func (m *stealRespMsg) get(r *wire.Reader) {
	m.attemptKey.get(r)
	m.Core = r.Int()
	m.Prefix = getSeq(r, getWord)
	if len(m.Prefix) > 0 {
		if m.Credit = getCredit(r); len(m.Credit) == 0 {
			r.Failf("a granted prefix without credit")
		}
	}
}

func (m registerMsg) put(w *wire.Writer)  { w.Str(m.Addr) }
func (m *registerMsg) get(r *wire.Reader) { m.Addr = r.Str() }

func (m welcomeMsg) put(w *wire.Writer) {
	w.Int(m.Worker)
	w.Int(m.CoresPerWorker)
	w.Byte(m.WS)
	w.Varint(m.WorkerTimeout)
}

func (m *welcomeMsg) get(r *wire.Reader) {
	m.Worker = r.Int()
	m.CoresPerWorker = r.Int()
	m.WS = r.Byte()
	m.WorkerTimeout = r.Varint()
}
