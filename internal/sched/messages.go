package sched

import (
	"fmt"
	"math"

	"fractal/internal/metrics"
	"fractal/internal/subgraph"
	"fractal/internal/wire"
)

// Message kinds carried in rpc.Envelope.Kind.
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
	kCancelAck
	kRegister
	kWelcome
	kPeerJoin
	kJobSpec
	kJobSpecAck
	kJobEnd
)

// Exported kind aliases, so fault-injection schedules (rpc.FaultRule.Kind)
// can target specific protocol messages — "sever worker 1 when it ships its
// first aggregation partial" — without this package leaking its message
// structs.
const (
	KindStepStart    = kStepStart
	KindStepEnd      = kStepEnd
	KindAggData      = kAggData
	KindAggDone      = kAggDone
	KindStatusPing   = kStatusPing
	KindStatusReport = kStatusReport
	KindStealReq     = kStealReq
	KindStealResp    = kStealResp
	KindCancel       = kCancel
	KindCancelAck    = kCancelAck
	KindRegister     = kRegister
	KindWelcome      = kWelcome
	KindJobSpec      = kJobSpec
	KindJobSpecAck   = kJobSpecAck
	KindJobEnd       = kJobEnd
)

// Every step-scoped message carries the master's Attempt counter alongside
// Job and Step. A retried step re-executes from scratch under a new attempt
// number, and both sides discard messages from other attempts — this is what
// guarantees a stale partial from a failed attempt (still queued in a
// mailbox, or shipped by a worker the master already gave up on) can never
// leak into the retried step's aggregations or steal traffic.

// stepStartMsg tells a worker to start executing a step. Workers lists the
// participating worker IDs for this attempt — a retry may exclude lost
// workers, and the remaining ones re-partition the root domain among
// len(Workers)×CoresPerWorker cores and steal only from each other. Env
// carries the environment aggregations committed by earlier steps of the
// same job (encoded with the aggregation wire codec): remote workers fold
// them into their job environment before building the attempt, so
// multi-step jobs whose later steps read earlier steps' results — and
// workers that joined after those steps committed — see the same
// environment the master does. In-process deployments share the registry
// by reference and leave Env empty.
type stepStartMsg struct {
	Job, Step, Attempt int
	Workers            []int
	Env                []envEntry
}

// stepEndMsg tells a worker the step is globally quiescent: stop cores and
// report aggregation partials.
type stepEndMsg struct {
	Job, Step, Attempt int
}

// cancelMsg tells a worker the master has abandoned the step attempt
// (context cancellation, deadline, or worker loss): stop cores immediately,
// discard partial aggregations, and report nothing but a cancelAckMsg.
type cancelMsg struct {
	Job, Step, Attempt int
}

// cancelAckMsg confirms that a worker has drained the cancelled step: its
// cores have stopped, and Counters is their summed counter block (including
// abandoned-work counts). Sent even when the worker was not running the
// step — Counters is then zero — so the master's bounded drain wait
// completes fast on the healthy path.
type cancelAckMsg struct {
	Job, Step, Attempt int
	Worker             int
	Counters           metrics.Snapshot
}

// aggDataMsg carries one frame of one worker's partial aggregation for one
// name (agg.Store.FoldToFrames): a complete payload of the aggregation wire
// codec holding a run of ascending keys. A worker's frames for a name leave
// in key order, and the transport keeps the order of one sender. Decoded,
// Data aliases the envelope body — the master keeps frames as received until
// it folds them.
type aggDataMsg struct {
	Job, Step, Attempt int
	Worker             int
	Name               string
	Data               []byte
}

// aggDoneMsg signals that a worker has finished reporting its partials:
// Sent counts the aggData messages — frames — that preceded it, and Errs
// carries one entry per aggregation whose partial could not be folded,
// encoded, or shipped. A non-empty Errs fails the step with an AggregationError at the
// master — a partial that cannot be assembled must fail loudly, never
// silently ship a wrong or missing result. Counters is the worker's counter
// block for the attempt: its cores' blocks summed, plus its own merge time
// and shipped bytes. It rides the message that ends the attempt anyway, so
// the master's report costs no message of its own.
type aggDoneMsg struct {
	Job, Step, Attempt int
	Worker             int
	Sent               int
	Errs               []string
	Counters           metrics.Snapshot
}

// statusPingMsg asks every participant for its current status: the
// master's confirmation wave once the newest reports say the step is over,
// and its liveness probe after WorkerTimeout of silence. Each participant
// answers with one statusReportMsg marked Reply.
type statusPingMsg struct {
	Job, Step, Attempt int
}

// statusReportMsg is a worker's status: sent on each edge of its activity
// count (busy→idle when its last core runs dry, idle→busy when it adopts a
// remote grant) and as the Reply to a ping. Seq numbers the worker's edges in
// the attempt from 1, the installed and busy state the master assumes
// without a report, so the master keeps the newest report whatever order
// they arrive in; a Reply with Seq 0 says the worker is not running the
// attempt. Active is the worker's activity count; Granted and Adopted count
// the work-carrying steal responses it sent and adopted (empty answers and
// requests carry no work and are not counted).
type statusReportMsg struct {
	Job, Step, Attempt int
	Worker             int
	Reply              bool
	Seq                int64
	Active             int64
	Granted            int64
	Adopted            int64
}

// stealReqMsg asks a worker to donate one enumeration prefix.
type stealReqMsg struct {
	Job, Step, Attempt int
	Worker             int // requesting worker
	Core               int // requesting core (worker-local index)
}

// stealRespMsg answers a stealReqMsg. An empty Prefix means no work.
type stealRespMsg struct {
	Job, Step, Attempt int
	Core               int // destination core (worker-local index)
	Prefix             []subgraph.Word
}

// registerMsg is a worker process introducing itself to the master: the
// address its own listener is bound to (for the master's address book and
// for peer-to-peer stealing). It is the only message sent with an
// Unregistered envelope From.
type registerMsg struct {
	Addr string
}

// welcomeMsg is the master's registration reply: the worker's assigned ID
// plus the execution configuration every participant must agree on and the
// current address book. Receipt completes the handshake — the worker adopts
// the ID and becomes eligible for the next step's participant list.
type welcomeMsg struct {
	Worker         int
	CoresPerWorker int
	WS             uint8
	IdleSleep      int64 // ns
	WorkerTimeout  int64 // ns
	Peers          []peerAddr
}

// peerAddr is one address-book entry.
type peerAddr struct {
	Worker int
	Addr   string
}

// peerJoinMsg tells already-registered workers about a newly joined peer so
// they can extend their own address books (external steals are
// worker-to-worker).
type peerJoinMsg struct {
	Worker int
	Addr   string
}

// jobSpecMsg names a job over the wire: the registered app, the graph it
// loads, its arguments, and any environment aggregations (encoded with the
// aggregation wire codec) the step closures read. Every participant
// reconstructs the identical workflow from this spec via the app's
// registered SpecBuilder.
type jobSpecMsg struct {
	Job   int
	App   string
	Graph string
	Args  []kvPair
	Env   []envEntry
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

// jobSpecAckMsg confirms a worker has materialized a job spec (loaded the
// graph, built the workflow) or failed to. Only spec-ready workers are
// admitted to a job's participant lists.
type jobSpecAckMsg struct {
	Job    int
	Worker int
	Err    string
}

// jobEndMsg tells workers a job is complete and its cached state can be
// dropped.
type jobEndMsg struct {
	Job int
}

// ---------------------------------------------------------------------------
// Wire form
//
// A message body is a fixed field sequence over the shared leaf reader/writer
// (internal/wire): varint integers, length-prefixed strings, byte slices and
// sequences, no self-description — the envelope kind, not the body,
// identifies the shape. The set is closed (this package owns both ends), and
// every message type carries its own put/get pair, so a type without a wire
// form does not compile as an argument of encode or decode.

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

// putAttempt and getAttempt carry the (job, step, attempt) triple that
// opens every step-scoped message.
func putAttempt(w *wire.Writer, job, step, attempt int) {
	w.Int(job)
	w.Int(step)
	w.Int(attempt)
}

func getAttempt(r *wire.Reader, job, step, attempt *int) {
	*job, *step, *attempt = r.Int(), r.Int(), r.Int()
}

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
	putAttempt(w, m.Job, m.Step, m.Attempt)
	putSeq(w, m.Workers, (*wire.Writer).Int)
	putSeq(w, m.Env, putEnvEntry)
}

func (m *stepStartMsg) get(r *wire.Reader) {
	getAttempt(r, &m.Job, &m.Step, &m.Attempt)
	m.Workers = getSeq(r, (*wire.Reader).Int)
	m.Env = getSeq(r, getEnvEntry)
}

func (m stepEndMsg) put(w *wire.Writer)  { putAttempt(w, m.Job, m.Step, m.Attempt) }
func (m *stepEndMsg) get(r *wire.Reader) { getAttempt(r, &m.Job, &m.Step, &m.Attempt) }

func (m cancelMsg) put(w *wire.Writer)  { putAttempt(w, m.Job, m.Step, m.Attempt) }
func (m *cancelMsg) get(r *wire.Reader) { getAttempt(r, &m.Job, &m.Step, &m.Attempt) }

func (m cancelAckMsg) put(w *wire.Writer) {
	putAttempt(w, m.Job, m.Step, m.Attempt)
	w.Int(m.Worker)
	putCounters(w, m.Counters)
}

func (m *cancelAckMsg) get(r *wire.Reader) {
	getAttempt(r, &m.Job, &m.Step, &m.Attempt)
	m.Worker = r.Int()
	m.Counters = getCounters(r)
}

func (m aggDataMsg) put(w *wire.Writer) {
	putAttempt(w, m.Job, m.Step, m.Attempt)
	w.Int(m.Worker)
	w.Str(m.Name)
	w.Bytes(m.Data)
}

func (m *aggDataMsg) get(r *wire.Reader) {
	getAttempt(r, &m.Job, &m.Step, &m.Attempt)
	m.Worker = r.Int()
	m.Name = r.Str()
	m.Data = r.View()
}

func (m aggDoneMsg) put(w *wire.Writer) {
	putAttempt(w, m.Job, m.Step, m.Attempt)
	w.Int(m.Worker)
	w.Int(m.Sent)
	putSeq(w, m.Errs, (*wire.Writer).Str)
	putCounters(w, m.Counters)
}

func (m *aggDoneMsg) get(r *wire.Reader) {
	getAttempt(r, &m.Job, &m.Step, &m.Attempt)
	m.Worker = r.Int()
	m.Sent = r.Int()
	m.Errs = getSeq(r, (*wire.Reader).Str)
	m.Counters = getCounters(r)
}

func (m statusPingMsg) put(w *wire.Writer)  { putAttempt(w, m.Job, m.Step, m.Attempt) }
func (m *statusPingMsg) get(r *wire.Reader) { getAttempt(r, &m.Job, &m.Step, &m.Attempt) }

func (m statusReportMsg) put(w *wire.Writer) {
	putAttempt(w, m.Job, m.Step, m.Attempt)
	w.Int(m.Worker)
	w.Bool(m.Reply)
	for _, v := range [...]int64{m.Seq, m.Active, m.Granted, m.Adopted} {
		w.Varint(v)
	}
}

func (m *statusReportMsg) get(r *wire.Reader) {
	getAttempt(r, &m.Job, &m.Step, &m.Attempt)
	m.Worker = r.Int()
	m.Reply = r.Bool()
	for _, v := range [...]*int64{&m.Seq, &m.Active, &m.Granted, &m.Adopted} {
		*v = r.Varint()
	}
}

func (m stealReqMsg) put(w *wire.Writer) {
	putAttempt(w, m.Job, m.Step, m.Attempt)
	w.Int(m.Worker)
	w.Int(m.Core)
}

func (m *stealReqMsg) get(r *wire.Reader) {
	getAttempt(r, &m.Job, &m.Step, &m.Attempt)
	m.Worker = r.Int()
	m.Core = r.Int()
}

func (m stealRespMsg) put(w *wire.Writer) {
	putAttempt(w, m.Job, m.Step, m.Attempt)
	w.Int(m.Core)
	putSeq(w, m.Prefix, putWord)
}

func (m *stealRespMsg) get(r *wire.Reader) {
	getAttempt(r, &m.Job, &m.Step, &m.Attempt)
	m.Core = r.Int()
	m.Prefix = getSeq(r, getWord)
}

func (m registerMsg) put(w *wire.Writer)  { w.Str(m.Addr) }
func (m *registerMsg) get(r *wire.Reader) { m.Addr = r.Str() }

func (m welcomeMsg) put(w *wire.Writer) {
	w.Int(m.Worker)
	w.Int(m.CoresPerWorker)
	w.Byte(m.WS)
	w.Varint(m.IdleSleep)
	w.Varint(m.WorkerTimeout)
	putSeq(w, m.Peers, putPeer)
}

func (m *welcomeMsg) get(r *wire.Reader) {
	m.Worker = r.Int()
	m.CoresPerWorker = r.Int()
	m.WS = r.Byte()
	m.IdleSleep = r.Varint()
	m.WorkerTimeout = r.Varint()
	m.Peers = getSeq(r, getPeer)
}

func (m peerJoinMsg) put(w *wire.Writer)  { putPeer(w, peerAddr(m)) }
func (m *peerJoinMsg) get(r *wire.Reader) { *m = peerJoinMsg(getPeer(r)) }

func (m jobSpecMsg) put(w *wire.Writer) {
	w.Int(m.Job)
	w.Str(m.App)
	w.Str(m.Graph)
	putSeq(w, m.Args, putKV)
	putSeq(w, m.Env, putEnvEntry)
}

func (m *jobSpecMsg) get(r *wire.Reader) {
	m.Job = r.Int()
	m.App = r.Str()
	m.Graph = r.Str()
	m.Args = getSeq(r, getKV)
	m.Env = getSeq(r, getEnvEntry)
}

func (m jobSpecAckMsg) put(w *wire.Writer) {
	w.Int(m.Job)
	w.Int(m.Worker)
	w.Str(m.Err)
}

func (m *jobSpecAckMsg) get(r *wire.Reader) {
	m.Job = r.Int()
	m.Worker = r.Int()
	m.Err = r.Str()
}

func (m jobEndMsg) put(w *wire.Writer)  { w.Int(m.Job) }
func (m *jobEndMsg) get(r *wire.Reader) { m.Job = r.Int() }
