// Package server is the simulation-as-a-service layer: a crash-safe job
// daemon (cmd/ptmcd) that accepts experiment jobs over HTTP/JSON, runs
// them on the internal/exec pool via the ctx-aware sim.RunContext, and is
// engineered for failure first — the same philosophy the paper applies to
// PTMC itself (never lose data, degrade gracefully, keep the expensive
// machinery off the critical path).
//
// The durability contract mirrors the memory controller's: a job is
// acknowledged (HTTP 202) only after its accept record is fsync'd into the
// write-ahead job store, so a kill -9 at any instant loses no accepted
// work. On restart the daemon replays the WAL, completes jobs whose result
// artifact already landed, and re-enqueues the rest; because simulations
// are deterministic, a replayed job produces a byte-identical result. The
// chaos campaign in chaos_test.go adjudicates randomized crash, torn-write,
// and cancellation trials against this contract with a zero-LOST bar.
package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"sync"

	"ptmc/internal/sim"
	"ptmc/internal/workload"
)

// JobSpec is the wire form of one experiment job: a workload, a scheme
// matrix, and the config knobs a remote caller may vary. Zero fields take
// the paper's defaults (sim.Default). The normalized spec — not the raw
// request bytes — is what gets keyed, stored, and replayed, so two
// requests that mean the same experiment share one job.
type JobSpec struct {
	Workload string   `json:"workload"`
	Schemes  []string `json:"schemes"`
	Cores    int      `json:"cores,omitempty"`
	Warmup   int64    `json:"warmup_instr,omitempty"`
	Measure  int64    `json:"measure_instr,omitempty"`
	Seed     int64    `json:"seed,omitempty"`
	// TimeoutSec bounds each scheme's simulation (0 = server default).
	TimeoutSec int `json:"timeout_sec,omitempty"`
	// Tenant attributes the job for quota accounting ("" = "default").
	Tenant string `json:"tenant,omitempty"`
	// Priority picks the scheduling class: interactive > batch >
	// sweep-child ("" = batch). Scheduling metadata only — it does not
	// participate in the job key, so resubmitting an experiment at a
	// different priority joins the existing job rather than re-running it.
	// Persisted with the spec, so a replayed job keeps its class.
	Priority string `json:"priority,omitempty"`
	// Trace records simulation events (internal/obs) during each scheme
	// run; the per-job Chrome trace served at /jobs/{id}/trace then carries
	// the cycle-stamped simulator events alongside the per-scheme job
	// spans. Part of the job key: a traced run is a different artifact.
	Trace bool `json:"trace,omitempty"`
}

// Normalize fills defaults in place and validates the spec against the
// simulator's own rules, returning a typed *APIError on rejection.
func (s *JobSpec) Normalize() error {
	if s.Workload == "" {
		return badRequest("workload is required")
	}
	if len(s.Schemes) == 0 {
		s.Schemes = []string{sim.SchemeDynamicPTMC}
	}
	if sc, dup := duplicate(s.Schemes); dup {
		return badRequest(fmt.Sprintf("duplicate scheme %q", sc))
	}
	if s.Tenant == "" {
		s.Tenant = "default"
	}
	if s.Priority == "" {
		s.Priority = PriorityBatch
	}
	switch s.Priority {
	case PriorityInteractive, PriorityBatch, PrioritySweepChild:
	default:
		return badRequest(fmt.Sprintf("unknown priority %q (want %s|%s|%s)",
			s.Priority, PriorityInteractive, PriorityBatch, PrioritySweepChild))
	}
	if s.TimeoutSec < 0 {
		return badRequest("timeout_sec must be >= 0")
	}
	def := sim.Default()
	if s.Cores == 0 {
		s.Cores = def.Cores
	}
	if s.Warmup == 0 {
		s.Warmup = def.WarmupInstr
	}
	if s.Measure == 0 {
		s.Measure = def.MeasureInstr
	}
	if s.Seed == 0 {
		s.Seed = def.Seed
	}
	// Validate once per scheme with the simulator's own rules, so the
	// daemon rejects at accept time what the worker would reject at run
	// time (a rejected request costs no WAL write).
	for _, scheme := range s.Schemes {
		cfg := s.Config(scheme)
		if err := cfg.Validate(); err != nil {
			return badRequest(err.Error())
		}
	}
	// The mix/workload name must resolve now: an unknown workload must be
	// a 400 at submit, not a failed job an hour later.
	if _, err := workload.Lookup(s.Workload); err != nil {
		if _, merr := workload.LookupMix(s.Workload); merr != nil {
			return badRequest(fmt.Sprintf("unknown workload or mix %q", s.Workload))
		}
	}
	return nil
}

// Config maps the normalized spec to one scheme's simulator config.
func (s *JobSpec) Config(scheme string) sim.Config {
	cfg := sim.Default()
	cfg.Workload = s.Workload
	cfg.Scheme = scheme
	cfg.Cores = s.Cores
	cfg.WarmupInstr = s.Warmup
	cfg.MeasureInstr = s.Measure
	cfg.Seed = s.Seed
	cfg.Trace = s.Trace
	return cfg
}

// Key is the job's content-derived identity: workload and scheme matrix
// plus a short hash of every other knob, in the same spirit (and the same
// "|"-joined shape) as the paper runner's singleflight cache key
// (workload|scheme|variant). Identical specs — across requests, tenants,
// and daemon restarts — share one key, one WAL entry, and one persistent
// result; that is what makes repeated sweeps across restarts free.
// Priority deliberately does not participate (scheduling metadata); Trace
// does (a traced run is a different artifact).
//
// The literal "sh0|evfalse" segment is what the removed engine knobs
// (shards, event_driven) contributed at their defaults. It stays frozen so
// every key a store computed before their removal — and every result
// artifact filed under one — is still the key of the same spec: an upgrade
// neither re-simulates nor orphans anything.
func (s *JobSpec) Key() string {
	variant := fmt.Sprintf("c%d|w%d|m%d|s%d|sh0|evfalse|t%d|tr%t",
		s.Cores, s.Warmup, s.Measure, s.Seed, s.TimeoutSec, s.Trace)
	h := sha256.Sum256([]byte(s.Workload + "|" + strings.Join(s.Schemes, ",") + "|" + variant))
	return "j" + hex.EncodeToString(h[:8])
}

// SchemeKey is the per-scheme singleflight key used to deduplicate the
// actual simulations across concurrently-running jobs (two jobs sharing a
// (workload, scheme, variant) point run it once). Tenant and scheme-matrix
// membership deliberately do not participate. "sh0|evfalse" is frozen for
// the same reason as in Key.
func (s *JobSpec) SchemeKey(scheme string) string {
	return fmt.Sprintf("%s|%s|c%d|w%d|m%d|s%d|sh0|evfalse|tr%t",
		s.Workload, scheme, s.Cores, s.Warmup, s.Measure, s.Seed, s.Trace)
}

// Job states. The daemon's crash-recovery state machine (DESIGN.md) allows
// exactly these transitions:
//
//	accepted -> running -> done | failed
//	accepted -> failed            (validation raced, drain cancellation)
//	running  -> accepted          (crash or drain: replay re-enqueues;
//	                               or a store write failed mid-settlement:
//	                               the quota unit is released and the job
//	                               re-enqueues in-process with backoff)
const (
	StateAccepted = "accepted" // WAL accept record fsync'd; queued or re-queued
	StateRunning  = "running"  // a worker holds it (not persisted: crash => accepted)
	StateDone     = "done"     // result artifact on disk + WAL done record
	StateFailed   = "failed"   // WAL done record with a typed error
)

// Typed failure kinds persisted with a failed job. Every failure a client
// can observe carries one of these — "degraded, never silent".
const (
	FailKindPanic    = "panic"    // exec.PanicError: isolated, never retried
	FailKindTimeout  = "timeout"  // per-job deadline exceeded
	FailKindCanceled = "canceled" // drain or client cancellation
	FailKindSim      = "sim"      // simulator returned an error
)

// JobStatus is the client-visible state of one job.
type JobStatus struct {
	ID       string   `json:"id"`
	State    string   `json:"state"`
	Tenant   string   `json:"tenant,omitempty"`
	Workload string   `json:"workload"`
	Schemes  []string `json:"schemes"`
	Priority string   `json:"priority,omitempty"`
	// SchemesDone counts completed matrix points (progress).
	SchemesDone int    `json:"schemes_done"`
	FailKind    string `json:"fail_kind,omitempty"`
	Error       string `json:"error,omitempty"`
	// Replayed marks a job re-enqueued from the WAL after a restart.
	Replayed bool `json:"replayed,omitempty"`
}

// Event is one progress notification on a job's stream: kept in the job's
// backlog (so SSE clients that disconnect and return replay from any
// point) and fanned out to live subscribers.
type Event struct {
	Seq  int    `json:"seq"`
	Kind string `json:"kind"` // accepted|queued|started|scheme|replayed|requeued|canceled|done|failed
	Msg  string `json:"msg,omitempty"`
}

// entry is the state a job and a sweep share: identity, lifecycle state,
// typed failure, and done, closed exactly once on reaching done or failed.
type entry struct {
	id   string
	kind string // "job" | "sweep": the noun in this entry's routes, reasons and messages

	mu       sync.Mutex
	state    string
	failKind string
	errMsg   string
	done     chan struct{}
}

func newEntry(kind, id string) entry {
	return entry{id: id, kind: kind, state: StateAccepted, done: make(chan struct{})}
}

// tracked is a *job or a *sweep: the two kinds of entry a server keeps.
type tracked interface{ base() *entry }

func (e *entry) base() *entry { return e }

// snapshot returns e's state and typed failure.
func (e *entry) snapshot() (state, failKind, errMsg string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.state, e.failKind, e.errMsg
}

// finish moves e to done or failed exactly once. announce, when non-nil,
// runs under e.mu before done closes: a job appends its terminal event
// there, so a waiter woken by done always finds it.
func (e *entry) finish(state, failKind, errMsg string, announce func()) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.state == StateDone || e.state == StateFailed {
		return
	}
	e.state, e.failKind, e.errMsg = state, failKind, errMsg
	if announce != nil {
		announce()
	}
	close(e.done)
}

// job is the in-memory record the server tracks per job key.
type job struct {
	entry
	spec JobSpec

	// Guarded by entry.mu.
	schemesDone int
	replayed    bool
	requeues    int // in-process settlement retries (backoff exponent)
	events      []Event
	subs        map[chan Event]struct{} // live SSE subscribers
}

func newJob(id string, spec JobSpec) *job {
	return &job{entry: newEntry("job", id), spec: spec, subs: make(map[chan Event]struct{})}
}

// emit appends one event to the backlog and notifies live subscribers.
// Slow subscribers are skipped, never blocked on: the backlog is the
// source of truth and a reconnect (or the gap-heal in handleEvents)
// replays it.
func (j *job) emit(kind, msg string) {
	j.mu.Lock()
	j.emitLocked(kind, msg)
	j.mu.Unlock()
}

func (j *job) emitLocked(kind, msg string) {
	ev := Event{Seq: len(j.events) + 1, Kind: kind, Msg: msg}
	j.events = append(j.events, ev)
	for ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// finish moves the job to a terminal state exactly once, with its
// done/failed event on the stream before j.done closes: emitting after
// the close would let an SSE handler woken by it read the backlog before
// the append and end the stream without the terminal event.
func (j *job) finish(state, failKind, errMsg string) {
	j.entry.finish(state, failKind, errMsg, func() {
		if state == StateDone {
			j.emitLocked("done", "")
		} else {
			j.emitLocked("failed", failKind+": "+errMsg)
		}
	})
}

// subscribe registers a live event channel and returns the backlog events
// after seq (exclusive) for replay.
func (j *job) subscribe(afterSeq int, ch chan Event) []Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.subs[ch] = struct{}{}
	if afterSeq >= len(j.events) {
		return nil
	}
	backlog := make([]Event, len(j.events)-afterSeq)
	copy(backlog, j.events[afterSeq:])
	return backlog
}

// backlogAfter copies the events recorded after seq (exclusive).
func (j *job) backlogAfter(seq int) []Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	if seq >= len(j.events) {
		return nil
	}
	backlog := make([]Event, len(j.events)-seq)
	copy(backlog, j.events[seq:])
	return backlog
}

func (j *job) unsubscribe(ch chan Event) {
	j.mu.Lock()
	delete(j.subs, ch)
	j.mu.Unlock()
}

// status snapshots the client-visible state.
func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{
		ID:          j.id,
		State:       j.state,
		Tenant:      j.spec.Tenant,
		Workload:    j.spec.Workload,
		Schemes:     append([]string(nil), j.spec.Schemes...),
		Priority:    j.spec.Priority,
		SchemesDone: j.schemesDone,
		FailKind:    j.failKind,
		Error:       j.errMsg,
		Replayed:    j.replayed,
	}
}

// APIError is the typed rejection the HTTP layer renders: a status code
// plus a stable machine-readable reason. Queue pressure and quota
// exhaustion are APIErrors (429/503), not generic failures — a client can
// tell "try later" from "never".
type APIError struct {
	Code   int    `json:"-"`
	Reason string `json:"reason"` // stable token: bad_request|queue_full|quota|draining|...
	Msg    string `json:"error"`
}

func (e *APIError) Error() string { return fmt.Sprintf("%s: %s", e.Reason, e.Msg) }

func badRequest(msg string) *APIError {
	return &APIError{Code: 400, Reason: "bad_request", Msg: msg}
}

// duplicate returns the first value that occurs twice in vs.
func duplicate[T comparable](vs []T) (T, bool) {
	seen := make(map[T]bool, len(vs))
	for _, v := range vs {
		if seen[v] {
			return v, true
		}
		seen[v] = true
	}
	var zero T
	return zero, false
}

// canonicalJSON marshals v with deterministic field order (struct order);
// the persisted artifacts rely on this for byte-identical replay.
func canonicalJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		// Specs and results are plain data; marshal cannot fail for them.
		panic(fmt.Sprintf("server: canonicalJSON: %v", err))
	}
	return b
}
