package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ptmc/internal/exec"
	"ptmc/internal/obs"
	"ptmc/internal/sim"
)

// Config configures a daemon instance. The zero value of an optional
// field selects the documented default.
type Config struct {
	Dir          string        // job-store directory (required)
	Workers      int           // concurrent jobs, and so concurrent simulations (default 1)
	QueueCap     int           // max jobs waiting for a worker (default 64)
	TenantQuota  int           // max queued+running jobs per tenant (0 = unlimited)
	JobTimeout   time.Duration // default per-scheme deadline (0 = none; spec may override)
	Backoff      time.Duration // base requeue backoff after a transient store-write failure (default 100ms)
	SegmentBytes int64         // WAL segment rotation threshold (default DefaultSegmentBytes)
	// RunSim is the simulation entry point (nil = sim.RunContext). Tests
	// substitute fakes and fault injectors; it must be set here — not
	// after New — because recovery may hand replayed jobs to workers
	// before New returns.
	RunSim func(ctx context.Context, cfg sim.Config) (*sim.Result, error)
}

// ResultArtifact is the persisted (and served) outcome of one job: the
// normalized spec plus one result per scheme, in matrix order. It is
// marshalled with canonicalJSON, so a replayed job's artifact is
// byte-identical to the original run's — simulations are deterministic.
type ResultArtifact struct {
	ID      string         `json:"id"`
	Spec    JobSpec        `json:"spec"`
	Results []SchemeResult `json:"results"`
}

// SchemeResult pairs one scheme with its measured result.
type SchemeResult struct {
	Scheme string      `json:"scheme"`
	Result *sim.Result `json:"result"`
}

// Server is the simulation service: durable intake, bounded priority
// queue, pooled execution, sweep fan-out, SSE progress, and
// failure-first shutdown.
type Server struct {
	cfg   Config
	store *Store
	queue *Queue
	pool  *exec.Pool
	// flights deduplicates identical (workload, scheme, variant) points
	// across concurrently-running jobs — the in-memory singleflight layer
	// above the on-disk result cache. A job runs its schemes one after
	// another and a flight's waiters hold no pool slot, so a pool of
	// Workers slots never makes a leader wait.
	flights *exec.Cache[*sim.Result]

	mu      sync.Mutex
	entries map[string]tracked // every job and sweep, by id
	order   []string           // entry ids in acceptance order

	baseCtx    context.Context // cancelled on drain: running sims stop at their next context poll
	cancelRuns context.CancelFunc
	workers    sync.WaitGroup
	draining   atomic.Bool

	reg *obs.Registry
	m   metrics

	// runSim is the simulation entry (sim.RunContext); tests substitute
	// it to inject transient failures, panics, and slow runs.
	runSim func(ctx context.Context, cfg sim.Config) (*sim.Result, error)
}

// metrics are the daemon's own series, all atomics so /metrics scrapes
// race-free against the serving hot path (obs.Registry's documented
// contract for concurrent scraping).
type metrics struct {
	accepted      atomic.Uint64 // jobs durably accepted
	dedup         atomic.Uint64 // submissions answered by an existing job
	rejected      atomic.Uint64 // typed 429/503 rejections
	completed     atomic.Uint64 // jobs finished ok
	failed        atomic.Uint64 // jobs finished with a typed failure
	replayed      atomic.Uint64 // jobs re-enqueued from the WAL at boot
	recovered     atomic.Uint64 // jobs completed at boot from an existing artifact (no re-run)
	cacheHits     atomic.Uint64 // jobs served from the persistent result cache
	inflight      atomic.Uint64 // jobs a worker currently holds
	simsRun       atomic.Uint64 // actual simulator invocations (the duplicate-work proof metric)
	storeRequeues atomic.Uint64 // settlements re-tried in-process after a transient store failure
	sweeps        atomic.Uint64 // sweeps durably accepted
	sweepsDone    atomic.Uint64 // sweeps aggregated and settled
}

// New opens the store, replays the WAL (re-enqueueing interrupted work),
// and starts the worker loops. The returned server is ready to serve.
func New(cfg Config) (*Server, error) {
	if cfg.Dir == "" {
		return nil, errors.New("server: Config.Dir is required")
	}
	store, err := OpenStore(cfg.Dir, cfg.SegmentBytes)
	if err != nil {
		return nil, err
	}
	return newFromStore(cfg, store)
}

// newFromStore finishes construction over an already-open store. Split
// from New so tests can arm fault-injection hooks on the store before any
// worker goroutine can observe it.
func newFromStore(cfg Config, store *Store) (*Server, error) {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.QueueCap < 1 {
		cfg.QueueCap = 64
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 100 * time.Millisecond
	}
	ctx, cancel := context.WithCancel(context.Background())
	pool := exec.NewPool(cfg.Workers)
	s := &Server{
		cfg:        cfg,
		store:      store,
		queue:      NewQueue(cfg.QueueCap, cfg.TenantQuota),
		pool:       pool,
		flights:    exec.NewCache[*sim.Result](pool),
		entries:    make(map[string]tracked),
		baseCtx:    ctx,
		cancelRuns: cancel,
		reg:        obs.NewRegistry(),
		runSim:     cfg.RunSim,
	}
	if s.runSim == nil {
		s.runSim = sim.RunContext
	}
	// Workers block in Queue.Dequeue on a condvar; make cancellation wake
	// them so drain never waits on an idle worker.
	context.AfterFunc(ctx, s.queue.Wake)
	s.registerMetrics()

	// Recovery, in acceptance order: every stored entry becomes an
	// in-memory job or sweep. Terminal entries stay terminal. A pending
	// entry whose result artifact already landed (crash between SaveResult
	// and the done record) settles done without re-running — the artifact
	// is whole by construction. The rest resume: a job re-enters the queue
	// (its persisted spec keeps its priority class); a sweep gets its
	// coordinator back once every entry is tracked. s.mu is held
	// throughout: a resumed coordinator may look up children while later
	// ones are still being tracked.
	s.mu.Lock()
	var resume []*sweep
	for _, e := range store.Entries() {
		var t tracked
		if e.Job != nil {
			j := newJob(e.ID, *e.Job)
			j.replayed = e.State == StateAccepted
			t = j
		} else {
			ids, _ := e.Sweep.children()
			t = newSweep(e.ID, *e.Sweep, ids)
		}
		s.addLocked(t)
		var announce func()
		if e.State == StateAccepted && store.HasResult(e.ID) && store.Settle(e.ID, "", "") == nil {
			e.State = StateDone
			s.m.recovered.Add(1)
			if j, ok := t.(*job); ok {
				announce = func() { j.emitLocked("done", "recovered: artifact found on replay") }
			}
		}
		if e.State != StateAccepted {
			t.base().finish(e.State, e.FailKind, e.Error, announce)
		} else if j, ok := t.(*job); ok {
			s.replay(j, "re-enqueued after restart")
		} else {
			resume = append(resume, t.(*sweep))
		}
	}
	// A resumed sweep re-accepts any child missing from the store (torn
	// fan-out batch) — the fan-out is a deterministic function of its spec.
	for _, sw := range resume {
		_, specs := sw.spec.children()
		for i, cid := range sw.children {
			if s.entries[cid] != nil {
				continue
			}
			if err := store.Accept(cid, specs[i]); err != nil {
				continue // store wedged; the sweep settles on a later boot
			}
			cj := newJob(cid, specs[i])
			cj.replayed = true
			s.addLocked(cj)
			s.replay(cj, "sweep child re-accepted after restart")
		}
		s.workers.Add(1)
		go s.sweepCoordinator(sw)
	}
	s.mu.Unlock()
	for i := 0; i < cfg.Workers; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	return s, nil
}

// replay re-enqueues a job accepted in an earlier life.
func (s *Server) replay(j *job, msg string) {
	j.emit("replayed", msg)
	s.m.replayed.Add(1)
	s.queue.EnqueueReplayed(j)
}

func (s *Server) registerMetrics() {
	c := func(name string, read func() uint64) { s.reg.Counter(name, nil, read) }
	g := func(name string, read func() uint64) { s.reg.Gauge(name, nil, read) }
	c("ptmcd.jobs_accepted", s.m.accepted.Load)
	c("ptmcd.jobs_deduplicated", s.m.dedup.Load)
	c("ptmcd.jobs_rejected", s.m.rejected.Load)
	c("ptmcd.jobs_completed", s.m.completed.Load)
	c("ptmcd.jobs_failed", s.m.failed.Load)
	c("ptmcd.jobs_replayed", s.m.replayed.Load)
	c("ptmcd.jobs_recovered", s.m.recovered.Load)
	c("ptmcd.result_cache_hits", s.m.cacheHits.Load)
	c("ptmcd.sims_run", s.m.simsRun.Load)
	c("ptmcd.store_retries", s.m.storeRequeues.Load)
	c("ptmcd.sweeps_accepted", s.m.sweeps.Load)
	c("ptmcd.sweeps_completed", s.m.sweepsDone.Load)
	g("ptmcd.jobs_inflight", s.m.inflight.Load)
	g("ptmcd.queue_depth", func() uint64 { return uint64(s.queue.Depth()) })
	g("ptmcd.draining", func() uint64 {
		if s.draining.Load() {
			return 1
		}
		return 0
	})
	c("ptmcd.wal_replayed_records", func() uint64 { return uint64(s.store.Replayed) })
	c("ptmcd.wal_truncated_bytes", func() uint64 { return uint64(s.store.Truncated) })
	g("ptmcd.wal_segments", func() uint64 { return uint64(s.store.Segments()) })
	c("ptmcd.wal_compacted_segments", func() uint64 { return uint64(s.store.CompactedSegments()) })
}

// worker pulls jobs in priority order until drain.
func (s *Server) worker() {
	defer s.workers.Done()
	stop := func() bool { return s.baseCtx.Err() != nil }
	for {
		j, ok := s.queue.Dequeue(stop)
		if !ok {
			return
		}
		s.runJob(j)
	}
}

// runJob executes one job's scheme matrix and settles its durable state.
func (s *Server) runJob(j *job) {
	s.m.inflight.Add(1)
	defer s.m.inflight.Add(^uint64(0))

	// Served from the persistent result cache: repeated sweeps across
	// restarts are free. (The original run's trace artifact, if any, is
	// already on disk too.)
	if s.store.HasResult(j.id) {
		s.m.cacheHits.Add(1)
		s.settle(j, "", "")
		return
	}

	j.mu.Lock()
	j.state = StateRunning
	j.mu.Unlock()
	j.emit("started", "")

	timeout := s.cfg.JobTimeout
	if j.spec.TimeoutSec > 0 {
		timeout = time.Duration(j.spec.TimeoutSec) * time.Second
	}
	// Per-job tracer: one KindJob span per scheme (wall µs, tid = matrix
	// index), plus the simulator's own cycle-stamped events when the spec
	// asked for them. Persisted best-effort before settlement, so a client
	// that sees the job done finds it.
	start := time.Now()
	tracer := obs.NewTracer(1 << 16)
	var simEvents []obs.Event
	art := ResultArtifact{ID: j.id, Spec: j.spec}
	for i, scheme := range j.spec.Schemes {
		t0 := time.Now()
		runs := int64(0) // the span's arg: 1 if this job ran the sim, 0 if it shared a flight
		res, _, err := s.flights.Do(s.baseCtx, j.spec.SchemeKey(scheme), timeout,
			func(ctx context.Context) (*sim.Result, error) {
				runs++
				s.m.simsRun.Add(1)
				return s.runSim(ctx, j.spec.Config(scheme))
			})
		if err != nil {
			s.settleFailure(j, scheme, err)
			return
		}
		tracer.Emit(obs.KindJob, t0.Sub(start).Microseconds(),
			time.Since(t0).Microseconds()+1, i, 0, runs)
		if j.spec.Trace && res != nil {
			simEvents = append(simEvents, res.TraceEvents...)
		}
		art.Results = append(art.Results, SchemeResult{Scheme: scheme, Result: res})
		j.mu.Lock()
		j.schemesDone++
		n := j.schemesDone
		j.mu.Unlock()
		j.emit("scheme", fmt.Sprintf("%s done (%d/%d)", scheme, n, len(j.spec.Schemes)))
	}

	// Durability order: artifact first, then the done record. A crash
	// between the two replays as "pending with artifact" and completes
	// without re-running.
	if err := s.store.SaveResult(j.id, canonicalJSON(art)); err != nil {
		s.leaveForReplay(j, err)
		return
	}
	s.saveTrace(j.id, append(tracer.Events(), simEvents...))
	s.settle(j, "", "")
}

// saveTrace persists the job's Chrome-trace artifact. Best effort: traces
// are observability, not part of the durability contract.
func (s *Server) saveTrace(id string, events []obs.Event) {
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, events); err != nil {
		return
	}
	_ = s.store.SaveTrace(id, buf.Bytes())
}

// settleFailure classifies a scheme failure and persists the typed
// outcome — except drain cancellation, which is not a job failure: the
// job stays accepted in the WAL and the next boot replays it.
func (s *Server) settleFailure(j *job, scheme string, err error) {
	if s.baseCtx.Err() != nil {
		// Drain (or shutdown) cancelled the run at its next checkpoint.
		j.emit("canceled", fmt.Sprintf("%s interrupted by drain; job will replay", scheme))
		return
	}
	kind := FailKindSim
	var pe *exec.PanicError
	switch {
	case errors.As(err, &pe):
		kind = FailKindPanic
	case errors.Is(err, context.DeadlineExceeded):
		kind = FailKindTimeout
	case errors.Is(err, context.Canceled):
		kind = FailKindCanceled
	}
	s.settle(j, kind, fmt.Sprintf("%s: %v", scheme, err))
}

// settle durably records the job's outcome — done when failKind is empty,
// else failed with the typed kind — then releases its quota unit and
// finishes it. A failed store write sends the job back instead.
func (s *Server) settle(j *job, failKind, msg string) {
	if err := s.store.Settle(j.id, failKind, msg); err != nil {
		s.leaveForReplay(j, err)
		return
	}
	s.queue.Release(j.spec.Tenant)
	if failKind != "" {
		s.m.failed.Add(1)
		j.finish(StateFailed, failKind, msg)
		return
	}
	s.m.completed.Add(1)
	j.finish(StateDone, "", "")
}

// leaveForReplay handles a store write failing mid-settlement. Two cases:
//
// Dead store or drain: the injected-crash/shutdown path. The job keeps
// its durable accepted state and the NEXT BOOT replays it — nothing is
// acknowledged that is not on disk.
//
// Transient failure (live store, live server): the job must not become a
// zombie. It moves back to accepted (the state machine's running →
// accepted retry edge), the tenant's quota unit is released so the
// tenant is not throttled by a job nobody is running, and a backoff
// goroutine re-enqueues it for in-process retry — EnqueueReplayed
// re-claims the quota unit, so accounting stays balanced. If drain wins
// the race the job is simply left accepted for the next boot.
func (s *Server) leaveForReplay(j *job, err error) {
	if s.baseCtx.Err() != nil || errors.Is(err, ErrStoreDead) {
		j.emit("canceled", fmt.Sprintf("store unavailable (%v); job will replay", err))
		return
	}
	j.mu.Lock()
	j.state = StateAccepted
	j.schemesDone = 0
	j.requeues++
	n := j.requeues
	j.mu.Unlock()
	s.queue.Release(j.spec.Tenant)
	s.m.storeRequeues.Add(1)
	j.emit("requeued", fmt.Sprintf("store write failed (%v); retrying in-process", err))
	s.workers.Add(1)
	go func() {
		defer s.workers.Done()
		// On drain the job stays accepted in the WAL; next boot replays it.
		if s.backoff(n) {
			s.queue.EnqueueReplayed(j)
		}
	}()
}

// backoff waits before settlement attempt n+1: Config.Backoff doubled per
// earlier failed attempt, capped at 5s. It reports false if drain cut the
// wait short.
func (s *Server) backoff(n int) bool {
	d := s.cfg.Backoff
	for i := 1; i < n && d < 5*time.Second; i++ {
		d *= 2
	}
	select {
	case <-time.After(min(d, 5*time.Second)):
		return true
	case <-s.baseCtx.Done():
		return false
	}
}

// sweepCoordinator waits for every child to settle, then aggregates the
// child artifacts (read back from disk, so a resumed sweep aggregates
// byte-identically) into the sweep artifact and settles the sweep. Child
// failures become per-point failures in the artifact; the sweep itself
// still settles done — degraded, never silent. A transient store failure
// retries with backoff; drain leaves the sweep accepted for the next
// boot.
func (s *Server) sweepCoordinator(sw *sweep) {
	defer s.workers.Done()
	for _, cid := range sw.children {
		j := s.lookup(cid)
		if j == nil {
			continue // recorded as a failed point at aggregation
		}
		select {
		case <-j.done:
		case <-s.baseCtx.Done():
			return // drain: sweep stays accepted; the next boot resumes it
		}
	}
	data := canonicalJSON(s.buildSweepArtifact(sw))
	for n := 1; s.baseCtx.Err() == nil; n++ {
		err := s.store.SaveResult(sw.id, data)
		if err == nil {
			err = s.store.Settle(sw.id, "", "")
		}
		if err == nil {
			s.m.sweepsDone.Add(1)
			sw.finish(StateDone, "", "", nil)
			return
		}
		if errors.Is(err, ErrStoreDead) {
			return
		}
		s.m.storeRequeues.Add(1)
		if !s.backoff(n) {
			return
		}
	}
}

// buildSweepArtifact assembles the aggregate in deterministic matrix
// order from the children's terminal states and on-disk artifacts.
func (s *Server) buildSweepArtifact(sw *sweep) SweepArtifact {
	art := SweepArtifact{ID: sw.id, Spec: sw.spec}
	idx := 0
	for _, w := range sw.spec.Workloads {
		for _, sc := range sw.spec.Schemes {
			for _, sd := range sw.spec.Seeds {
				cid := sw.children[idx]
				idx++
				p := SweepPoint{Workload: w, Scheme: sc, Seed: sd, JobID: cid}
				j := s.lookup(cid)
				if j == nil {
					p.State, p.FailKind, p.Error = StateFailed, "internal", "child job missing"
				} else {
					p.State, p.FailKind, p.Error = j.snapshot()
					if p.State == StateDone {
						if data, err := s.store.Result(cid); err == nil {
							p.Result = json.RawMessage(data)
						} else {
							p.State, p.FailKind, p.Error = StateFailed, "artifact", err.Error()
						}
					}
				}
				art.Points = append(art.Points, p)
			}
		}
	}
	return art
}

// Drain is the graceful-shutdown path: stop accepting (readyz and POST
// /jobs flip to 503), cancel in-flight runs — sim.RunContext returns at
// its next checkpoint — wait for the workers (and
// sweep coordinators and requeue timers), checkpoint the queue, and close
// the store. Interrupted jobs stay accepted in the WAL; the next boot
// replays them. Returns nil on a clean drain; ctx bounds how long to wait
// for workers.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.queue.SetDraining(true)
	s.cancelRuns()
	done := make(chan struct{})
	go func() { s.workers.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
		return fmt.Errorf("server: drain: workers still running: %w", ctx.Err())
	}
	if err := s.store.Checkpoint(); err != nil && !errors.Is(err, ErrStoreDead) {
		return err
	}
	return s.store.Close()
}

// Store exposes the job store (tests, recovery assertions).
func (s *Server) Store() *Store { return s.store }

// Registry exposes the daemon's metrics registry.
func (s *Server) Registry() *obs.Registry { return s.reg }

// find returns the entry of the given kind ("job" | "sweep") under id, or
// nil.
func (s *Server) find(kind, id string) tracked {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t := s.entries[id]; t != nil && t.base().kind == kind {
		return t
	}
	return nil
}

// request returns the entry of the given kind named by the request's {id},
// or writes the 404 and returns nil.
func (s *Server) request(w http.ResponseWriter, r *http.Request, kind string) tracked {
	t := s.find(kind, r.PathValue("id"))
	if t == nil {
		writeJSON(w, http.StatusNotFound, &APIError{Reason: "unknown_" + kind, Msg: "no such " + kind})
	}
	return t
}

func (s *Server) lookup(id string) *job {
	j, _ := s.find("job", id).(*job)
	return j
}

// addLocked tracks t, whose id is not tracked yet, in acceptance order.
func (s *Server) addLocked(t tracked) {
	s.entries[t.base().id] = t
	s.order = append(s.order, t.base().id)
}

// status snapshots a job's or a sweep's client-visible state.
func (s *Server) status(t tracked) any {
	if j, ok := t.(*job); ok {
		return j.status()
	}
	return s.sweepStatus(t.(*sweep))
}

// sweepStatus snapshots a sweep's client-visible state, including its
// children's progress.
func (s *Server) sweepStatus(sw *sweep) SweepStatus {
	st := SweepStatus{ID: sw.id, Tenant: sw.spec.Tenant, Points: len(sw.children),
		Workloads: append([]string(nil), sw.spec.Workloads...),
		Schemes:   append([]string(nil), sw.spec.Schemes...)}
	s.mu.Lock()
	for _, cid := range sw.children {
		if t := s.entries[cid]; t != nil {
			if state, _, _ := t.base().snapshot(); state == StateDone || state == StateFailed {
				st.PointsDone++
			}
		}
	}
	s.mu.Unlock()
	st.State, st.FailKind, st.Error = sw.snapshot()
	return st
}

// Handler returns the HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList("job"))
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus("job"))
	mux.HandleFunc("GET /jobs/{id}/result", s.handleResult("job"))
	mux.HandleFunc("GET /jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("POST /sweeps", s.handleSweepSubmit)
	mux.HandleFunc("GET /sweeps", s.handleList("sweep"))
	mux.HandleFunc("GET /sweeps/{id}", s.handleStatus("sweep"))
	mux.HandleFunc("GET /sweeps/{id}/result", s.handleResult("sweep"))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(canonicalJSON(v))
	w.Write([]byte("\n"))
}

func (s *Server) reject(w http.ResponseWriter, err error) {
	var ae *APIError
	if !errors.As(err, &ae) {
		ae = &APIError{Code: 500, Reason: "internal", Msg: err.Error()}
	}
	if ae.Code == 429 || ae.Code == 503 {
		s.m.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, ae.Code, ae)
}

// submission is a submit body: a *JobSpec or a *SweepSpec.
type submission interface {
	Normalize() error
	Key() string
}

// admit is the intake both submit paths share: decode and normalize the
// spec (a rejection costs no WAL write), answer a resubmission with the
// existing entry (same spec, same id), and refuse intake while draining.
// It returns the new entry's id, or "" once it has written the response.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, kind string, spec submission) string {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(spec); err != nil {
		s.reject(w, badRequest("invalid JSON: "+err.Error()))
		return ""
	}
	if err := spec.Normalize(); err != nil {
		s.reject(w, err)
		return ""
	}
	id := spec.Key()
	if t := s.find(kind, id); t != nil {
		s.m.dedup.Add(1)
		writeJSON(w, http.StatusOK, s.status(t))
		return ""
	}
	if s.draining.Load() {
		s.reject(w, &APIError{Code: 503, Reason: "draining",
			Msg: "server is draining; resubmit after restart"})
		return ""
	}
	return id
}

// handleSubmit is the accept path. Order matters: validate (free), check
// admission (no side effects), durably accept (fsync — this IS the ack),
// then enqueue. A crash after the WAL append and before the response
// costs the client a retry of an idempotent submit, never a lost job.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	id := s.admit(w, r, "job", &spec)
	if id == "" {
		return
	}
	if err := s.queue.Reserve(spec.Tenant); err != nil {
		s.reject(w, err)
		return
	}
	if err := s.store.Accept(id, spec); err != nil {
		s.queue.Abort(spec.Tenant)
		s.reject(w, &APIError{Code: 503, Reason: "store",
			Msg: "durable accept failed: " + err.Error()})
		return
	}
	j := newJob(id, spec)
	s.mu.Lock()
	prior := s.entries[id]
	if prior == nil {
		s.addLocked(j)
	}
	s.mu.Unlock()
	if prior != nil {
		// Two concurrent submits of the same spec raced past admit; the
		// store accepted idempotently. Share the first job.
		s.queue.Abort(spec.Tenant)
		s.m.dedup.Add(1)
		writeJSON(w, http.StatusOK, s.status(prior))
		return
	}
	s.m.accepted.Add(1)
	j.emit("accepted", "")
	// queued goes on the stream before the job is dequeueable, so a worker
	// can never emit started ahead of it.
	j.emit("queued", "")
	s.queue.Commit(j)
	writeJSON(w, http.StatusAccepted, j.status())
}

// handleSweepSubmit accepts a sweep: one durable batched WAL append
// covers the sweep record and every child job the matrix fans out to
// (existing child keys dedupe — that is the whole resume story), then the
// children enter the queue at sweep-child priority and a coordinator
// goroutine waits to aggregate. Children bypass the admission cap — the
// sweep record is their durable admission — but still count toward the
// tenant's quota so interactive submissions see the true load.
func (s *Server) handleSweepSubmit(w http.ResponseWriter, r *http.Request) {
	var spec SweepSpec
	id := s.admit(w, r, "sweep", &spec)
	if id == "" {
		return
	}
	ids, specs := spec.children()
	if err := s.store.AcceptSweep(id, spec, ids, specs); err != nil {
		s.reject(w, &APIError{Code: 503, Reason: "store",
			Msg: "durable accept failed: " + err.Error()})
		return
	}
	sw := newSweep(id, spec, ids)
	s.mu.Lock()
	if prior := s.entries[id]; prior != nil {
		s.mu.Unlock()
		s.m.dedup.Add(1)
		writeJSON(w, http.StatusOK, s.status(prior))
		return
	}
	s.addLocked(sw)
	var fresh []*job
	for i, cid := range ids {
		if s.entries[cid] != nil {
			continue // point already known (prior job or overlapping sweep)
		}
		cj := newJob(cid, specs[i])
		s.addLocked(cj)
		fresh = append(fresh, cj)
	}
	s.mu.Unlock()
	for _, cj := range fresh {
		cj.emit("accepted", "sweep "+id)
		cj.emit("queued", "")
		s.queue.EnqueueReplayed(cj)
	}
	s.m.sweeps.Add(1)
	s.workers.Add(1)
	go s.sweepCoordinator(sw)
	writeJSON(w, http.StatusAccepted, s.sweepStatus(sw))
}

// handleList, handleStatus and handleResult serve both entry kinds; kind
// is "job" or "sweep".
func (s *Server) handleList(kind string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var ts []tracked
		s.mu.Lock()
		for _, id := range s.order {
			if t := s.entries[id]; t.base().kind == kind {
				ts = append(ts, t)
			}
		}
		s.mu.Unlock()
		out := make([]any, 0, len(ts))
		for _, t := range ts {
			out = append(out, s.status(t))
		}
		writeJSON(w, http.StatusOK, out)
	}
}

func (s *Server) handleStatus(kind string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if t := s.request(w, r, kind); t != nil {
			writeJSON(w, http.StatusOK, s.status(t))
		}
	}
}

// handleResult serves the entry's persisted artifact, or says why there is
// none: a typed failure (409) or not finished yet (404).
func (s *Server) handleResult(kind string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t := s.request(w, r, kind)
		if t == nil {
			return
		}
		state, failKind, errMsg := t.base().snapshot()
		switch state {
		case StateFailed:
			writeJSON(w, http.StatusConflict, &APIError{Reason: kind + "_failed",
				Msg: failKind + ": " + errMsg})
		case StateDone:
			data, err := s.store.Result(t.base().id)
			if err != nil {
				writeJSON(w, http.StatusInternalServerError,
					&APIError{Reason: "artifact", Msg: err.Error()})
				return
			}
			w.Header().Set("Content-Type", "application/json")
			w.Write(data)
		default:
			msg := kind + " is " + state
			if sw, ok := t.(*sweep); ok {
				st := s.sweepStatus(sw)
				msg += fmt.Sprintf(" (%d/%d points)", st.PointsDone, st.Points)
			}
			writeJSON(w, http.StatusNotFound, &APIError{Reason: "not_finished", Msg: msg})
		}
	}
}

// handleTrace serves the job's Chrome-trace artifact (open in
// chrome://tracing or Perfetto). A job served from the persistent result
// cache in a later life keeps the trace its original run saved; a job
// that never ran in this store (or whose trace write failed) has none.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	t := s.request(w, r, "job")
	if t == nil {
		return
	}
	data, err := s.store.Trace(t.base().id)
	if err != nil {
		writeJSON(w, http.StatusNotFound, &APIError{Reason: "no_trace",
			Msg: "no trace artifact for this job (not finished, or trace write was skipped)"})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable,
			&APIError{Reason: "draining", Msg: "draining"})
		return
	}
	io.WriteString(w, "ready\n")
}

// handleMetrics serves the daemon registry (atomic-backed, so scrapes are
// race-free against the serving path) plus the exec pool's histograms.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if err := s.reg.WriteText(w); err != nil {
		return
	}
	fmt.Fprintf(w, "# pool queue-wait %s\n", s.pool.QueueWait())
	fmt.Fprintf(w, "# pool run-time %s\n", s.pool.RunTime())
}

// handleEvents streams a job's progress as Server-Sent Events. The
// backlog is replayed from Last-Event-ID (or from the start), so a client
// that disconnects — or connects long after the job finished — sees every
// event exactly once. The stream closes itself once the job is terminal
// and fully delivered; the job is unaffected by client lifetime.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, _ := s.request(w, r, "job").(*job)
	if j == nil {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusNotImplemented,
			&APIError{Reason: "no_flush", Msg: "streaming unsupported"})
		return
	}
	after := 0
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			after = n
		}
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	ch := make(chan Event, 16)
	backlog := j.subscribe(after, ch)
	defer j.unsubscribe(ch)
	last := after
	send := func(ev Event) bool {
		if ev.Seq <= last {
			return true
		}
		last = ev.Seq
		if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n",
			ev.Seq, ev.Kind, canonicalJSON(ev)); err != nil {
			return false
		}
		fl.Flush()
		return true
	}
	for _, ev := range backlog {
		if !send(ev) {
			return
		}
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case ev := <-ch:
			// Gap heal: emit skips slow subscribers, so a missed event shows
			// up as a sequence jump. The backlog is the source of truth —
			// refill from it (it already contains ev: events are appended to
			// the backlog before the channel notify, under the same lock).
			if ev.Seq > last+1 {
				for _, b := range j.backlogAfter(last) {
					if !send(b) {
						return
					}
				}
				continue
			}
			if !send(ev) {
				return
			}
		case <-j.done:
			// Terminal: deliver whatever the live channel missed (slow
			// subscriber skips land in the backlog) and finish.
			for _, ev := range j.backlogAfter(last) {
				if !send(ev) {
					return
				}
			}
			return
		}
	}
}
