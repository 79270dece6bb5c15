// Package exec is the concurrent experiment engine shared by the paper
// harness, the CLI tools and the daemon. It provides three pieces:
//
//   - Pool: a bounded worker pool (default size GOMAXPROCS) that caps how
//     many simulations run at once, however many goroutines submit work.
//     Pool.Run is the one job envelope: slot, optional deadline, panic
//     conversion and run-time accounting;
//   - Cache: a singleflight-deduplicated, mutex-guarded memoization table,
//     so concurrent requests for the same key execute the computation
//     exactly once (through Pool.Run) and everyone shares the result;
//   - Pool.ForEach: a deterministic fan-out helper that runs an indexed
//     job set over the pool and cancels the remainder on first error.
//
// The simulations themselves are embarrassingly parallel (every sim.Run
// builds its own memory image, caches, and seeded streams), so the engine
// only has to bound concurrency and deduplicate shared runs — it never
// needs to synchronize inside a simulation. They are also deterministic,
// so the engine never retries: a failed job fails the same way again.
//
// The engine is panic-safe: a job that panics is converted into a
// *PanicError carrying the panic value and stack, its worker slot is
// released, and (for Cache.Do) every waiter on the flight is unblocked
// with that error. One bad configuration can fail its own job but can
// never deadlock or shrink the pool.
package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"ptmc/internal/obs"
)

// PanicError is the typed error a panicking job is converted into. The
// original panic value and the goroutine stack at the point of the panic
// are preserved for diagnosis.
type PanicError struct {
	Value any    // the value passed to panic()
	Stack []byte // debug.Stack() captured inside the recovering frame
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("exec: job panicked: %v", e.Value)
}

// Pool bounds the number of jobs executing concurrently. The zero Pool is
// not usable; construct with NewPool.
//
// Every pool keeps two log-bucketed histograms — nanoseconds a job waited
// for a slot, and nanoseconds each job ran — as its scheduling health
// signal: a queue-wait p99 near the run-time p50 means the pool is the
// bottleneck, not the simulations. The histograms are atomic counters, so
// the accounting adds two clock reads per job to work that is a whole
// simulation.
type Pool struct {
	sem chan struct{}

	queueWait *obs.Histogram // ns blocked waiting for a worker slot
	runTime   *obs.Histogram // ns executing, one observation per job
}

// NewPool returns a pool running at most n jobs at once; n <= 0 selects
// runtime.GOMAXPROCS(0), i.e. one job per available CPU.
func NewPool(n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return &Pool{
		sem:       make(chan struct{}, n),
		queueWait: obs.NewHistogram("pool.queue_wait_ns"),
		runTime:   obs.NewHistogram("pool.run_time_ns"),
	}
}

// Size reports the worker count.
func (p *Pool) Size() int { return cap(p.sem) }

// QueueWait exposes the slot-wait histogram (nanoseconds per job).
func (p *Pool) QueueWait() *obs.Histogram { return p.queueWait }

// RunTime exposes the execution-time histogram (nanoseconds per job).
func (p *Pool) RunTime() *obs.Histogram { return p.runTime }

// acquire blocks until a worker slot frees up or ctx is cancelled.
func (p *Pool) acquire(ctx context.Context) error {
	start := time.Now()
	select {
	case p.sem <- struct{}{}:
		p.queueWait.Observe(time.Since(start).Nanoseconds())
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (p *Pool) release() { <-p.sem }

// Run executes fn on the pool, blocking until a slot is free. It returns
// ctx's error without running fn if the context is cancelled first. A
// positive timeout is fn's deadline: fn's context is cancelled after that
// duration, so fn must honor its context for the deadline to take effect
// (sim.RunContext does). A panic in fn is returned as a *PanicError; the
// slot is always released.
func (p *Pool) Run(ctx context.Context, timeout time.Duration, fn func(ctx context.Context) error) error {
	if err := p.acquire(ctx); err != nil {
		return err
	}
	defer p.release()
	return p.call(ctx, timeout, fn)
}

// call runs fn (already holding a slot) with its deadline, panic
// conversion, and run-time accounting.
func (p *Pool) call(ctx context.Context, timeout time.Duration, fn func(ctx context.Context) error) (err error) {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	defer func(start time.Time) {
		if v := recover(); v != nil {
			err = &PanicError{Value: v, Stack: debug.Stack()}
		}
		p.runTime.Observe(time.Since(start).Nanoseconds())
	}(time.Now())
	return fn(ctx)
}

// ForEach runs fn(ctx, i) for every i in [0, n) on the pool. The first
// failure cancels the context handed to the remaining jobs (jobs already
// executing run to completion unless they honor ctx, but queued jobs
// abort before starting). The returned error is deterministic regardless
// of completion order: the lowest-index real failure, falling back to the
// lowest-index cancellation. A panicking job fails with a *PanicError;
// the other jobs and the pool are unaffected.
func (p *Pool) ForEach(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		if err := p.acquire(ctx); err != nil {
			errs[i] = err
			break
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer p.release()
			// A job that acquired its slot always runs, even if the fan-out
			// was cancelled meanwhile: that keeps error selection
			// deterministic.
			if err := p.call(ctx, 0, func(ctx context.Context) error {
				return fn(ctx, i)
			}); err != nil {
				errs[i] = err
				cancel()
			}
		}(i)
	}
	wg.Wait()
	return FirstError(errs)
}

// FirstError returns the lowest-index non-cancellation error in errs,
// falling back to the lowest-index cancellation, or nil. It is the
// deterministic error-selection rule used throughout the engine: whatever
// order parallel jobs finish in, the reported error is the one the serial
// loop would have hit first.
func FirstError(errs []error) error {
	var fallback error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if !errors.Is(err, context.Canceled) {
			return err
		}
		if fallback == nil {
			fallback = err
		}
	}
	return fallback
}

// flight is one in-progress or completed computation.
type flight[V any] struct {
	done chan struct{} // closed when val/err are final
	val  V
	err  error
}

// Cache memoizes computations by string key. Concurrent Do calls for the
// same key collapse into a single execution (singleflight): one caller
// becomes the leader and runs the function on the pool; the rest block
// until the leader finishes and then share its result. Successful results
// are cached forever; failures are forgotten so a later call runs again.
type Cache[V any] struct {
	pool *Pool
	mu   sync.Mutex
	m    map[string]*flight[V]
}

// NewCache returns an empty cache executing its computations on pool.
func NewCache[V any](pool *Pool) *Cache[V] {
	return &Cache[V]{pool: pool, m: make(map[string]*flight[V])}
}

// Do returns the value for key, computing it with fn at most once across
// all concurrent callers. The leader runs fn through Pool.Run, so fn gets
// the pool's slot, timeout (0 = none) and panic conversion. ran reports
// whether this call led the flight (false for cache hits and for waiters
// that joined an in-flight computation). Waiters hold no slot, so a
// thousand goroutines asking for the same key cost one worker, and a
// waiter whose ctx ends stops waiting without disturbing the flight. On
// any failure — an error, a panic, a deadline or a cancelled wait for a
// slot — the leader and every waiter receive the error and the flight is
// forgotten, so a later Do runs fn again.
func (c *Cache[V]) Do(ctx context.Context, key string, timeout time.Duration, fn func(ctx context.Context) (V, error)) (v V, ran bool, err error) {
	c.mu.Lock()
	if f, ok := c.m[key]; ok {
		c.mu.Unlock()
		select {
		case <-f.done:
			return f.val, false, f.err
		case <-ctx.Done():
			return v, false, ctx.Err()
		}
	}
	f := &flight[V]{done: make(chan struct{})}
	c.m[key] = f
	c.mu.Unlock()

	// Pool.Run is the flight's single point of settlement: it converts a
	// panic in fn and always releases the slot, so the flight is forgotten
	// (on failure) and done is closed exactly once, whatever fn did.
	f.err = c.pool.Run(ctx, timeout, func(ctx context.Context) error {
		val, err := fn(ctx)
		if err == nil {
			f.val = val
		}
		return err
	})
	if f.err != nil {
		c.mu.Lock()
		delete(c.m, key)
		c.mu.Unlock()
	}
	close(f.done)
	return f.val, true, f.err
}
