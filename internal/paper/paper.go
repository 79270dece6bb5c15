// Package paper implements the reproduction of every table and figure in
// the evaluation of "Enabling Transparent Memory-Compression for Commodity
// Memory Systems" (HPCA 2019). Each experiment builds on the simulator in
// internal/sim and prints the same rows/series the paper reports; shapes
// (who wins, rough factors, crossovers) are the reproduction target, not
// absolute numbers — see EXPERIMENTS.md.
//
// The Runner caches simulation results by (workload, scheme, variant), so
// experiments that share runs (most share the uncompressed baseline) pay
// for them once per process.
package paper

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"ptmc/internal/exec"
	"ptmc/internal/sim"
	"ptmc/internal/stats"
	"ptmc/internal/workload"
)

// Options scopes an experiment run.
type Options struct {
	Cores   int
	Warmup  int64
	Measure int64
	Seed    int64

	// Workload subsets (names). A nil slice selects the full paper set;
	// an empty non-nil slice selects none.
	Spec   []string // memory-intensive SPEC set (Figures 4-15)
	Graph  []string // GAP set
	Mixes  []string // multiprogrammed mixes
	All    []string // Figure 17 population (defaults to every workload+mix)
	L3MB   int      // LLC size in MB (Table I: 8)
	Silent bool     // suppress per-run progress lines
}

// Quick returns a laptop-scale option set: representative workloads and a
// short horizon. The shapes of every figure survive; error bars shrink with
// -insts in cmd/paperbench.
func Quick() Options {
	return Options{
		Cores:   8,
		Warmup:  700_000,
		Measure: 350_000,
		Seed:    1,
		Spec: []string{"libquantum06", "lbm06", "mcf06", "soplex06",
			"lbm17", "xz17"},
		Graph: []string{"pr-twitter", "bfs-web", "cc-sk"},
		Mixes: []string{"mix1", "mix3"},
		All: []string{"libquantum06", "lbm06", "mcf06", "soplex06", "sphinx306",
			"leela17", "xz17", "pr-twitter", "bfs-web", "mix1"},
		L3MB: 8,
	}
}

// Full returns the complete paper workload population (slow: intended for
// cmd/paperbench -full).
func Full() Options {
	o := Quick()
	o.Warmup = 1_000_000
	o.Measure = 1_000_000
	o.Spec = nil
	o.Graph = nil
	o.Mixes = nil
	o.All = nil
	return o
}

func (o *Options) spec() []string {
	if o.Spec != nil {
		return o.Spec
	}
	var out []string
	for _, w := range workload.HighMPKI() {
		out = append(out, w.Name)
	}
	return out
}

func (o *Options) graph() []string {
	if o.Graph != nil {
		return o.Graph
	}
	var out []string
	for _, w := range workload.Graph() {
		out = append(out, w.Name)
	}
	return out
}

func (o *Options) mixes() []string {
	if o.Mixes != nil {
		return o.Mixes
	}
	var out []string
	for _, m := range workload.Mixes() {
		out = append(out, m.Name)
	}
	return out
}

func (o *Options) all() []string {
	if o.All != nil {
		return o.All
	}
	return workload.Names()
}

// Runner executes experiments against a shared, goroutine-safe result
// cache. Simulations fan out over a bounded worker pool (see Prefetch);
// concurrent requests for the same (workload, scheme, variant) key are
// singleflight-deduplicated so each simulation runs exactly once per
// process, however many artifacts or goroutines ask for it.
type Runner struct {
	Opts  Options
	Out   io.Writer
	pool  *exec.Pool
	cache *exec.Cache[*sim.Result]
	outMu sync.Mutex // serializes progress lines from concurrent callers
}

// NewRunner builds a Runner writing human-readable reports to out, running
// up to GOMAXPROCS simulations concurrently.
func NewRunner(opts Options, out io.Writer) *Runner {
	return NewParallelRunner(opts, out, 0)
}

// NewParallelRunner bounds concurrent simulations to parallel workers
// (<= 0 selects runtime.GOMAXPROCS(0)). Report bytes are identical at any
// worker count: artifacts submit their full job set up front via Prefetch
// and then format exclusively from the cache in submission order.
func NewParallelRunner(opts Options, out io.Writer, parallel int) *Runner {
	pool := exec.NewPool(parallel)
	return &Runner{Opts: opts, Out: out, pool: pool, cache: exec.NewCache[*sim.Result](pool)}
}

// Parallelism reports the worker-pool size.
func (r *Runner) Parallelism() int { return r.pool.Size() }

// Pool exposes the runner's worker pool; its queue-wait and run-time
// histograms summarize how the simulation fan-out scheduled after a run
// (cmd/paperbench -poolstats).
func (r *Runner) Pool() *exec.Pool { return r.pool }

// Job names one simulation: the (workload, scheme, variant) cache key plus
// the config mutation the variant implies. Mutate may be nil.
type Job struct {
	Workload string
	Scheme   string
	Variant  string
	Mutate   func(*sim.Config)
}

func (j Job) key() string { return j.Workload + "|" + j.Scheme + "|" + j.Variant }

// jobsFor builds the cross product of workloads × schemes (no variants),
// in deterministic workload-major order.
func jobsFor(wls []string, schemes ...string) []Job {
	jobs := make([]Job, 0, len(wls)*len(schemes))
	for _, wl := range wls {
		for _, sch := range schemes {
			jobs = append(jobs, Job{Workload: wl, Scheme: sch})
		}
	}
	return jobs
}

// config builds the base simulation config for a workload/scheme pair.
func (r *Runner) config(wl, scheme string) sim.Config {
	cfg := sim.Default()
	cfg.Workload = wl
	cfg.Scheme = scheme
	cfg.Cores = r.Opts.Cores
	cfg.WarmupInstr = r.Opts.Warmup
	cfg.MeasureInstr = r.Opts.Measure
	cfg.Seed = r.Opts.Seed
	if r.Opts.L3MB > 0 {
		cfg.L3Bytes = r.Opts.L3MB << 20
	}
	return cfg
}

// run executes (or recalls) one job through the deduplicated cache. ran
// reports whether this call performed the simulation.
func (r *Runner) run(ctx context.Context, j Job) (res *sim.Result, ran bool, err error) {
	return r.cache.Do(ctx, j.key(), 0, func(context.Context) (*sim.Result, error) {
		cfg := r.config(j.Workload, j.Scheme)
		if j.Mutate != nil {
			j.Mutate(&cfg)
		}
		res, err := sim.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("%s/%s%s: %w", j.Workload, j.Scheme, j.Variant, err)
		}
		if res.Mem.IntegrityErrs > 0 {
			return nil, fmt.Errorf("%s/%s%s: %d integrity errors",
				j.Workload, j.Scheme, j.Variant, res.Mem.IntegrityErrs)
		}
		return res, nil
	})
}

// printRan emits one progress line (under the output lock: Result may be
// called from many goroutines).
func (r *Runner) printRan(res *sim.Result) {
	if r.Opts.Silent {
		return
	}
	r.outMu.Lock()
	fmt.Fprintf(r.Out, "    [ran] %v\n", res)
	r.outMu.Unlock()
}

// Result runs (or recalls) one simulation. variant distinguishes modified
// configs (e.g. channel sweeps); mutate may adjust the config before the
// run. Result is goroutine-safe and deduplicates concurrent calls for the
// same key.
func (r *Runner) Result(wl, scheme, variant string, mutate func(*sim.Config)) (*sim.Result, error) {
	res, ran, err := r.run(context.Background(), Job{wl, scheme, variant, mutate})
	if err != nil {
		return nil, err
	}
	if ran {
		r.printRan(res)
	}
	return res, nil
}

// Prefetch fans jobs out over the worker pool and blocks until every job
// has completed or one has failed (failure cancels jobs still waiting for
// a worker; running simulations finish and populate the cache). Duplicate
// keys collapse. Progress lines print in submission order after the batch
// settles — never in completion order — so the rendered bytes are
// identical whether the pool has 1 worker or 64. The returned error is
// the earliest-submitted failure among the jobs that ran; when several
// jobs fail close together, which of them reached a worker first (and is
// therefore reported) can vary with the worker count.
func (r *Runner) Prefetch(jobs ...Job) error {
	uniq := make([]Job, 0, len(jobs))
	seen := make(map[string]bool, len(jobs))
	for _, j := range jobs {
		if !seen[j.key()] {
			seen[j.key()] = true
			uniq = append(uniq, j)
		}
	}

	type outcome struct {
		res *sim.Result
		ran bool
		err error
	}
	outs := make([]outcome, len(uniq))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for i, j := range uniq {
		wg.Add(1)
		go func(i int, j Job) {
			defer wg.Done()
			res, ran, err := r.run(ctx, j)
			outs[i] = outcome{res, ran, err}
			if err != nil {
				cancel()
			}
		}(i, j)
	}
	wg.Wait()

	errs := make([]error, len(outs))
	for i, o := range outs {
		errs[i] = o.err
		if o.err == nil && o.ran {
			r.printRan(o.res)
		}
	}
	return exec.FirstError(errs)
}

// speedup returns the weighted speedup of scheme over the uncompressed
// baseline for one workload.
func (r *Runner) speedup(wl, scheme string) (float64, error) {
	base, err := r.Result(wl, sim.SchemeUncompressed, "", nil)
	if err != nil {
		return 0, err
	}
	res, err := r.Result(wl, scheme, "", nil)
	if err != nil {
		return 0, err
	}
	return res.WeightedSpeedupOver(base), nil
}

// geoMeanSpeedup averages a scheme's speedup over a workload list.
func (r *Runner) geoMeanSpeedup(wls []string, scheme string) (float64, error) {
	var vs []float64
	for _, wl := range wls {
		s, err := r.speedup(wl, scheme)
		if err != nil {
			return 0, err
		}
		vs = append(vs, s)
	}
	return stats.GeoMean(vs), nil
}

// header prints an experiment banner.
func (r *Runner) header(title string) {
	fmt.Fprintf(r.Out, "\n=== %s ===\n", title)
}

// bar renders an ASCII bar for a speedup value: "|" marks 1.0 (baseline);
// each cell is 2.5% of speedup. Values below 1.0 grow to the left.
func bar(v float64) string {
	const cell = 0.025
	n := int((v - 1.0) / cell)
	switch {
	case n >= 0:
		if n > 40 {
			n = 40
		}
		return "|" + strings.Repeat("#", n)
	default:
		if n < -20 {
			n = -20
		}
		return strings.Repeat("-", -n) + "|"
	}
}

// sortedCopy returns vs sorted ascending (Figure 17's S-curve).
func sortedCopy(vs []float64) []float64 {
	out := append([]float64(nil), vs...)
	sort.Float64s(out)
	return out
}

// lookupWorkload resolves a workload name (mixes resolve to a synthetic
// description labeled "mix").
func lookupWorkload(name string) (*workload.Workload, error) {
	if w, err := workload.Lookup(name); err == nil {
		return w, nil
	}
	if _, err := workload.LookupMix(name); err == nil {
		return &workload.Workload{Name: name, Suite: "mix"}, nil
	}
	return nil, fmt.Errorf("paper: unknown workload %q", name)
}
