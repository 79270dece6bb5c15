// Package paper implements the reproduction of every table and figure in
// the evaluation of "Enabling Transparent Memory-Compression for Commodity
// Memory Systems" (HPCA 2019). Each experiment builds on the simulator in
// internal/sim and prints the same rows/series the paper reports; shapes
// (who wins, rough factors, crossovers) are the reproduction target, not
// absolute numbers — see EXPERIMENTS.md.
//
// Every artifact is one pass: it declares its simulations once as a
// []Job, runs them with Runner.Run, and formats its rows from the
// Runner's memo.
package paper

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"

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

// Runner runs the experiments and memoizes their simulation results by
// (workload, scheme, variant), so artifacts that share runs (most share
// the uncompressed baseline) pay for them once per Runner. Each artifact
// declares its jobs once, hands them to Run, and then formats its rows
// from the memo through Result. A Runner is not goroutine-safe: artifacts
// run one after another, and only Run fans out.
type Runner struct {
	Opts Options
	Out  io.Writer
	pool *exec.Pool
	memo map[string]*sim.Result
}

// NewRunner builds a Runner writing human-readable reports to out, running
// up to parallel simulations at once (<= 0 selects runtime.GOMAXPROCS(0)).
// Report bytes are identical at any worker count.
func NewRunner(opts Options, out io.Writer, parallel int) *Runner {
	return &Runner{Opts: opts, Out: out, pool: exec.NewPool(parallel), memo: map[string]*sim.Result{}}
}

// Pool exposes the runner's worker pool; its queue-wait and run-time
// histograms summarize how the simulation fan-out scheduled after a run
// (cmd/paperbench -poolstats).
func (r *Runner) Pool() *exec.Pool { return r.pool }

// Job names one simulation: the (workload, scheme, variant) memo key plus
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

// simulate runs one job. It calls sim.Run, which does not watch for
// cancellation, so a job that has started always finishes.
func (r *Runner) simulate(j Job) (*sim.Result, error) {
	cfg := r.config(j.Workload, j.Scheme)
	if j.Mutate != nil {
		j.Mutate(&cfg)
	}
	res, err := sim.Run(cfg)
	if err == nil && res.Mem.IntegrityErrs > 0 {
		err = fmt.Errorf("%d integrity errors", res.Mem.IntegrityErrs)
	}
	if err != nil {
		return nil, fmt.Errorf("%s/%s%s: %w", j.Workload, j.Scheme, j.Variant, err)
	}
	return res, nil
}

// Run simulates every job whose key is not yet in the memo, over the
// worker pool; duplicate keys collapse. Pool.ForEach admits jobs in
// declaration order and stops admitting after the first failure, and a
// started job always finishes, so the returned error is the
// earliest-declared failure at any worker count. After the batch settles,
// each success enters the memo and its progress line prints, in
// declaration order — never in completion order — so the rendered bytes
// are identical whether the pool has 1 worker or 64.
func (r *Runner) Run(jobs ...Job) error {
	var todo []Job
	seen := map[string]bool{}
	for _, j := range jobs {
		k := j.key()
		if r.memo[k] == nil && !seen[k] {
			seen[k] = true
			todo = append(todo, j)
		}
	}
	results := make([]*sim.Result, len(todo))
	err := r.pool.ForEach(context.Background(), len(todo), func(_ context.Context, i int) (err error) {
		results[i], err = r.simulate(todo[i])
		return err
	})
	for i, res := range results {
		if res == nil {
			continue
		}
		r.memo[todo[i].key()] = res
		if !r.Opts.Silent {
			fmt.Fprintf(r.Out, "    [ran] %v\n", res)
		}
	}
	return err
}

// Result returns the memoized result of one job. Every artifact runs its
// jobs before reading them, so a missing key is a programming error and
// panics.
func (r *Runner) Result(wl, scheme, variant string) *sim.Result {
	res, ok := r.memo[Job{Workload: wl, Scheme: scheme, Variant: variant}.key()]
	if !ok {
		panic(fmt.Sprintf("paper: no result for %s/%s%s; Run it first", wl, scheme, variant))
	}
	return res
}

// speedup returns the weighted speedup of scheme over the uncompressed
// baseline for one workload.
func (r *Runner) speedup(wl, scheme string) float64 {
	return r.Result(wl, scheme, "").WeightedSpeedupOver(r.Result(wl, sim.SchemeUncompressed, ""))
}

// geoMeanSpeedup averages a scheme's speedup over a workload list.
func (r *Runner) geoMeanSpeedup(wls []string, scheme string) float64 {
	vs := make([]float64, len(wls))
	for i, wl := range wls {
		vs[i] = r.speedup(wl, scheme)
	}
	return stats.GeoMean(vs)
}

// specGraph is the SPEC set followed by the GAP set (most figures' rows).
func (r *Runner) specGraph() []string {
	return append(append([]string{}, r.Opts.spec()...), r.Opts.graph()...)
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
