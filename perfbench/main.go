// Command perfbench is the repository's benchmark. It drives the
// simulator and the simulation service in-process, checks every simulated
// result, and prints every metric by name and unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload mix1 --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 is the separate
// traced run that reports the per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"ptmc/internal/sim"
	"ptmc/internal/vm"
)

// options are one run's parameters.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	tmpDir  string
	golden  goldenSet
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(options) (*report, error){
	"mix1": func(o options) (*report, error) {
		return runSimWorkload("mix1", mix1Config(o.seed), o)
	},
	"lowmlp": func(o options) (*report, error) {
		return runSimWorkload("lowmlp", lowMLPConfig(o.seed), o)
	},
	"sweep": runSweepWorkload,
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "mix1", "workload: mix1, lowmlp or sweep")
	seed := flag.Int64("seed", defaultSeed, "input seed (golden digests are checked at the default)")
	seconds := flag.Float64("seconds", 30, "measure whole repetitions until this many seconds have passed")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	tmp := flag.String("tmp", ".bench_build/tmp", "scratch directory for the service's job stores")
	regen := flag.String("regen-golden", "", "record this run's digest for (workload, seed) in the given golden file instead of checking it")
	compare := flag.Bool("compare", false, "compare two saved outputs, given as arguments old new, under the bounds in ./BENCHMARK.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare takes two saved outputs: old new")
		}
		return compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
	}
	runner, ok := workloads[*name]
	switch {
	case !ok:
		return fmt.Errorf("unknown workload %q", *name)
	case *seed < 0:
		return fmt.Errorf("seed must be >= 0")
	case *seconds <= 0:
		return fmt.Errorf("seconds must be positive")
	case *trace != 0 && *trace != 1:
		return fmt.Errorf("trace must be 0 or 1")
	}
	g, err := loadGolden()
	if err != nil {
		return err
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, tmpDir: *tmp, golden: g}
	if *regen != "" {
		o.golden = nil
	}

	host := currentHost()
	hb, err := json.Marshal(host)
	if err != nil {
		return err
	}
	fmt.Printf("host %s\n", hb)
	rp, err := runner(o)
	if err != nil {
		return err
	}
	for _, msg := range rp.failures {
		fmt.Fprintln(os.Stderr, "FAIL:", msg)
	}
	if rp.attempted > 0 {
		rp.set("fail_frac", float64(rp.failed)/float64(rp.attempted))
	}
	if *regen != "" {
		if rp.failed > 0 || rp.digest == "" {
			return fmt.Errorf("not recording a golden digest from a failed run")
		}
		if err := recordGolden(*regen, *name, *seed, rp.digest); err != nil {
			return err
		}
	}
	if rp.failed == 0 {
		fmt.Printf("digest %s seed %d %s\n", *name, *seed, rp.digest)
	}
	line, err := rp.resultLine(o.trace)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(rp.values))
	for n := range rp.values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %-28s %.6g %s\n", n, rp.values[n], unitOf(n))
	}
	fmt.Println(string(line))
	return nil
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"minst_per_s", "Minst/s"},
	{"cpu_s_per_minst", "s/Minst"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run. A metric a workload does not
// exercise (the service's on a simulator workload) reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"fail_frac", "fraction"},
		{"interactive_p50_s", "s"},
		{"interactive_p90_s", "s"},
		{"interactive_n", "count"},
		{"workload.fill_s", "s"},
		{"workload.fill_lines", "count"},
		{"workload.next_s", "s"},
		{"workload.next_calls", "count"},
		{"workload.mutate_s", "s"},
		{"vm.pages_touched", "count"},
		{"sim.run_s", "s"},
		{"sim.cycles", "cycles"},
		{"sim.ipc", "inst/cycle"},
		{"sim.host_ns_per_cycle", "ns/cycle"},
		{"dram.reads", "count"},
		{"dram.writes", "count"},
		{"dram.row_hits", "count"},
		{"dram.activates", "count"},
		{"memctrl.demand_reads", "count"},
		{"memctrl.prefetch_reads", "count"},
		{"memctrl.mispredict_reads", "count"},
		{"memctrl.dirty_writes", "count"},
		{"memctrl.useful_free_pf", "count"},
		{"memctrl.coalesced_reads", "count"},
		{"memctrl.total_bursts", "count"},
		{"core.llp_accuracy", "fraction"},
		{"compress.groups4", "count"},
		{"compress.groups2", "count"},
		{"compress.singles", "count"},
		{"compress.fills_compressed", "count"},
		{"cache.l3_hits", "count"},
		{"cache.l3_misses", "count"},
		{"cache.l3_evictions", "count"},
		{"server.accept_p50_ms", "ms"},
		{"server.sim_busy_s", "s"},
		{"server.sim_concurrency", "ratio"},
		{"server.queue_wait_p50_s", "s"},
		{"server.overhead_p50_s", "s"},
		{"server.sims_run", "count"},
		{"client.lateness_max_s", "s"},
		{"trace.overhead", "ratio"},
	}
	for _, l := range append(append([]string(nil), reportedLayers...), "other") {
		defs = append(defs, metricDef{l + ".share", "fraction"})
	}
	return defs
}()

func unitOf(name string) string {
	for _, set := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range set {
			if d.name == name {
				return d.unit
			}
		}
	}
	return ""
}

// report is one run's outcome: operations attempted and failed, metric
// values, and the digest of the simulated output.
type report struct {
	attempted, failed int
	failures          []string
	values            map[string]float64
	digest            string
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) fail(format string, args ...any) {
	r.failed++
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

func (r *report) set(name string, v float64) { r.values[name] = v }

// setSimLayers reports the per-layer metrics of the simulations one
// traced repetition ran: results[i] simulated totals[i] instructions,
// warmup included, and all of them took runS host seconds. Counts are
// summed over results, and ratios are recomputed from the sums.
func (r *report) setSimLayers(results []*sim.Result, totals []int64, src sourceTotals, runS float64) {
	r.set("workload.fill_s", src.fillS)
	r.set("workload.fill_lines", float64(src.fillLines))
	r.set("workload.next_s", src.nextS)
	r.set("workload.next_calls", float64(src.nextCalls))
	r.set("workload.mutate_s", src.mutateS)
	r.set("sim.run_s", runS)
	var pages, allCycles float64
	var instr, cycles int64
	var llp float64
	var llpN int
	counts := map[string]uint64{}
	for i, res := range results {
		pages += float64(res.FootprintBytes >> vm.PageShift)
		// Host time covers warmup and measurement but Result counts cycles
		// in the measured window only: scale by the horizon to estimate
		// the cycles the host time paid for.
		allCycles += float64(res.Cycles) * float64(totals[i]) / float64(res.Instructions)
		instr += res.Instructions
		cycles += res.Cycles
		if res.HasLLP {
			llp += res.LLPAccuracy
			llpN++
		}
		m := &res.Mem
		for name, v := range map[string]uint64{
			"dram.reads": res.DRAM.Reads, "dram.writes": res.DRAM.Writes,
			"dram.row_hits": res.DRAM.RowHits, "dram.activates": res.DRAM.Activates,
			"memctrl.demand_reads": m.DemandReads, "memctrl.prefetch_reads": m.PrefetchReads,
			"memctrl.mispredict_reads": m.MispredictReads, "memctrl.dirty_writes": m.DirtyWrites,
			"memctrl.useful_free_pf": m.UsefulFreePf, "memctrl.coalesced_reads": m.CoalescedReads,
			"memctrl.total_bursts": m.Total(),
			"compress.groups4":     m.Groups4, "compress.groups2": m.Groups2,
			"compress.singles": m.SinglesWrit, "compress.fills_compressed": m.FillsCompressed,
			"cache.l3_hits": res.L3.Hits, "cache.l3_misses": res.L3.Misses,
			"cache.l3_evictions": res.L3.Evictions,
		} {
			counts[name] += v
		}
	}
	for name, v := range counts {
		r.set(name, float64(v))
	}
	r.set("vm.pages_touched", pages)
	r.set("sim.cycles", float64(cycles))
	if cycles > 0 {
		r.set("sim.ipc", float64(instr)/float64(cycles))
		r.set("sim.host_ns_per_cycle", runS*1e9/allCycles)
	}
	if llpN > 0 {
		r.set("core.llp_accuracy", llp/float64(llpN))
	}
}

// setShares reports each layer's share of the traced run's CPU samples.
func (r *report) setShares(w layerWeights) {
	for l, v := range w.shares() {
		r.set(l+".share", v)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the final line: every end-to-end metric for an untraced
// run, every per-layer metric for a traced one.
func (r *report) resultLine(traced bool) ([]byte, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	metrics := map[string]metricValue{}
	for _, d := range defs {
		metrics[d.name] = metricValue{r.values[d.name], d.unit}
	}
	return json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, metrics})
}
