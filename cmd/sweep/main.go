// Command sweep runs parameter-sensitivity studies around the paper's
// design points: channel count, LLC size, LLP size, metadata-cache size for
// the table-based baseline, and ganged-eviction geometry (group size via
// scheme choice). Each sweep reports Dynamic-PTMC's (or the named scheme's)
// weighted speedup over the uncompressed baseline at every point.
//
// Points run concurrently up to -parallel workers; output prints in sweep
// order once every point has settled, so the report is identical at any
// worker count. A failing point does not abort the sweep: every point
// runs, completed rows print, the failures are listed afterwards, and only
// then does the process exit non-zero.
//
// -timeout bounds each point's wall-clock time: a point that exceeds its
// deadline is cancelled (the simulation aborts at its next cycle
// checkpoint), reported in the end-of-run summary as timed out, and the
// rest of the sweep continues.
//
// Usage:
//
//	sweep -kind channels -workload lbm06
//	sweep -kind llc      -workload mcf06 -scheme ptmc
//	sweep -kind llp      -workload lbm06
//	sweep -kind mcache   -workload pr-twitter
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"

	"ptmc"
	"ptmc/internal/exec"
)

type point struct {
	label  string
	mutate func(*ptmc.Config)
}

func main() {
	var (
		kind         = flag.String("kind", "channels", "sweep: channels | llc | llp | mcache | decomp | seeds")
		workloadName = flag.String("workload", "lbm06", "workload name")
		scheme       = flag.String("scheme", ptmc.SchemeDynamicPTMC, "scheme under test")
		insts        = flag.Int64("insts", 400_000, "measured instructions per core")
		warmup       = flag.Int64("warmup", 200_000, "warmup instructions per core")
		cores        = flag.Int("cores", 8, "cores")
		seed         = flag.Int64("seed", 1, "base seed")
		parallel     = flag.Int("parallel", runtime.GOMAXPROCS(0),
			"max concurrent simulations (output is identical at any value)")
		timeout = flag.Duration("timeout", 0,
			"per-point deadline (0 = none); timed-out points are reported, the sweep continues")

		metricsOut = flag.String("metrics", "",
			"write each point's metrics snapshot series to <name>-<label>.json")
		metricsIval = flag.Int64("metrics-interval", 10_000, "snapshot window in CPU cycles (with -metrics)")
		traceOut    = flag.String("trace", "",
			"write each point's controller events to <name>-<label>.trace (Chrome trace-event JSON)")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	)
	flag.Parse()

	if *pprofAddr != "" {
		addr, err := ptmc.StartPprof(*pprofAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sweep:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "pprof: http://%s/debug/pprof/\n", addr)
	}

	base := ptmc.DefaultConfig()
	base.Workload = *workloadName
	base.MeasureInstr = *insts
	base.WarmupInstr = *warmup
	base.Cores = *cores
	base.Seed = *seed

	var points []point
	switch *kind {
	case "channels":
		for _, ch := range []int{1, 2, 4} {
			ch := ch
			points = append(points, point{fmt.Sprintf("channels=%d", ch),
				func(c *ptmc.Config) { c.DRAM.Channels = ch }})
		}
	case "llc":
		for _, mb := range []int{2, 4, 8, 16} {
			mb := mb
			points = append(points, point{fmt.Sprintf("llc=%dMB", mb),
				func(c *ptmc.Config) { c.L3Bytes = mb << 20 }})
		}
	case "llp":
		for _, n := range []int{64, 128, 256, 512, 1024, 4096} {
			n := n
			points = append(points, point{fmt.Sprintf("llp=%d", n),
				func(c *ptmc.Config) { c.LLPEntries = n }})
		}
	case "mcache":
		*scheme = ptmc.SchemeTableTMC // metadata cache only exists there
		for _, kb := range []int{8, 16, 32, 64, 128} {
			kb := kb
			points = append(points, point{fmt.Sprintf("mcache=%dKB", kb),
				func(c *ptmc.Config) { c.MCacheBytes = kb << 10 }})
		}
	case "decomp":
		for _, lat := range []int64{2, 5, 10, 20, 40} {
			lat := lat
			points = append(points, point{fmt.Sprintf("decomp=%d", lat),
				func(c *ptmc.Config) { c.DecompCycles = lat }})
		}
	case "seeds":
		for s := int64(1); s <= 5; s++ {
			s := s
			points = append(points, point{fmt.Sprintf("seed=%d", s),
				func(c *ptmc.Config) { c.Seed = s }})
		}
	default:
		fmt.Fprintf(os.Stderr, "sweep: unknown kind %q\n", *kind)
		os.Exit(1)
	}

	fmt.Printf("sweep %s on %s (%s vs uncompressed)\n", *kind, *workloadName, *scheme)

	// Every point runs to completion even if another fails: the two schemes
	// of one point share the point's pool slot (CompareParallel at 1) so
	// distinct points, not scheme pairs, are the unit of fan-out.
	pool := exec.NewPool(*parallel)
	rows := make([]string, len(points))
	errs := make([]error, len(points))
	var wg sync.WaitGroup
	for i, p := range points {
		wg.Add(1)
		go func(i int, p point) {
			defer wg.Done()
			if err := pool.Run(context.Background(), *timeout, func(ctx context.Context) error {
				cfg := base
				p.mutate(&cfg)
				if *metricsOut != "" {
					cfg.MetricsInterval = *metricsIval
				}
				cfg.Trace = *traceOut != ""
				rs, err := ptmc.CompareParallel(ctx, 1, cfg,
					ptmc.SchemeUncompressed, *scheme)
				if err != nil {
					return err
				}
				r := rs[*scheme]
				b := rs[ptmc.SchemeUncompressed]
				if *metricsOut != "" {
					if err := writeFile(pointPath(*metricsOut, p.label), r.Metrics.WriteJSON); err != nil {
						return err
					}
				}
				if *traceOut != "" {
					err := writeFile(pointPath(*traceOut, p.label), func(w io.Writer) error {
						return ptmc.WriteChromeTrace(w, r.TraceEvents)
					})
					if err != nil {
						return err
					}
				}
				rows[i] = fmt.Sprintf("%-12s speedup=%.3f ipc=%.3f bw=%.3f llp=%.1f%% mpki=%.1f",
					p.label, r.WeightedSpeedupOver(b), r.IPC(), r.BandwidthOver(b),
					100*r.LLPAccuracy, r.MPKI)
				return nil
			}); err != nil {
				errs[i] = fmt.Errorf("%s: %w", p.label, err)
			}
		}(i, p)
	}
	wg.Wait()

	failed, timedOut := false, 0
	for i := range points {
		if errs[i] == nil {
			fmt.Println(rows[i])
		}
	}
	for i := range points {
		if errs[i] != nil {
			failed = true
			if errors.Is(errs[i], context.DeadlineExceeded) {
				timedOut++
				fmt.Fprintf(os.Stderr, "sweep: %v (timed out after %v)\n", errs[i], *timeout)
			} else {
				fmt.Fprintln(os.Stderr, "sweep:", errs[i])
			}
		}
	}
	if timedOut > 0 {
		fmt.Fprintf(os.Stderr, "sweep: %d of %d points timed out (-timeout %v)\n",
			timedOut, len(points), *timeout)
	}
	if failed {
		os.Exit(1)
	}
}

// pointPath derives a per-point output file from the flag value by
// inserting the point label before the extension.
func pointPath(base, label string) string {
	ext := filepath.Ext(base)
	return strings.TrimSuffix(base, ext) + "-" + label + ext
}

// writeFile writes one observability artifact for a sweep point.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err == nil {
		err = write(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}
