package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"ptmc/internal/server"
	"ptmc/internal/sim"
)

// The sweep workload: an in-process ptmcd on a fresh store with the
// default server.Config. One client submits a sweep and polls it to
// completion while an open loop submits tiny interactive jobs at a fixed
// rate, each timed from the moment it was due.
const (
	sweepCores   = 2
	sweepWarmup  = 20_000
	sweepMeasure = 40_000

	interactiveWorkload = "gcc06"
	interactiveWarmup   = 1 // 0 would select the default warmup
	interactiveMeasure  = 2_000
	// The queue serves a sweep child after every three interactive jobs
	// (aging), so the rate must stay below three jobs per child duration or
	// the backlog grows until the queue refuses jobs.
	interactiveRate = 10  // jobs per second, while the sweep runs
	interactiveMin  = 100 // per run, so p90 has ten samples beyond it

	pollEvery = 10 * time.Millisecond
	// requestTimeout bounds every HTTP exchange, an event stream included,
	// and sweepTimeout the whole sweep, so a hung service fails the run
	// instead of stalling it.
	requestTimeout = 30 * time.Second
	sweepTimeout   = 30 * time.Second
)

var (
	sweepWorkloads = []string{"lbm06", "mcf06", "gcc06"}
	sweepSchemes   = []string{sim.SchemeUncompressed, sim.SchemeDynamicPTMC}
)

// sweepSpec is the sweep a repetition submits for benchmark seed seed.
// Simulator seeds start at 1: the service reads seed 0 as "default".
func sweepSpec(seed int64) server.SweepSpec {
	return server.SweepSpec{
		Workloads: sweepWorkloads,
		Schemes:   sweepSchemes,
		Seeds:     []int64{seed + 1, seed + 2},
		Cores:     sweepCores,
		Warmup:    sweepWarmup,
		Measure:   sweepMeasure,
	}
}

// interactiveSpec is the k-th interactive job of a repetition. Seeds are
// distinct per job so that no job is answered from the result cache.
func interactiveSpec(seed int64, k int) server.JobSpec {
	return server.JobSpec{
		Workload: interactiveWorkload,
		Schemes:  []string{sim.SchemeDynamicPTMC},
		Cores:    1,
		Warmup:   interactiveWarmup,
		Measure:  interactiveMeasure,
		Seed:     (seed+1)*1_000_000 + int64(k),
		Priority: server.PriorityInteractive,
	}
}

// sweepInstructions is the number of instructions the artifact's done
// points simulated, warmup included, summed over points and cores.
func sweepInstructions(art *server.SweepArtifact) int64 {
	per := int64(art.Spec.Cores) * (art.Spec.Warmup + art.Spec.Measure)
	var n int64
	for _, p := range art.Points {
		if p.State == server.StateDone {
			n += per
		}
	}
	return n
}

// pointKey identifies one simulation the service runs.
func pointKey(workload, scheme string, cores int, seed int64) string {
	return fmt.Sprintf("%s|%s|%d|%d", workload, scheme, cores, seed)
}

type span struct{ start, end time.Time }

// simTimer is the service's RunSim hook in a traced repetition: it times
// every simulation and feeds it timed workload sources.
type simTimer struct {
	mu      sync.Mutex
	spans   map[string]span
	results []*sim.Result
	totals  []int64 // instructions each result simulated, warmup included
	src     sourceTotals
}

func (t *simTimer) run(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
	key := pointKey(cfg.Workload, cfg.Scheme, cfg.Cores, cfg.Seed)
	start := time.Now()
	cfg, times, err := withTimedSources(cfg)
	if err != nil {
		return nil, err
	}
	res, err := sim.RunContext(ctx, cfg)
	end := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[key] = span{start, end}
	if err == nil {
		t.results = append(t.results, res)
		t.totals = append(t.totals, totalInstr(cfg))
		t.src.add(times)
	}
	return res, err
}

// client talks to one in-process service over HTTP.
type client struct {
	base string
	hc   *http.Client
}

// do sends one request and reads the whole reply; a non-2xx status is an
// error.
func (c *client) do(method, path string, body any) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// service is one in-process ptmcd listening on a loopback port.
type service struct {
	srv  *server.Server
	hs   *http.Server
	dir  string
	done chan struct{} // closed when Serve has returned
	c    *client
}

// startService opens a fresh store under tmp and serves it; it returns
// once /readyz answers.
func startService(tmp string, runSim func(context.Context, sim.Config) (*sim.Result, error)) (*service, error) {
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmp, "store-")
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{Dir: dir, RunSim: runSim})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain(context.Background())
		os.RemoveAll(dir)
		return nil, err
	}
	s := &service{srv: srv, hs: &http.Server{Handler: srv.Handler()}, dir: dir, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.hs.Serve(ln) // returns ErrServerClosed on Shutdown
	}()
	s.c = &client{base: "http://" + ln.Addr().String(),
		hc: &http.Client{Timeout: requestTimeout, Transport: &http.Transport{MaxIdleConnsPerHost: 64}}}
	for {
		if _, err := s.c.do("GET", "/readyz", nil); err == nil {
			return s, nil
		}
		select {
		case <-s.done:
			s.stop()
			return nil, errors.New("service stopped before it was ready")
		case <-time.After(time.Millisecond):
		}
	}
}

// stop shuts the listener and the service down and removes the store.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	<-s.done
	if derr := s.srv.Drain(ctx); err == nil {
		err = derr
	}
	s.c.hc.CloseIdleConnections()
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// simsRun reads the service's ptmcd.sims_run counter from /metrics.
func (c *client) simsRun() (int, error) {
	data, err := c.do("GET", "/metrics", nil)
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "ptmcd.sims_run "); ok {
			return strconv.Atoi(strings.TrimSpace(v))
		}
	}
	return 0, errors.New("/metrics has no ptmcd.sims_run")
}

// checkArtifact applies checkResult to every scheme result of a job
// artifact.
func checkArtifact(data []byte, cores int, measure int64) error {
	var art server.ResultArtifact
	if err := json.Unmarshal(data, &art); err != nil {
		return err
	}
	if len(art.Results) != len(art.Spec.Schemes) {
		return fmt.Errorf("job %s: %d results for %d schemes", art.ID, len(art.Results), len(art.Spec.Schemes))
	}
	for _, r := range art.Results {
		if r.Result == nil {
			return fmt.Errorf("job %s: no result for %s", art.ID, r.Scheme)
		}
		if err := checkResult(sim.Config{Cores: cores, MeasureInstr: measure}, r.Result); err != nil {
			return fmt.Errorf("job %s %s: %w", art.ID, r.Scheme, err)
		}
	}
	return nil
}

// sweepRep is the outcome of one repetition.
type sweepRep struct {
	setupS     float64 // CPU seconds (see setupReps)
	netFactor  float64 // share of the window's wall time left after CPU steal (see netWall)
	makespanS  float64 // sweep POST until its aggregate is served
	windowS    float64 // first submission until the last result is served
	cpuS       float64
	sweepInstr int64
	allInstr   int64
	digest     string
	latencies  []float64 // interactive: due until served, net of CPU steal
	accepts    []float64 // POST round trips
	lateness   float64   // worst generator lag behind schedule
	overheads  []float64 // traced: interactive sim end until served
	queueWaits []float64 // traced: accept until sim start
	busyS      float64   // traced: summed simulation time
	prof       []byte
	timer      *simTimer
}

// runSweepRep runs one repetition on a fresh service; failures are
// recorded on rp.
func runSweepRep(o options, traced bool, rp *report) (*sweepRep, error) {
	out := &sweepRep{}
	var hook func(context.Context, sim.Config) (*sim.Result, error)
	var prof bytes.Buffer
	// No freshHeap here: a daemon keeps its heap between jobs, and so do
	// the repetitions of one run.
	if traced {
		out.timer = &simTimer{spans: map[string]span{}}
		hook = out.timer.run
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	s0 := cpuSeconds()
	svc, err := startService(o.tmpDir, hook)
	if err != nil {
		if traced {
			pprof.StopCPUProfile()
		}
		return nil, err
	}
	out.setupS = cpuSeconds() - s0
	c := svc.c
	c0, st0 := cpuSeconds(), stealSeconds()

	var mu sync.Mutex
	accepted := map[string]time.Time{}
	served := map[string]time.Time{}
	fail := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		rp.fail(format, args...)
	}

	start := time.Now()
	sweepDone := make(chan struct{})
	var jobs sync.WaitGroup
	nJobs := 0
	genDone := make(chan struct{})
	go func() {
		defer close(genDone)
		for k := 0; ; k++ {
			due := start.Add(time.Duration(k) * time.Second / interactiveRate)
			select {
			case <-sweepDone:
				return
			case <-time.After(time.Until(due)):
			}
			nJobs++
			jobs.Add(1)
			go func(k int, due time.Time) {
				defer jobs.Done()
				spec := interactiveSpec(o.seed, k)
				key := pointKey(spec.Workload, spec.Schemes[0], spec.Cores, spec.Seed)
				sent := time.Now()
				c0, st0 := cpuSeconds(), stealSeconds()
				mu.Lock()
				rp.attempted++
				if l := sent.Sub(due).Seconds(); l > out.lateness {
					out.lateness = l
				}
				mu.Unlock()
				data, err := c.do("POST", "/jobs", spec)
				if err != nil {
					fail("interactive %d: %v", k, err)
					return
				}
				acc := time.Now()
				var st server.JobStatus
				if err := json.Unmarshal(data, &st); err != nil {
					fail("interactive %d: %v", k, err)
					return
				}
				// The event stream ends once the job is terminal.
				if _, err := c.do("GET", "/jobs/"+st.ID+"/events", nil); err != nil {
					fail("interactive %d: %v", k, err)
					return
				}
				res, err := c.do("GET", "/jobs/"+st.ID+"/result", nil)
				done := time.Now()
				if err == nil {
					err = checkArtifact(res, spec.Cores, spec.Measure)
				}
				if err != nil {
					fail("interactive %d: %v", k, err)
					return
				}
				mu.Lock()
				defer mu.Unlock()
				out.accepts = append(out.accepts, acc.Sub(sent).Seconds())
				// Each job's latency is netted of the steal over its own
				// interval: a queue amplifies a slowdown, so the window's
				// average steal would not undo it.
				out.latencies = append(out.latencies,
					netWall(done.Sub(due).Seconds(), cpuSeconds()-c0, stealSeconds()-st0))
				accepted[key], served[key] = sent, done
				out.allInstr += int64(spec.Cores) * (spec.Warmup + spec.Measure)
			}(k, due)
		}
	}()

	spec := sweepSpec(o.seed)
	art, err := runSweep(c, spec, out, &mu, accepted)
	close(sweepDone)
	<-genDone
	jobs.Wait()
	end := time.Now()
	mu.Lock()
	rp.attempted++
	mu.Unlock()
	if err != nil {
		rp.fail("sweep: %v", err)
	}
	out.windowS = end.Sub(start).Seconds()
	out.cpuS = cpuSeconds() - c0
	out.netFactor = netWall(out.windowS, out.cpuS, stealSeconds()-st0) / out.windowS
	if art != nil {
		out.sweepInstr = sweepInstructions(art)
		out.allInstr += out.sweepInstr
	}

	rp.attempted++
	if n, err := c.simsRun(); err != nil {
		rp.fail("sims_run: %v", err)
	} else if want := len(spec.Workloads)*len(spec.Schemes)*len(spec.Seeds) + nJobs; n != want {
		rp.fail("server ran %d simulations for %d distinct points", n, want)
	}
	if err := svc.stop(); err != nil {
		return nil, err
	}
	if traced {
		pprof.StopCPUProfile()
		out.prof = prof.Bytes()
		t := out.timer
		for key, sp := range t.spans {
			out.busyS += sp.end.Sub(sp.start).Seconds()
			if at, ok := accepted[key]; ok {
				out.queueWaits = append(out.queueWaits, sp.start.Sub(at).Seconds())
			}
			if sv, ok := served[key]; ok {
				out.overheads = append(out.overheads, sv.Sub(sp.end).Seconds())
			}
		}
	}
	return out, nil
}

// runSweep submits the sweep, polls it to completion and checks its
// aggregate artifact. It records the accept round trip, the makespan, the
// digest and each child point's accept time.
func runSweep(c *client, spec server.SweepSpec, out *sweepRep, mu *sync.Mutex, accepted map[string]time.Time) (*server.SweepArtifact, error) {
	sent := time.Now()
	data, err := c.do("POST", "/sweeps", spec)
	if err != nil {
		return nil, err
	}
	acc := time.Now()
	var st server.SweepStatus
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, err
	}
	mu.Lock()
	out.accepts = append(out.accepts, acc.Sub(sent).Seconds())
	for _, w := range spec.Workloads {
		for _, sc := range spec.Schemes {
			for _, sd := range spec.Seeds {
				accepted[pointKey(w, sc, spec.Cores, sd)] = sent
			}
		}
	}
	mu.Unlock()
	for st.State != server.StateDone && st.State != server.StateFailed {
		if time.Since(sent) > sweepTimeout {
			return nil, fmt.Errorf("sweep %s still %s after %v", st.ID, st.State, sweepTimeout)
		}
		time.Sleep(pollEvery)
		if data, err = c.do("GET", "/sweeps/"+st.ID, nil); err != nil {
			return nil, err
		}
		if err := json.Unmarshal(data, &st); err != nil {
			return nil, err
		}
	}
	if st.State != server.StateDone {
		return nil, fmt.Errorf("sweep %s ended %s: %s", st.ID, st.State, st.Error)
	}
	body, err := c.do("GET", "/sweeps/"+st.ID+"/result", nil)
	if err != nil {
		return nil, err
	}
	out.makespanS = time.Since(sent).Seconds()
	out.digest = sha256Hex(body)
	var art server.SweepArtifact
	if err := json.Unmarshal(body, &art); err != nil {
		return nil, err
	}
	if len(art.Points) != len(spec.Workloads)*len(spec.Schemes)*len(spec.Seeds) {
		return &art, fmt.Errorf("sweep has %d points", len(art.Points))
	}
	for _, p := range art.Points {
		if p.State != server.StateDone {
			return &art, fmt.Errorf("point %s/%s/%d ended %s: %s", p.Workload, p.Scheme, p.Seed, p.State, p.Error)
		}
		if err := checkArtifact(p.Result, spec.Cores, spec.Measure); err != nil {
			return &art, err
		}
	}
	return &art, nil
}

// runSweepWorkload measures the sweep workload for o.seconds: whole
// repetitions, each on a fresh service and store. The traced run
// alternates untraced and traced repetitions.
func runSweepWorkload(o options) (*report, error) {
	rp := newReport()
	var setups []float64
	for i := 0; i < setupReps-1; i++ {
		freshHeap()
		c0 := cpuSeconds()
		svc, err := startService(o.tmpDir, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, cpuSeconds()-c0)
		if err := svc.stop(); err != nil {
			return nil, err
		}
	}

	want := o.golden.digest("sweep", o.seed)
	var rates, cpus, lats, makespans, tracedSpans []float64
	var traced []*sweepRep
	start := time.Now()
	for i := 0; ; i++ {
		tr := o.trace && i%2 == 1
		enough := len(lats) >= interactiveMin
		if i >= 1 && time.Since(start).Seconds() >= o.seconds && (!o.trace || i >= 2) && enough {
			break
		}
		failed := rp.failed
		rep, err := runSweepRep(o, tr, rp)
		if err != nil {
			return nil, err
		}
		if rep.digest != "" {
			if rp.digest == "" {
				rp.digest = rep.digest
			}
			switch {
			case rep.digest != rp.digest:
				rp.fail("sweep rep %d: digest %s differs from the first repetition's %s", i, rep.digest, rp.digest)
			case want != "" && rep.digest != want:
				rp.fail("sweep seed %d: digest %s, golden %s", o.seed, rep.digest, want)
			}
		}
		if rp.failed > failed {
			continue
		}
		fmt.Printf("rep %d traced=%t setup_cpu_s=%.6f makespan_s=%.4f net=%.4f cpu_s=%.4f interactive=%d\n",
			i, tr, rep.setupS, rep.makespanS, rep.netFactor, rep.cpuS, len(rep.latencies))
		if tr {
			traced = append(traced, rep)
			tracedSpans = append(tracedSpans, rep.makespanS*rep.netFactor)
			continue
		}
		setups = append(setups, rep.setupS)
		// Host time net of CPU steal, spread evenly over the window.
		net := rep.makespanS * rep.netFactor
		rates = append(rates, float64(rep.sweepInstr)/1e6/net)
		cpus = append(cpus, rep.cpuS/(float64(rep.allInstr)/1e6))
		makespans = append(makespans, net)
		lats = append(lats, rep.latencies...)
	}
	if len(rates) == 0 || (o.trace && len(traced) == 0) {
		return rp, nil
	}
	if p, ok := tailPercentile(len(lats)); !ok || p < 90 {
		rp.fail("only %d interactive samples: no p90 with %d beyond it", len(lats), minBeyond)
	}
	rp.set("setup_s", median(setups))
	rp.set("minst_per_s", median(rates))
	rp.set("cpu_s_per_minst", median(cpus))
	rp.set("peak_rss_mb", peakRSSMB())
	rp.set("interactive_p50_s", percentile(lats, 50))
	rp.set("interactive_p90_s", percentile(lats, 90))
	rp.set("interactive_n", float64(len(lats)))
	if !o.trace {
		return rp, nil
	}

	weights := layerWeights{}
	var accepts, waits, overheads, busy, conc, lateness []float64
	for _, rep := range traced {
		if err := weights.addProfile(rep.prof); err != nil {
			return nil, err
		}
		accepts = append(accepts, rep.accepts...)
		waits = append(waits, rep.queueWaits...)
		overheads = append(overheads, rep.overheads...)
		busy = append(busy, rep.busyS)
		conc = append(conc, rep.busyS/rep.windowS)
		lateness = append(lateness, rep.lateness)
	}
	last := traced[len(traced)-1]
	rp.setSimLayers(last.timer.results, last.timer.totals, last.timer.src, last.busyS)
	rp.setShares(weights)
	rp.set("server.accept_p50_ms", 1000*percentile(accepts, 50))
	rp.set("server.sim_busy_s", median(busy))
	rp.set("server.sim_concurrency", median(conc))
	rp.set("server.queue_wait_p50_s", percentile(waits, 50))
	rp.set("server.overhead_p50_s", percentile(overheads, 50))
	rp.set("server.sims_run", float64(len(last.timer.results)))
	rp.set("client.lateness_max_s", percentile(lateness, 100))
	rp.set("trace.overhead", median(tracedSpans)/median(makespans))
	return rp, nil
}
