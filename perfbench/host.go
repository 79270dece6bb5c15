package main

import (
	"bufio"
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// hostBlock identifies the machine a result was measured on. Host-time
// metrics from different host blocks are not comparable.
type hostBlock struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
}

func currentHost() hostBlock {
	return hostBlock{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo ("unknown"
// where there is none).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return ru
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	ru := rusage()
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// userHZ is the tick unit of /proc/stat, fixed at 100 on Linux.
const userHZ = 100

// stealSeconds is the CPU steal time the kernel has accounted to this
// machine so far: time its virtual CPUs were runnable while the hypervisor
// ran something else. It reads 0 where /proc/stat has no steal column.
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return v / userHZ
}

// netWall is wall time less the steal the measured work's critical path
// suffered, given the process's CPU time and the machine's steal over the
// same interval. Steal falls on runnable CPUs in proportion to their
// runnable time (CPU time plus steal); the critical path was runnable for
// all of wall. Without steal it is wall itself.
func netWall(wall, cpu, steal float64) float64 {
	if steal <= 0 {
		return wall
	}
	return wall - steal*math.Min(1, wall/(cpu+steal))
}

// peakRSSMB is the process's peak resident set size (Linux reports KiB).
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }

// defaultSeed is the seed the golden digests are committed at.
const defaultSeed = 1

//go:embed golden.json
var goldenJSON []byte

// goldenSet maps workload -> seed -> sha256 of the workload's simulated
// output: the canonical JSON of the Result for a simulator workload, the
// aggregate artifact for the sweep.
type goldenSet map[string]map[string]string

func loadGolden() (goldenSet, error) {
	g := goldenSet{}
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// digest returns the golden digest for (workload, seed), "" if none is
// committed.
func (g goldenSet) digest(workload string, seed int64) string {
	return g[workload][strconv.FormatInt(seed, 10)]
}

// recordGolden sets (workload, seed)'s digest in the golden file at path.
func recordGolden(path, workload string, seed int64, digest string) error {
	g := goldenSet{}
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &g); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	case !errors.Is(err, os.ErrNotExist):
		return err
	}
	if g[workload] == nil {
		g[workload] = map[string]string{}
	}
	g[workload][strconv.FormatInt(seed, 10)] = digest
	out, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// savedRun is one saved benchmark output: its host block and result line.
type savedRun struct {
	host    hostBlock
	metrics map[string]metricValue
}

// parseSaved reads a saved standard output of a run.
func parseSaved(r io.Reader) (*savedRun, error) {
	var s savedRun
	var hostSeen bool
	var last string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if h, ok := strings.CutPrefix(line, "host "); ok {
			if err := json.Unmarshal([]byte(h), &s.host); err != nil {
				return nil, fmt.Errorf("host block: %w", err)
			}
			hostSeen = true
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !hostSeen {
		return nil, errors.New("no host block")
	}
	var res struct {
		Metrics map[string]metricValue `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	s.metrics = res.Metrics
	return &s, nil
}

// bound is one end-to-end metric's regression rule from BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`  // tolerated worsening, as a share of the old value
}

// loadBounds reads the end-to-end bounds from a BENCHMARK.json.
func loadBounds(path string) (map[string]bound, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]bound{}
	for _, b := range spec.EndToEnd {
		out[b.Name] = b
	}
	return out, nil
}

// compareRuns writes a verdict per bounded metric of new against old:
// "worse" when new is worse than old by more than the metric's bound,
// else "ok". Results from different host blocks get no verdict: host time
// measured on different machines does not compare.
func compareRuns(w io.Writer, old, new *savedRun, bounds map[string]bound) {
	if old.host != new.host {
		fmt.Fprintf(w, "different host: %+v vs %+v; no verdict\n", old.host, new.host)
		return
	}
	names := make([]string, 0, len(new.metrics))
	for n := range new.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		o, ok := old.metrics[n]
		b, bounded := bounds[n]
		if !ok || !bounded || o.Value == 0 {
			continue
		}
		nv := new.metrics[n].Value
		change := (nv - o.Value) / math.Abs(o.Value)
		worsening := change
		if b.Better == "higher" {
			worsening = -change
		}
		verdict := "ok"
		if worsening > b.Bound {
			verdict = "worse"
		}
		fmt.Fprintf(w, "%-20s %12.6g -> %12.6g %+7.1f%% (bound %.0f%%) %s\n",
			n, o.Value, nv, 100*change, 100*b.Bound, verdict)
	}
}

// compareFiles compares two saved outputs under the bounds in benchPath.
func compareFiles(w io.Writer, benchPath, oldPath, newPath string) error {
	bounds, err := loadBounds(benchPath)
	if err != nil {
		return err
	}
	var runs [2]*savedRun
	for i, p := range []string{oldPath, newPath} {
		f, err := os.Open(p)
		if err != nil {
			return err
		}
		runs[i], err = parseSaved(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	compareRuns(w, runs[0], runs[1], bounds)
	return nil
}
