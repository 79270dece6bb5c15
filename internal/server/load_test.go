package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ptmc/internal/sim"
)

// TestLoadKillRestart is the end-to-end load proof from the issue: ~2000
// concurrent jobs across all three priority classes (interactive, batch,
// and a sweep's children), a mid-flight SIGKILL-equivalent, a restart —
// and then every acknowledged job must settle done with zero duplicate
// simulations and bounded memory.
func TestLoadKillRestart(t *testing.T) {
	jobs := 2000
	if testing.Short() {
		jobs = 300
	}
	workloads := []string{"lbm06", "mcf06", "libquantum06", "milc06"}
	schemes := []string{"uncompressed", "ptmc", "dynamic-ptmc"}

	var baseline runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&baseline)

	// Life 1: every sim costs a little wall time so the kill lands with
	// plenty of work still queued and some in flight.
	slowStub := func(ctx context.Context, c sim.Config) (*sim.Result, error) {
		time.Sleep(200 * time.Microsecond)
		return fakeResult(c), nil
	}
	dir := t.TempDir()
	s1, err := New(Config{Dir: dir, Workers: 8,
		QueueCap: jobs + 64, RunSim: slowStub})
	if err != nil {
		t.Fatal(err)
	}
	hs1 := httptestServerNoCleanup(s1)

	// Submit from many goroutines, alternating priority classes and
	// tenants; every 202/200 id goes into the acked ledger the restart is
	// judged against.
	var mu sync.Mutex
	acked := map[string]bool{}
	var wg sync.WaitGroup
	const submitters = 8
	perG := jobs / submitters
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				n := g*perG + i
				prio := PriorityBatch
				if n%2 == 0 {
					prio = PriorityInteractive
				}
				spec := fmt.Sprintf(`{"workload":%q,"schemes":[%q],"cores":2,"warmup_instr":100,"measure_instr":200,"seed":%d,"tenant":"t%d","priority":%q}`,
					workloads[n%len(workloads)], schemes[n%len(schemes)], n+1, n%4, prio)
				resp, err := http.Post(hs1.URL+"/jobs", "application/json", strings.NewReader(spec))
				if err != nil {
					t.Error(err)
					return
				}
				var st JobStatus
				json.NewDecoder(resp.Body).Decode(&st)
				resp.Body.Close()
				if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
					t.Errorf("submit %d = %d", n, resp.StatusCode)
					return
				}
				mu.Lock()
				acked[st.ID] = true
				mu.Unlock()
			}
		}(g)
	}
	// The third class: one 20-point sweep riding along at sweep-child
	// priority (distinct seed range so no accidental key overlap).
	sweepBody := `{"workloads":["lbm06"],"schemes":["ptmc","uncompressed"],"seeds":[9001,9002,9003,9004,9005,9006,9007,9008,9009,9010],"cores":2,"warmup_instr":100,"measure_instr":200}`
	code, swSt := submitSweep(t, hs1, sweepBody)
	if code != http.StatusAccepted {
		t.Fatalf("sweep submit = %d", code)
	}
	wg.Wait()

	// Kill once a healthy slice of the work has settled but plenty is
	// still queued or running.
	deadline := time.Now().Add(30 * time.Second)
	for s1.m.completed.Load() < uint64(jobs/4) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d jobs settled before kill", s1.m.completed.Load())
		}
		time.Sleep(time.Millisecond)
	}
	kill9(s1, hs1)

	preDone := map[string]bool{}
	files, err := filepath.Glob(filepath.Join(dir, "results", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		name := strings.TrimSuffix(filepath.Base(f), ".json")
		if !strings.HasSuffix(name, ".trace") && name != swSt.ID {
			preDone[name] = true
		}
	}
	t.Logf("killed with %d/%d artifacts settled", len(preDone), jobs+20)

	// Life 2: instant sims, invocation ledger for the duplicate-work check.
	var imu sync.Mutex
	var invoked []sim.Config
	s2, err := New(Config{Dir: dir, Workers: 8,
		QueueCap: jobs + 64,
		RunSim: func(ctx context.Context, c sim.Config) (*sim.Result, error) {
			imu.Lock()
			invoked = append(invoked, c)
			imu.Unlock()
			return fakeResult(c), nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	hs2 := httptestServerNoCleanup(s2)
	defer kill9(s2, hs2)

	// Zero lost: every acknowledged job settles done (one list call per
	// poll, not 2000 status calls).
	deadline = time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(hs2.URL + "/jobs")
		if err != nil {
			t.Fatal(err)
		}
		var all []JobStatus
		json.NewDecoder(resp.Body).Decode(&all)
		resp.Body.Close()
		states := map[string]string{}
		for _, st := range all {
			states[st.ID] = st.State
		}
		pending := 0
		for id := range acked {
			switch states[id] {
			case StateDone:
			case StateFailed:
				t.Fatalf("job %s failed after restart", id)
			case "":
				t.Fatalf("acked job %s LOST across restart", id)
			default:
				pending++
			}
		}
		if pending == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d acked jobs still unsettled after restart", pending)
		}
		time.Sleep(10 * time.Millisecond)
	}
	waitSweep(t, hs2, swSt.ID)

	// Zero duplicate simulations: nothing with a pre-restart artifact ran
	// again.
	imu.Lock()
	for _, c := range invoked {
		key := (&JobSpec{
			Workload: c.Workload, Schemes: []string{c.Scheme},
			Cores: c.Cores, Warmup: c.WarmupInstr, Measure: c.MeasureInstr,
			Seed: c.Seed, Tenant: "default", Trace: c.Trace,
		}).Key()
		if preDone[key] {
			t.Errorf("point %s/%s/%d re-simulated despite a surviving artifact",
				c.Workload, c.Scheme, c.Seed)
		}
	}
	reran := len(invoked)
	imu.Unlock()
	if total := len(preDone) + reran; total < jobs {
		t.Errorf("life1 artifacts (%d) + life2 sims (%d) < %d jobs: something double-counted or lost", len(preDone), reran, jobs)
	}

	// Bounded memory: the whole campaign (two servers, ~2k jobs, 2k
	// artifacts) must not balloon the heap.
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(baseline.HeapAlloc); grew > 512<<20 {
		t.Fatalf("heap grew %d MiB across the load campaign", grew>>20)
	}
}

// httptestServerNoCleanup wraps a server whose shutdown the test drives
// explicitly (kill9) rather than via t.Cleanup.
func httptestServerNoCleanup(s *Server) *httptest.Server {
	return httptest.NewServer(s.Handler())
}
