package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"ptmc/internal/sim"
)

// maxSweepPoints bounds a sweep's fan-out: a matrix wider than this is a
// client error, not a way to enqueue unbounded work under one request.
const maxSweepPoints = 400

// SweepSpec is the wire form of a parameter sweep: a workload × scheme ×
// seed matrix plus the shared knobs. The daemon fans it into one
// content-keyed child job per point (single-scheme, sweep-child priority)
// and aggregates the child artifacts into one sweep artifact. Children
// are derived deterministically from the normalized spec — they are never
// persisted with the sweep, so replay recomputes exactly the same
// fan-out, and points shared with earlier jobs or other sweeps dedupe on
// their keys.
type SweepSpec struct {
	Workloads []string `json:"workloads"`
	Schemes   []string `json:"schemes"`
	Seeds     []int64  `json:"seeds,omitempty"` // default: the paper seed
	Cores     int      `json:"cores,omitempty"`
	Warmup    int64    `json:"warmup_instr,omitempty"`
	Measure   int64    `json:"measure_instr,omitempty"`
	// TimeoutSec bounds each child point's simulation (0 = server default).
	TimeoutSec int `json:"timeout_sec,omitempty"`
	// Tenant attributes every child for quota accounting ("" = "default").
	Tenant string `json:"tenant,omitempty"`
}

// Normalize fills defaults and validates the matrix, including running
// every child spec through JobSpec.Normalize so a sweep is rejected at
// submit time for exactly the reasons any of its points would be.
func (s *SweepSpec) Normalize() error {
	if len(s.Workloads) == 0 {
		return badRequest("workloads is required")
	}
	if len(s.Schemes) == 0 {
		s.Schemes = []string{sim.SchemeDynamicPTMC}
	}
	if len(s.Seeds) == 0 {
		s.Seeds = []int64{sim.Default().Seed}
	}
	if w, dup := duplicate(s.Workloads); dup {
		return badRequest(fmt.Sprintf("duplicate workload %q", w))
	}
	if sc, dup := duplicate(s.Schemes); dup {
		return badRequest(fmt.Sprintf("duplicate scheme %q", sc))
	}
	if sd, dup := duplicate(s.Seeds); dup {
		return badRequest(fmt.Sprintf("duplicate seed %d", sd))
	}
	if s.Tenant == "" {
		s.Tenant = "default"
	}
	n := len(s.Workloads) * len(s.Schemes) * len(s.Seeds)
	if n > maxSweepPoints {
		return badRequest(fmt.Sprintf("sweep has %d points (max %d)", n, maxSweepPoints))
	}
	// Child validation covers scheme names, knob ranges, and workload
	// resolution; it also normalizes the shared knobs in place via the
	// first child (all children share them).
	_, specs := s.children()
	for i := range specs {
		if err := specs[i].Normalize(); err != nil {
			return err
		}
	}
	first := specs[0]
	s.Cores, s.Warmup, s.Measure = first.Cores, first.Warmup, first.Measure
	return nil
}

// children derives the deterministic fan-out: workloads outermost, then
// schemes, then seeds. Each point is a single-scheme job at sweep-child
// priority; its id is the ordinary content key, which is what makes
// resumed (or overlapping) sweeps dedupe for free.
func (s *SweepSpec) children() (ids []string, specs []JobSpec) {
	for _, w := range s.Workloads {
		for _, sc := range s.Schemes {
			for _, sd := range s.Seeds {
				spec := JobSpec{
					Workload:   w,
					Schemes:    []string{sc},
					Cores:      s.Cores,
					Warmup:     s.Warmup,
					Measure:    s.Measure,
					Seed:       sd,
					TimeoutSec: s.TimeoutSec,
					Tenant:     s.Tenant,
					Priority:   PrioritySweepChild,
				}
				ids = append(ids, spec.Key())
				specs = append(specs, spec)
			}
		}
	}
	return ids, specs
}

// Key is the sweep's content-derived identity (same idempotency contract
// as JobSpec.Key: identical sweeps share one record and one artifact).
func (s *SweepSpec) Key() string {
	h := sha256.Sum256(canonicalJSON(s))
	return "s" + hex.EncodeToString(h[:8])
}

// SweepPoint is one matrix point in the aggregate artifact: its identity,
// terminal state, and (when done) the child's full result artifact.
type SweepPoint struct {
	Workload string          `json:"workload"`
	Scheme   string          `json:"scheme"`
	Seed     int64           `json:"seed"`
	JobID    string          `json:"job_id"`
	State    string          `json:"state"`
	FailKind string          `json:"fail_kind,omitempty"`
	Error    string          `json:"error,omitempty"`
	Result   json.RawMessage `json:"result,omitempty"`
}

// SweepArtifact is the persisted (and served) aggregate: the normalized
// spec plus every point in deterministic matrix order. Built exclusively
// from on-disk child artifacts (canonicalJSON all the way down), so a
// resumed sweep's aggregate is byte-identical to an uninterrupted run's.
type SweepArtifact struct {
	ID     string       `json:"id"`
	Spec   SweepSpec    `json:"spec"`
	Points []SweepPoint `json:"points"`
}

// SweepStatus is the client-visible state of one sweep.
type SweepStatus struct {
	ID         string   `json:"id"`
	State      string   `json:"state"`
	Tenant     string   `json:"tenant,omitempty"`
	Workloads  []string `json:"workloads"`
	Schemes    []string `json:"schemes"`
	Points     int      `json:"points"`
	PointsDone int      `json:"points_done"` // terminal children (done or failed)
	FailKind   string   `json:"fail_kind,omitempty"`
	Error      string   `json:"error,omitempty"`
}

// sweep is the in-memory record the server tracks per sweep key. Child
// jobs are ordinary jobs on the server; the sweep holds their ids in
// matrix order. A sweep settles "done" even when points failed — per-point
// failures are recorded in the artifact (degrade gracefully, never
// silently) — and "failed" only when the aggregate itself cannot settle.
type sweep struct {
	entry
	spec     SweepSpec
	children []string
}

func newSweep(id string, spec SweepSpec, children []string) *sweep {
	return &sweep{entry: newEntry("sweep", id), spec: spec, children: children}
}
