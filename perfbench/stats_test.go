package main

import (
	"math"
	"testing"
)

func TestMedianAndPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median odd = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if xs[0] != 5 {
		t.Error("median reordered its input")
	}
	var hundred []float64
	for i := 100; i >= 1; i-- {
		hundred = append(hundred, float64(i))
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0, 1}} {
		if got := percentile(hundred, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if median(nil) != 0 || percentile(nil, 90) != 0 {
		t.Error("no samples must read 0")
	}
}

// TestTailPercentile pins the reporting rule: the highest percentile with
// at least ten samples beyond it.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{19, 0, false}, // p50 is sample 10 of 19: nine beyond it
		{20, 50, true},
		{99, 50, true}, // p90 is sample 90 of 99: nine beyond it
		{100, 90, true},
		{999, 90, true},
		{1000, 99, true},
		{10000, 99.9, true},
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestNetWall(t *testing.T) {
	for _, c := range []struct{ wall, cpu, steal, want float64 }{
		{10, 10, 0, 10},             // no steal
		{16, 12, 4, 12},             // one busy thread: all steal was on its CPU
		{10, 20, 4, 10 - 4*10.0/24}, // two busy CPUs: the critical path took its share
		{10, 1, 2, 8},               // mostly waiting: still runnable throughout wall
	} {
		if got := netWall(c.wall, c.cpu, c.steal); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("netWall(%v, %v, %v) = %v, want %v", c.wall, c.cpu, c.steal, got, c.want)
		}
	}
}
