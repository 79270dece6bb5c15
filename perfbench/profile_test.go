package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

func TestClassifyLayers(t *testing.T) {
	for _, layer := range []string{"sim", "cpu", "cache", "vm", "mem", "workload",
		"memctrl", "core", "compress", "dram", "exec", "server"} {
		stack := []string{"ptmc/internal/" + layer + ".(*T).Method.func1", "main.main"}
		if got := classify(stack); got != layer {
			t.Errorf("classify(%q) = %q, want %q", stack, got, layer)
		}
	}
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"math/rand.(*Rand).Float64", "ptmc/internal/workload.(*Stream).Next",
			"ptmc/internal/cpu.(*Core).Cycle"}, "workload"},
		{[]string{"runtime.mapaccess2_fast64", "ptmc/internal/mem.(*Store).pageFor"}, "runtime.map"},
		{[]string{"internal/runtime/maps.(*Map).getWithKeySmall", "runtime.mapaccess1",
			"ptmc/internal/vm.(*System).Translate"}, "runtime.map"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.gcAssistAlloc"}, "runtime.gc"},
		{[]string{"runtime.memmove", "ptmc/internal/mem.(*Store).Write"}, "runtime.other"},
		{[]string{"runtime._System"}, "runtime.other"},
		{[]string{"runtime.nanotime1", "time.Now", "main.(*timedSource).Next"}, "bench"},
		{[]string{"internal/runtime/syscall.Syscall6", "syscall.fsync", "os.(*File).Sync",
			"ptmc/internal/server.(*Store).append"}, "server"},
		{[]string{"ptmc/perfbench.spin"}, "bench"},
		{[]string{"net/http.(*conn).serve"}, "other"},
		{nil, "other"},
	} {
		if got := classify(c.stack); got != c.want {
			t.Errorf("classify(%q) = %q, want %q", c.stack, got, c.want)
		}
	}
}

func TestSharesSumToOne(t *testing.T) {
	w := layerWeights{"sim": 3, "runtime.map": 2, "obs": 1, "other": 1, "bench": 1}
	s := w.shares()
	var sum float64
	for _, v := range s {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %v", sum)
	}
	if s["other"] != 2.0/8 {
		t.Errorf("other = %v: unreported layers must fold into it", s["other"])
	}
	for _, l := range reportedLayers {
		if _, ok := s[l]; !ok {
			t.Errorf("share of %s missing", l)
		}
	}
}

// pbEncoder writes the profile.proto subset decodeProfile reads.
type pbEncoder struct{ b []byte }

func (e *pbEncoder) varint(num int, v uint64) {
	e.b = binary.AppendUvarint(e.b, uint64(num)<<3)
	e.b = binary.AppendUvarint(e.b, v)
}

func (e *pbEncoder) bytes(num int, data []byte) {
	e.b = binary.AppendUvarint(e.b, uint64(num)<<3|2)
	e.b = binary.AppendUvarint(e.b, uint64(len(data)))
	e.b = append(e.b, data...)
}

func (e *pbEncoder) msg(num int, f func(*pbEncoder)) {
	var m pbEncoder
	f(&m)
	e.bytes(num, m.b)
}

// TestDecodeProfile builds a two-sample profile by hand, with one location
// holding an inlined frame and both packed and unpacked repeated fields.
func TestDecodeProfile(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"ptmc/internal/dram.(*DRAM).Tick", "ptmc/internal/sim.(*Simulator).run",
		"runtime.mapaccess2_fast64"}
	var e pbEncoder
	e.msg(1, func(m *pbEncoder) { m.varint(1, 1); m.varint(2, 2) })
	e.msg(1, func(m *pbEncoder) { m.varint(1, 3); m.varint(2, 4) })
	// Sample 1: dram inlined into sim, 30 ns; packed fields.
	e.msg(2, func(m *pbEncoder) {
		m.bytes(1, binary.AppendUvarint(nil, 10))
		m.bytes(2, binary.AppendUvarint(binary.AppendUvarint(nil, 1), 30))
	})
	// Sample 2: a map lookup called from sim, 10 ns; unpacked fields.
	e.msg(2, func(m *pbEncoder) {
		m.varint(1, 11)
		m.varint(1, 10)
		m.varint(2, 1)
		m.varint(2, 10)
	})
	e.msg(4, func(m *pbEncoder) {
		m.varint(1, 10)
		m.msg(4, func(l *pbEncoder) { l.varint(1, 100) })
		m.msg(4, func(l *pbEncoder) { l.varint(1, 101) })
	})
	e.msg(4, func(m *pbEncoder) { m.varint(1, 11); m.msg(4, func(l *pbEncoder) { l.varint(1, 102) }) })
	e.msg(5, func(m *pbEncoder) { m.varint(1, 100); m.varint(2, 5) })
	e.msg(5, func(m *pbEncoder) { m.varint(1, 101); m.varint(2, 6) })
	e.msg(5, func(m *pbEncoder) { m.varint(1, 102); m.varint(2, 7) })
	for _, s := range strs {
		e.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(e.b)
	zw.Close()

	w := layerWeights{}
	if err := w.addProfile(gz.Bytes()); err != nil {
		t.Fatal(err)
	}
	if w["dram"] != 30 || w["runtime.map"] != 10 || len(w) != 2 {
		t.Errorf("weights = %v, want dram 30 and runtime.map 10", w)
	}
}

var spinSink uint64

func spin(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			spinSink = spinSink*6364136223846793005 + 1
		}
	}
}

// TestRealProfile decodes a profile the runtime wrote.
func TestRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	w := layerWeights{}
	if err := w.addProfile(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if len(w) == 0 {
		t.Skip("no samples recorded")
	}
	// Only presence is asserted: under -race the detector's own frames
	// take most samples.
	if w["bench"] == 0 {
		t.Errorf("no samples attributed to the spinning benchmark code: %v", w)
	}
}
