package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The traced run attributes host time to layers from a runtime/pprof CPU
// profile. The profile is a gzipped profile.proto message; the few fields
// read here are decoded by hand so the benchmark needs nothing beyond the
// standard library.

// reportedLayers are the modules whose CPU share the traced run reports as
// <layer>.share. Every other bucket is folded into other.share.
var reportedLayers = []string{
	"sim", "cpu", "cache", "vm", "mem", "workload", "memctrl", "core",
	"compress", "dram", "exec", "server",
	"runtime.map", "runtime.gc", "runtime.other", "bench",
}

// funcPackage returns the import path of a symbol name as the Go runtime
// prints it, e.g. "ptmc/internal/sim" for "ptmc/internal/sim.(*S).run".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

func isRuntimePackage(pkg string) bool {
	if strings.HasSuffix(pkg, "/syscall") {
		return false // a system call is work done for its caller
	}
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal/") ||
		strings.HasPrefix(pkg, "internal/runtime/")
}

// mapFuncs are runtime symbol prefixes that implement Go maps.
var mapFuncs = []string{
	"runtime.map", "runtime.evacuate", "runtime.growWork", "runtime.hashGrow",
	"runtime.memhash", "runtime.aeshash", "runtime.strhash",
	"runtime.nilinterhash", "runtime.interhash", "runtime.typehash",
}

// gcFuncs are runtime symbol prefixes of the garbage collector: a sample
// with any of them on its stack is collector work.
var gcFuncs = []string{
	"runtime._GC", "runtime.gc", "runtime.markroot", "runtime.scan",
	"runtime.greyobject", "runtime.findObject", "runtime.wbBuf",
	"runtime.bulkBarrier", "runtime.bgsweep", "runtime.sweepone",
	"runtime.(*sweepLocked).sweep", "runtime.bgscavenge",
	"runtime.(*gcWork)", "runtime.(*gcControllerState)",
}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// classify assigns one profile sample, given its stack leaf first, to a
// layer. A runtime leaf is map work, collector work or other runtime work,
// unless it is a clock read made through package time. Any other leaf
// belongs to the innermost frame of this module on its stack:
// ptmc/internal/<pkg> to layer <pkg>, the benchmark's own code to "bench".
// Standard-library code (math/rand, encoding/json, syscalls, clock reads)
// thereby counts for the layer that called it.
func classify(stack []string) string {
	if len(stack) == 0 {
		return "other"
	}
	if leaf := stack[0]; isRuntimePackage(funcPackage(leaf)) {
		if strings.HasPrefix(funcPackage(leaf), "internal/runtime/maps") ||
			hasAnyPrefix(leaf, mapFuncs) {
			return "runtime.map"
		}
		for _, fn := range stack {
			if hasAnyPrefix(fn, gcFuncs) {
				return "runtime.gc"
			}
		}
		if !calledThroughTime(stack) {
			return "runtime.other"
		}
	}
	for _, fn := range stack {
		pkg := funcPackage(fn)
		if l, ok := strings.CutPrefix(pkg, "ptmc/internal/"); ok {
			if i := strings.IndexByte(l, '/'); i >= 0 {
				l = l[:i]
			}
			return l
		}
		if pkg == "main" || strings.HasPrefix(pkg, "ptmc/perfbench") {
			return "bench"
		}
	}
	return "other"
}

// calledThroughTime reports whether the first non-runtime frame of a stack
// with a runtime leaf is in package time: a clock read, which counts for
// whoever read the clock.
func calledThroughTime(stack []string) bool {
	for _, fn := range stack {
		if pkg := funcPackage(fn); !isRuntimePackage(pkg) {
			return pkg == "time"
		}
	}
	return false
}

// layerWeights accumulates CPU time per layer over one or more profiles.
type layerWeights map[string]float64

// shares returns each reported layer's fraction of all samples, with
// every unreported bucket summed into "other". The values sum to 1 when
// any sample was recorded.
func (w layerWeights) shares() map[string]float64 {
	var total float64
	for _, v := range w {
		total += v
	}
	out := map[string]float64{"other": 0}
	for _, l := range reportedLayers {
		out[l] = 0
	}
	if total == 0 {
		return out
	}
	for l, v := range w {
		if _, ok := out[l]; ok {
			out[l] += v / total
		} else {
			out["other"] += v / total
		}
	}
	return out
}

// addProfile decodes a gzipped CPU profile and adds its samples' CPU time
// (the "cpu" sample value) to w.
func (w layerWeights) addProfile(gz []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return err
	}
	vi := len(p.sampleTypes) - 1
	for i, t := range p.sampleTypes {
		if t == "cpu" {
			vi = i
		}
	}
	for _, s := range p.samples {
		if vi < 0 || vi >= len(s.values) {
			return errors.New("profile: sample without a cpu value")
		}
		var stack []string
		for _, id := range s.locs {
			for _, fid := range p.locations[id] {
				stack = append(stack, p.functions[fid])
			}
		}
		w[classify(stack)] += float64(s.values[vi])
	}
	return nil
}

type pbSample struct {
	locs   []uint64
	values []int64
}

type pbProfile struct {
	sampleTypes []string
	samples     []pbSample
	locations   map[uint64][]uint64 // location id -> function ids, innermost first
	functions   map[uint64]string   // function id -> name
}

// decodeProfile reads the fields of profile.proto the layer attribution
// needs: sample types, samples, locations' line function ids and function
// names.
func decodeProfile(b []byte) (*pbProfile, error) {
	p := &pbProfile{locations: map[uint64][]uint64{}, functions: map[uint64]string{}}
	var strs []string
	var typeIdx []uint64
	funcName := map[uint64]uint64{}
	err := eachField(b, func(num int, v uint64, data []byte) error {
		switch num {
		case 1: // sample_type
			return eachField(data, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					typeIdx = append(typeIdx, v)
				}
				return nil
			})
		case 2: // sample
			var s pbSample
			err := eachField(data, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					return eachPacked(v, d, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return eachPacked(v, d, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(data, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(d, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := eachField(data, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) (string, error) {
		if i >= uint64(len(strs)) {
			return "", fmt.Errorf("profile: string index %d out of range", i)
		}
		return strs[i], nil
	}
	for _, i := range typeIdx {
		s, err := str(i)
		if err != nil {
			return nil, err
		}
		p.sampleTypes = append(p.sampleTypes, s)
	}
	for id, i := range funcName {
		s, err := str(i)
		if err != nil {
			return nil, err
		}
		p.functions[id] = s
	}
	return p, nil
}

// eachField walks one protobuf message, calling f with each field's
// number and its varint value (wire type 0) or payload (wire type 2).
// Fixed-width fields are skipped.
func eachField(b []byte, f func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: truncated fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: truncated field")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: truncated fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := f(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// eachPacked yields a repeated varint field that was encoded either as a
// single value (data == nil) or packed into data.
func eachPacked(v uint64, data []byte, f func(uint64)) error {
	if data == nil {
		f(v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		f(x)
		data = data[n:]
	}
	return nil
}
