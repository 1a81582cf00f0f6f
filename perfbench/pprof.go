package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// The CPU profile runtime/pprof writes is a gzipped profile.proto
// message. The benchmark needs only each sample's stack and CPU time,
// so this file decodes just those fields of the protobuf wire format
// rather than pulling in a profile library.

// profSample is one CPU-profile sample: its stack, leaf frame first,
// as function names (inlined frames expanded), and its CPU nanoseconds.
type profSample struct {
	stack []string
	nanos int64
}

// parseCPUProfile decodes a runtime/pprof CPU profile.
func parseCPUProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples  []rawSample
		locLines = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcName = map[uint64]uint64{}   // function id -> string index
		strs     []string
	)
	err = eachField(raw, func(num int, v uint64, data []byte) error {
		switch num {
		case 2: // sample
			var s rawSample
			err := eachField(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					s.locs = appendPacked(s.locs, v, data)
				case 2:
					s.values = appendPacked(s.values, v, data)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(data, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := eachField(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		ps := profSample{nanos: int64(s.values[len(s.values)-1])}
		for _, l := range s.locs {
			for _, f := range locLines[l] {
				if idx := funcName[f]; idx < uint64(len(strs)) {
					ps.stack = append(ps.stack, strs[idx])
				}
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("profile: bad field key")
		}
		b = b[n:]
		num, typ := int(key>>3), key&7
		var v uint64
		var data []byte
		switch typ {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("profile: short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("profile: bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("profile: short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", typ)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field that arrived either as
// one value or packed into a length-delimited run.
func appendPacked(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}

// gcRoots are the runtime functions whose presence anywhere on a stack
// makes the sample garbage-collector work: background marking, mark
// assists charged to allocating goroutines, and sweeping/scavenging.
var gcRoots = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain",
	"runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone",
	"runtime.markroot", "runtime.scanobject", "runtime.gcMarkTermination",
}

// modulePrefix is the import-path prefix of the repository's packages.
const modulePrefix = "repro/"

// chargeTo names the module a sample's self time is charged to: "gc"
// for collector work, otherwise the innermost frame's repo package
// (standard-library and runtime frames are charged to their nearest
// repo caller, the benchmark's own frames to "perfbench"), or "other"
// when no repo frame is on the stack.
func chargeTo(stack []string) string {
	for _, f := range stack {
		for _, g := range gcRoots {
			if strings.HasPrefix(f, g) {
				return "gc"
			}
		}
	}
	for _, f := range stack {
		if strings.HasPrefix(f, modulePrefix) {
			return packageOf(f)
		}
		if strings.HasPrefix(f, "main.") {
			return "perfbench" // this benchmark's own code
		}
	}
	return "other"
}

// packageOf returns the last element of a function's package path:
// "repro/internal/coord.(*RootKernel).Tick" -> "coord".
func packageOf(fn string) string {
	if i := strings.IndexAny(fn, "(["); i >= 0 {
		fn = fn[:i]
	}
	if i := strings.LastIndex(fn, "/"); i >= 0 {
		fn = fn[i+1:]
	}
	if i := strings.Index(fn, "."); i >= 0 {
		fn = fn[:i]
	}
	return fn
}

// cpuShares groups samples by chargeTo and returns each module's share
// of the profile's CPU time, plus the total sample count.
func cpuShares(samples []profSample) (map[string]float64, int) {
	byMod := map[string]int64{}
	var total int64
	for _, s := range samples {
		byMod[chargeTo(s.stack)] += s.nanos
		total += s.nanos
	}
	out := make(map[string]float64, len(byMod))
	for m, n := range byMod {
		if total > 0 {
			out[m] = float64(n) / float64(total)
		}
	}
	return out, len(samples)
}
