package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"strings"
)

// Layer buckets that are not a servo/internal package.
const (
	layerRuntime = "runtime" // no servo frame on the stack: GC, scheduler, netpoll
	layerLoadgen = "loadgen" // the benchmark's own code
)

// servoPrefix starts the function name of every frame in the program
// under test.
const servoPrefix = "servo/internal/"

// stack is one profile sample: function names leaf first, and how much
// CPU time the sample stands for.
type stack struct {
	Frames []string
	Nanos  int64
}

// layerOf names the layer a frame belongs to: the last path element of
// its servo/internal package ("servo/internal/servo/rstore.(*Store).Load"
// → "rstore"), layerLoadgen for the benchmark's own package, "" for
// anything else (runtime, standard library, the root servo package).
func layerOf(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return layerLoadgen
	}
	rest, ok := strings.CutPrefix(fn, servoPrefix)
	if !ok {
		return ""
	}
	pkg, _, _ := strings.Cut(rest, ".")
	if i := strings.LastIndexByte(pkg, '/'); i >= 0 {
		pkg = pkg[i+1:]
	}
	return pkg
}

// probeFrame marks a goroutine of the rt-loopback load generator: netproto
// work below it is the client's, not the server's.
const probeFrame = "main.(*probe)."

// attribute charges each sample to the nearest servo/internal frame
// walking up from the leaf, so Go runtime work done on a layer's behalf
// (map hashing, memmove, malloc) lands on the layer that caused it.
// Samples whose nearest such frame is the benchmark's own, or that run on
// a probe goroutine, go to loadgen; samples with no servo frame at all go
// to runtime.
func attribute(stacks []stack) map[string]int64 {
	out := make(map[string]int64)
	for _, s := range stacks {
		layer := layerRuntime
		for _, fn := range s.Frames {
			if l := layerOf(fn); l != "" {
				layer = l
				break
			}
		}
		if layer != layerLoadgen {
			for _, fn := range s.Frames {
				if strings.HasPrefix(fn, probeFrame) {
					layer = layerLoadgen
					break
				}
			}
		}
		out[layer] += s.Nanos
	}
	return out
}

// profileHz is the sampling rate of a traced window. The default 100 Hz
// would give a one-second window on one core a hundred samples: too few to
// split over seventeen layers.
const profileHz = 1000

// startProfile starts a CPU profile of this process into w at profileHz.
// runtime/pprof always asks the runtime for 100 Hz, and the runtime keeps
// a rate that was set beforehand instead, noting on standard error that it
// "cannot set cpu profile rate until previous profile has finished"; the
// profile records the rate it really ran at, so sample weights stay right.
func startProfile(w io.Writer) error {
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(w); err != nil {
		runtime.SetCPUProfileRate(0)
		return fmt.Errorf("cpu profile: %w", err)
	}
	return nil
}

// parseProfile decodes a runtime/pprof CPU profile (gzipped
// perftools.profiles.Profile protobuf) into stacks. Only the fields the
// attribution needs are read; the standard library has no public decoder
// and the module takes no dependencies.
func parseProfile(data []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples   []sample
		locLines  = map[uint64][]uint64{} // location id → function ids, innermost first
		funcName  = map[uint64]uint64{}   // function id → string index
		strs      []string
		nTypes    int
		perSample int64 = 1 // period: what one count stands for
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			nTypes++
		case 2: // sample
			var s sample
			if err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					s.values = appendVarints(s.values, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			if err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locLines[id] = fns
		case 5: // function
			var id, name uint64
			if err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		case 12: // period
			perSample = int64(v)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		st := stack{}
		// Go CPU profiles carry (samples/count, cpu/nanoseconds); fall
		// back to count × period if only the count is present.
		if nTypes >= 2 && len(s.values) >= 2 {
			st.Nanos = int64(s.values[1])
		} else {
			st.Nanos = int64(s.values[0]) * perSample
		}
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				if idx := funcName[fn]; idx < uint64(len(strs)) {
					st.Frames = append(st.Frames, strs[idx])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks one protobuf message, calling fn with the field number
// and either its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(num int, v uint64, bytes []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n == 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0: // varint
			v, n := uvarint(b)
			if n == 0 {
				return errTruncated
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1: // fixed64
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2: // length-delimited
			l, n := uvarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			if err := fn(num, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5: // fixed32
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}

// appendVarints appends a repeated integer field's values: one value when
// the field arrived unpacked, every varint in packed when it arrived as
// bytes.
func appendVarints(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := uvarint(packed)
		if n == 0 {
			break
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}

// uvarint decodes a protobuf varint, returning the bytes consumed (0 on a
// truncated or overlong encoding).
func uvarint(b []byte) (uint64, int) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, 0
	}
	return v, n
}
