package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"sort"
	"strings"
)

// cpuCapture is one running CPU profile.
type cpuCapture struct{ buf bytes.Buffer }

// startCPU starts the process CPU profiler. Only one capture may run at
// a time.
func startCPU() (*cpuCapture, error) {
	c := &cpuCapture{}
	if err := pprof.StartCPUProfile(&c.buf); err != nil {
		return nil, fmt.Errorf("starting CPU profile: %w", err)
	}
	return c, nil
}

// stop ends the capture and attributes its samples to layers.
func (c *cpuCapture) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	samples, err := parseProfile(c.buf.Bytes())
	if err != nil {
		return nil, err
	}
	return attribute(samples), nil
}

// profSample is one CPU profile sample: its stack as function names,
// leaf first (inlined frames expanded), and the CPU time it stands for.
type profSample struct {
	stack []string
	cpuNs int64
}

// attribute sums CPU seconds by layer (see layerOf).
func attribute(samples []profSample) map[string]float64 {
	out := make(map[string]float64)
	for _, s := range samples {
		if len(s.stack) == 0 {
			continue
		}
		out[layerOf(s.stack)] += float64(s.cpuNs) / 1e9
	}
	return out
}

// gcRoots are runtime functions that only garbage collection work runs
// under: a sample with any of them on its stack is GC time, whatever its
// leaf.
var gcRoots = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.gcAssistAlloc":  true,
	"runtime.gcDrain":        true,
	"runtime.gcDrainN":       true,
	"runtime.markroot":       true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
	"runtime.sweepone":       true,
	"runtime.gcStart":        true,
}

// mapPrefixes name the runtime's hash-map and hashing functions.
var mapPrefixes = []string{
	"internal/runtime/maps.",
	"runtime.map",
	"runtime.memhash",
	"runtime.strhash",
	"runtime.aeshash",
	"runtime.interhash",
	"runtime.nilinterhash",
	"runtime.f64hash",
	"aeshashbody",
}

// layerOf names the layer a sample is charged to. GC work (any GC root
// on the stack) is "runtime.gc"; a hash-map leaf frame is
// "runtime.map"; otherwise the leaf frame's package: the short name of
// a repro/internal package ("hello", "netsim"), "imobif" for the
// module root, and the import path with "/" as "_" for anything else
// ("encoding_json", "net_http", "runtime").
func layerOf(stack []string) string {
	for _, fn := range stack {
		if gcRoots[fn] {
			return "runtime.gc"
		}
	}
	leaf := stack[0]
	for _, p := range mapPrefixes {
		if strings.HasPrefix(leaf, p) {
			return "runtime.map"
		}
	}
	pkg := pkgOf(leaf)
	switch {
	case pkg == "repro":
		return "imobif"
	case strings.HasPrefix(pkg, "repro/internal/"):
		return strings.TrimPrefix(pkg, "repro/internal/")
	case strings.HasPrefix(pkg, "repro/"):
		return strings.ReplaceAll(strings.TrimPrefix(pkg, "repro/"), "/", "_")
	}
	return strings.ReplaceAll(pkg, "/", "_")
}

// pkgOf returns the import path of a fully qualified function name such
// as "repro/internal/hello.(*Table).Update".
func pkgOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// topLayers renders the layers with the most CPU time.
func topLayers(layers map[string]float64, n int) string {
	type kv struct {
		k string
		v float64
	}
	var all []kv
	var total float64
	for k, v := range layers {
		all = append(all, kv{k, v})
		total += v
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].v != all[j].v {
			return all[i].v > all[j].v
		}
		return all[i].k < all[j].k
	})
	if len(all) > n {
		all = all[:n]
	}
	parts := make([]string, len(all))
	for i, e := range all {
		parts[i] = fmt.Sprintf("%s %.2fs (%.0f%%)", e.k, e.v, 100*e.v/total)
	}
	return strings.Join(parts, ", ")
}

// parseProfile decodes a gzipped pprof protobuf (profile.proto) far
// enough to attribute samples: string table, functions, locations with
// their inlined lines, and each sample's location list and CPU value.
func parseProfile(gz []byte) ([]profSample, error) {
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
		strs      []string
		types     []uint64 // sample type string indices
		samples   []rawSample
		funcNames = map[uint64]uint64{}   // function id → name string index
		locFuncs  = map[uint64][]uint64{} // location id → function ids, leaf first
	)
	err = walk(raw, func(f pbField) error {
		switch f.num {
		case 1: // sample_type
			return walk(f.data, func(f pbField) error {
				if f.num == 1 {
					types = append(types, f.v)
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := walk(f.data, func(f pbField) (err error) {
				switch f.num {
				case 1:
					s.locs, err = f.appendInts(s.locs)
				case 2:
					s.values, err = f.appendInts(s.values)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walk(f.data, func(f pbField) error {
				switch f.num {
				case 1:
					id = f.v
				case 4: // line
					return walk(f.data, func(f pbField) error {
						if f.num == 1 {
							fns = append(fns, f.v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := walk(f.data, func(f pbField) error {
				switch f.num {
				case 1:
					id = f.v
				case 2:
					name = f.v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(f.data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i uint64) string {
		if i >= uint64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	// The CPU value is the "cpu" sample type (nanoseconds); Go writes
	// [samples/count, cpu/nanoseconds].
	cpuIdx := -1
	for i, t := range types {
		if str(t) == "cpu" {
			cpuIdx = i
		}
	}
	if cpuIdx < 0 && len(samples) > 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if cpuIdx >= len(s.values) {
			continue
		}
		var stack []string
		for _, l := range s.locs {
			for _, fn := range locFuncs[l] {
				stack = append(stack, str(funcNames[fn]))
			}
		}
		out = append(out, profSample{stack: stack, cpuNs: int64(s.values[cpuIdx])})
	}
	return out, nil
}

// pbField is one decoded protobuf field: a varint value (wire type 0)
// or the bytes of a length-delimited field (wire type 2).
type pbField struct {
	num  int
	wire uint64
	v    uint64
	data []byte
}

// appendInts appends the field's integers to dst: one for a varint
// field, every element for a packed repeated field.
func (f pbField) appendInts(dst []uint64) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.v), nil
	}
	b := f.data
	for len(b) > 0 {
		v, n := uvarint(b)
		if n <= 0 {
			return dst, errors.New("bad packed varint")
		}
		dst = append(dst, v)
		b = b[n:]
	}
	return dst, nil
}

// walk calls fn for every field of one protobuf message, skipping
// fixed-width fields (the profile fields read here are never fixed).
func walk(b []byte, fn func(pbField) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: key & 7}
		switch f.wire {
		case 0:
			if f.v, n = uvarint(b); n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1, 5:
			w := 8
			if f.wire == 5 {
				w = 4
			}
			if len(b) < w {
				return errors.New("short fixed field")
			}
			b = b[w:]
			continue
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			f.data = b[n : n+int(l)]
			b = b[n+int(l):]
		default:
			return fmt.Errorf("unsupported wire type %d", f.wire)
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

// uvarint decodes a protobuf varint, returning the value and the bytes
// read (0 on malformed input).
func uvarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}
