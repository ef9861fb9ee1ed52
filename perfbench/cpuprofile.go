package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The CPU profile is the gzipped profile.proto that runtime/pprof writes.
// Only the standard library is available, so this file decodes the few
// fields the package split needs: each sample's stack and CPU time, each
// location's innermost function, and each function's name.

// pkgBuckets are the packages CPU time is split over. A sample goes to
// the innermost frame on its stack that belongs to one of the repository's
// own packages (so map and allocation helpers count for their caller),
// to runtime_gc when the stack is garbage-collector work, to net_http
// when only the HTTP stack is on it, and otherwise to other.
var pkgBuckets = []string{
	"sim", "autograd", "core", "gpu", "pcie", "ssd", "gds", "tensor", "models",
	"trace", "exp", "serve", "lru", "fleet", "faults", "spans", "units",
	"perfbench", "net_http", "runtime_gc", "other",
}

// gcFrames mark a stack as collector work (background marking, assists,
// sweeping, scavenging).
var gcFrames = map[string]bool{
	"runtime.gcBgMarkWorker":    true,
	"runtime.gcAssistAlloc":     true,
	"runtime.gcDrain":           true,
	"runtime.gcDrainN":          true,
	"runtime.markroot":          true,
	"runtime.scanobject":        true,
	"runtime.bgsweep":           true,
	"runtime.sweepone":          true,
	"runtime.bgscavenge":        true,
	"runtime.gcStart":           true,
	"runtime.gcMarkDone":        true,
	"runtime.gcMarkTermination": true,
}

// pkgShares decodes a CPU profile and returns each bucket's share of the
// sampled CPU time, and the total CPU time sampled in seconds.
func pkgShares(profile []byte) (map[string]float64, float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, 0, err
	}
	byBucket := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		names := make([]string, 0, len(s.locs))
		for _, l := range s.locs {
			names = append(names, p.locFuncs[l]...)
		}
		byBucket[bucketOf(names)] += s.value
		total += s.value
	}
	out := make(map[string]float64, len(pkgBuckets))
	for _, b := range pkgBuckets {
		out[b] = ratio(float64(byBucket[b]), float64(total))
	}
	return out, float64(total) / 1e9, nil
}

// bucketOf assigns a stack, innermost frame first, to a package bucket.
func bucketOf(stack []string) string {
	for _, fn := range stack {
		if gcFrames[fn] {
			return "runtime_gc"
		}
	}
	for _, fn := range stack {
		pkg := funcPackage(fn)
		if leaf, ok := strings.CutPrefix(pkg, "ssdtrain/internal/"); ok {
			for _, b := range pkgBuckets {
				if b == leaf {
					return b
				}
			}
			return "other"
		}
		if pkg == "main" || strings.HasPrefix(pkg, "ssdtrain/perfbench") {
			return "perfbench"
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(funcPackage(fn), "net/http") {
			return "net_http"
		}
	}
	return "other"
}

// funcPackage returns the import path of a symbol name such as
// "ssdtrain/internal/lru.(*Cache[...]).Get".
func funcPackage(fn string) string {
	// Drop generic type arguments: they may hold dots and slashes.
	var b strings.Builder
	depth := 0
	for _, r := range fn {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	name := b.String()
	slash := strings.LastIndexByte(name, '/')
	if dot := strings.IndexByte(name[slash+1:], '.'); dot >= 0 {
		return name[:slash+1+dot]
	}
	return name
}

type profSample struct {
	locs  []uint64
	value int64 // CPU nanoseconds
}

type decodedProfile struct {
	samples  []profSample
	locFuncs map[uint64][]string // innermost function first
}

// decodeProfile reads the profile.proto fields the package split uses.
func decodeProfile(b []byte) (*decodedProfile, error) {
	var (
		samples  []profSample
		locLines = map[uint64][]uint64{}
		funcName = map[uint64]int64{}
		strs     []string
	)
	err := eachField(b, func(num int, wire int, v uint64, buf []byte) error {
		switch num {
		case 2: // Sample
			s, err := decodeSample(buf)
			if err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(buf, func(n, w int, v uint64, sub []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // Line
					return eachField(sub, func(n, w int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locLines[id] = fns
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(buf, func(n, w int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(buf))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p := &decodedProfile{samples: samples, locFuncs: map[uint64][]string{}}
	for id, fns := range locLines {
		names := make([]string, 0, len(fns))
		for _, f := range fns {
			if i := funcName[f]; i >= 0 && int(i) < len(strs) {
				names = append(names, strs[i])
			}
		}
		p.locFuncs[id] = names
	}
	return p, nil
}

func decodeSample(buf []byte) (profSample, error) {
	var s profSample
	var values []int64
	err := eachField(buf, func(n, w int, v uint64, sub []byte) error {
		switch {
		case n == 1 && w == 0:
			s.locs = append(s.locs, v)
		case n == 1 && w == 2:
			return eachVarint(sub, func(x uint64) { s.locs = append(s.locs, x) })
		case n == 2 && w == 0:
			values = append(values, int64(v))
		case n == 2 && w == 2:
			return eachVarint(sub, func(x uint64) { values = append(values, int64(x)) })
		}
		return nil
	})
	if len(values) > 0 {
		// A CPU profile's values are [sample count, CPU nanoseconds].
		s.value = values[len(values)-1]
	}
	return s, err
}

var errTruncated = errors.New("truncated protobuf")

func varint(b []byte) (uint64, int, error) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1, nil
		}
	}
	return 0, 0, errTruncated
}

func eachVarint(b []byte, f func(uint64)) error {
	for len(b) > 0 {
		v, n, err := varint(b)
		if err != nil {
			return err
		}
		f(v)
		b = b[n:]
	}
	return nil
}

// eachField walks one protobuf message, calling f with each field's
// number, wire type, and either its varint value or its bytes.
func eachField(b []byte, f func(num, wire int, v uint64, buf []byte) error) error {
	for len(b) > 0 {
		key, n, err := varint(b)
		if err != nil {
			return err
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var buf []byte
		switch wire {
		case 0:
			v, n, err = varint(b)
			if err != nil {
				return err
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n, err := varint(b)
			if err != nil {
				return err
			}
			b = b[n:]
			if uint64(len(b)) < l {
				return errTruncated
			}
			buf, b = b[:l], b[l:]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := f(num, wire, v, buf); err != nil {
			return err
		}
	}
	return nil
}
