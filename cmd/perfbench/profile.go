package main

// CPU-profile folding: the benchmark profiles its own process with
// runtime/pprof and attributes each sample's leaf function to the
// repository module that defines it, giving <module>.cpu_share. The
// profile.proto subset needed for that is decoded here, so the benchmark
// needs neither `go tool pprof` nor a protobuf library at run time.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// profileModules are the layers <module>.cpu_share is reported for;
// samples in any other package fold into "other".
var profileModules = []string{
	"workload", "sim", "cache", "bus", "cluster", "flatmap", "memsys",
	"core", "directory", "pagecache", "stats", "dsmnc", "runtime", "other",
}

// symbolPackage returns the import path of a profiled function name:
// "dsmnc/internal/cache.(*SetAssoc).Lookup" -> "dsmnc/internal/cache",
// "dsmnc/workload.FFT.func1" -> "dsmnc/workload", and for generics
// "dsmnc/internal/flatmap.(*Map[go.shape.uint64,...]).Get" ->
// "dsmnc/internal/flatmap" (type arguments may contain slashes and
// dots, so they are cut off first).
func symbolPackage(name string) string {
	prefix := name
	if i := strings.IndexByte(prefix, '['); i >= 0 {
		prefix = prefix[:i]
	}
	slash := strings.LastIndexByte(prefix, '/')
	dot := strings.IndexByte(prefix[slash+1:], '.')
	if dot < 0 {
		return prefix
	}
	return prefix[:slash+1+dot]
}

// moduleOf maps an import path to the layer name used in metric names.
func moduleOf(pkg string) string {
	switch {
	case pkg == "dsmnc":
		return "dsmnc"
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/"),
		strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	var rest string
	if r, ok := strings.CutPrefix(pkg, "dsmnc/internal/"); ok {
		rest = r
	} else if r, ok := strings.CutPrefix(pkg, "dsmnc/"); ok {
		rest = r
	} else {
		return "other"
	}
	first, _, _ := strings.Cut(rest, "/")
	for _, m := range profileModules {
		if m == first {
			return m
		}
	}
	return "other"
}

// foldProfile decodes a gzipped CPU profile and returns the flat
// sample count of each module (leaf functions only), and the total.
func foldProfile(data []byte) (map[string]int64, int64, error) {
	p, err := decodeProfile(data)
	if err != nil {
		return nil, 0, err
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		if len(s.locations) == 0 || len(s.values) == 0 {
			continue
		}
		name := p.leafFunction(s.locations[0])
		counts[moduleOf(symbolPackage(name))] += s.values[0]
		total += s.values[0]
	}
	return counts, total, nil
}

type profSample struct {
	locations []uint64
	values    []int64
}

type profile struct {
	samples   []profSample
	locations map[uint64][]uint64 // location id -> function ids, innermost first
	functions map[uint64]int64    // function id -> name string index
	strings   []string
}

// leafFunction names the innermost function of a location (the first
// line: later lines are the callers it was inlined into).
func (p *profile) leafFunction(loc uint64) string {
	fns := p.locations[loc]
	if len(fns) == 0 {
		return ""
	}
	idx := p.functions[fns[0]]
	if idx < 0 || idx >= int64(len(p.strings)) {
		return ""
	}
	return p.strings[idx]
}

var errProto = errors.New("malformed profile")

func decodeProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		raw, err := io.ReadAll(zr)
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		data = raw
	}
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := eachField(data, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s profSample
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					return appendVarints(&s.locations, w, v, b)
				case 2:
					var vs []uint64
					if err := appendVarints(&vs, w, v, b); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// appendVarints appends a repeated varint field given either unpacked
// (wire type 0) or packed (wire type 2).
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

// eachField walks the fields of one protobuf message. Varint fields
// arrive as v, length-delimited ones as b; fixed-width ones are skipped.
func eachField(data []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errProto
		}
		data = data[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errProto
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errProto
			}
			data = data[8:]
			continue
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errProto
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errProto
			}
			data = data[4:]
			continue
		default:
			return errProto
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}
