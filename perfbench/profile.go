package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file attributes a CPU profile to the repository's modules
// without importing a profile library: it decodes just enough of the
// gzipped profile.proto that runtime/pprof writes (samples, locations,
// functions, the string table) and charges each sample to the innermost
// frame that belongs to the program. Runtime frames beneath it —
// memmove, memclr, channel park — therefore count for the module that
// called into the runtime, and a sample with no program frame at all
// (GC workers, the scheduler) counts as runtime.other.

const (
	modulePrefix = "provirt/internal/"
	benchPrefix  = "provirt/perfbench"
	otherModule  = "runtime.other"
	benchModule  = "bench"
)

// moduleOf maps a fully qualified function name to the module it is
// charged to: the package path below provirt/internal/ (so
// "harness/sweep" and "workloads/adcirc" stay distinct), "bench" for
// this benchmark's own code, or "" for a frame outside the program.
// The benchmark's frames are named main.X in its binary and
// provirt/perfbench.X in its test binary.
func moduleOf(fn string) string {
	pkg := fn
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		if j := strings.Index(pkg[i:], "."); j >= 0 {
			pkg = pkg[:i+j]
		}
	}
	switch {
	case strings.HasPrefix(pkg, modulePrefix):
		return pkg[len(modulePrefix):]
	case strings.HasPrefix(fn, "main."), pkg == benchPrefix || strings.HasPrefix(pkg, benchPrefix+"/"):
		return benchModule
	}
	return ""
}

// attribute charges one stack (innermost frame first) to a module.
func attribute(stack []string) string {
	for _, fn := range stack {
		if m := moduleOf(fn); m != "" {
			return m
		}
	}
	return otherModule
}

// moduleSeconds decodes a gzipped pprof CPU profile and returns CPU
// seconds per module.
func moduleSeconds(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	// CPU profiles carry [samples/count, cpu/nanoseconds]; take the
	// nanoseconds column.
	col := len(p.sampleTypes) - 1
	for i, t := range p.sampleTypes {
		if p.str(t) == "cpu" {
			col = i
		}
	}
	out := make(map[string]float64)
	for _, s := range p.samples {
		if col < 0 || col >= len(s.values) {
			continue
		}
		var stack []string
		for _, id := range s.locations {
			for _, fid := range p.locations[id] {
				stack = append(stack, p.str(p.functions[fid]))
			}
		}
		out[attribute(stack)] += float64(s.values[col]) / 1e9
	}
	return out, nil
}

type pbSample struct {
	locations []uint64
	values    []int64
}

type pbProfile struct {
	sampleTypes []int64 // string-table index of each value type
	samples     []pbSample
	locations   map[uint64][]uint64 // location id -> function ids, innermost first
	functions   map[uint64]int64    // function id -> name string index
	strings     []string
}

func (p *pbProfile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// pbField is one decoded protobuf field: its number and either a
// varint or a length-delimited payload.
type pbField struct {
	num    int
	varint uint64
	bytes  []byte
}

func pbFields(b []byte, f func(pbField) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		fld := pbField{num: int(key >> 3)}
		switch key & 7 {
		case 0:
			v, n := pbVarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			fld.varint, b = v, b[n:]
		case 2:
			l, n := pbVarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			fld.bytes, b = b[n:n+int(l)], b[n+int(l):]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		if err := f(fld); err != nil {
			return err
		}
	}
	return nil
}

func pbVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, -1
}

// pbUints appends a repeated uint64 field, packed or not.
func pbUints(dst []uint64, f pbField) ([]uint64, error) {
	if f.bytes == nil {
		return append(dst, f.varint), nil
	}
	b := f.bytes
	for len(b) > 0 {
		v, n := pbVarint(b)
		if n <= 0 {
			return nil, errors.New("bad packed varint")
		}
		dst, b = append(dst, v), b[n:]
	}
	return dst, nil
}

func decodeProfile(b []byte) (*pbProfile, error) {
	p := &pbProfile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := pbFields(b, func(f pbField) error {
		switch f.num {
		case 1: // sample_type
			return pbFields(f.bytes, func(g pbField) error {
				if g.num == 1 {
					p.sampleTypes = append(p.sampleTypes, int64(g.varint))
				}
				return nil
			})
		case 2: // sample
			var s pbSample
			err := pbFields(f.bytes, func(g pbField) error {
				var err error
				switch g.num {
				case 1:
					s.locations, err = pbUints(s.locations, g)
				case 2:
					var vs []uint64
					vs, err = pbUints(nil, g)
					for _, v := range vs {
						s.values = append(s.values, int64(v))
					}
				}
				return err
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbFields(f.bytes, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.varint
				case 4: // line: innermost inlined frame first
					return pbFields(g.bytes, func(h pbField) error {
						if h.num == 1 {
							fns = append(fns, h.varint)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := pbFields(f.bytes, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.varint
				case 2:
					name = int64(g.varint)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(f.bytes))
		}
		return nil
	})
	return p, err
}
