package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// Layer attribution of a CPU profile. Each sample counts once, for the
// innermost frame on its stack that belongs to a layer. A layer is an
// internal package of the module; internal/fleet and internal/obs split
// further by source file. Library packages, the facade, the standard
// library and the benchmark itself are transparent: their frames count
// for the layer that called them.

const modulePrefix = "pasched/internal/"

// splitByFile marks a package whose layer depends on the source file.
const splitByFile = "by-file"

// packageLayers maps every internal package to its layer; "" marks a
// library whose frames are transparent.
var packageLayers = map[string]string{
	"autoscale":     "autoscale",
	"calib":         "calib",
	"consolidation": "consolidation",
	"core":          "core",
	"cpufreq":       "",
	"energy":        "energy",
	"engine":        "engine",
	"experiments":   "experiments",
	"fleet":         splitByFile,
	"governor":      "governor",
	"host":          "host",
	"metrics":       "",
	"multicore":     "multicore",
	"obs":           splitByFile,
	"platform":      "platform",
	"sched":         "sched",
	"serve":         "serve",
	"sim":           "",
	"vm":            "",
	"workload":      "workload",
}

// fileLayers splits the by-file packages.
var fileLayers = map[string]map[string]string{
	"fleet": {
		"placeindex.go": "fleet.place",
		"policy.go":     "fleet.place",
		"source.go":     "fleet.source",
		"generate.go":   "fleet.source",
		"trace.go":      "fleet.source",
		"report.go":     "fleet.sink",
		"shard.go":      "fleet.shard",
		"autoscale.go":  "autoscale",
		"fleet.go":      "fleet.coordinator",
	},
	"obs": {
		"perfetto.go": "obs.perfetto",
		"obs.go":      "obs",
		"ledger.go":   "obs",
	},
}

// layers lists every layer in report order, then the two catch-alls.
var layers = []string{
	"engine", "host", "sched", "core", "governor", "energy", "workload",
	"serve", "autoscale",
	"fleet.place", "fleet.source", "fleet.sink", "fleet.shard", "fleet.coordinator",
	"obs", "obs.perfetto",
	"consolidation", "experiments", "multicore", "platform", "calib",
	"runtime.gc", "other",
}

// frameLayer returns the layer of one frame, "" for a transparent frame.
func frameLayer(fn, file string) string {
	rest, ok := strings.CutPrefix(fn, modulePrefix)
	if !ok {
		return ""
	}
	pkg := rest
	if i := strings.IndexByte(rest, '.'); i >= 0 {
		pkg = rest[:i]
	}
	layer, ok := packageLayers[pkg]
	if !ok {
		return "other"
	}
	if layer == splitByFile {
		if layer, ok = fileLayers[pkg][path.Base(file)]; !ok {
			return "other"
		}
	}
	return layer
}

// isGC reports whether a frame belongs to the garbage collector's own
// goroutines; assists inside an allocating layer stay with that layer.
func isGC(fn string) bool {
	return strings.HasPrefix(fn, "runtime.gc") || fn == "runtime.bgsweep" || fn == "runtime.bgscavenge"
}

// layerSamples is a profile reduced to sample counts per layer.
type layerSamples struct {
	PeriodNs int64            `json:"period_ns"`
	Samples  map[string]int64 `json:"samples"`
	Total    int64            `json:"total"`
}

func (a *layerSamples) add(b *layerSamples) {
	if a.Samples == nil {
		a.Samples = map[string]int64{}
	}
	a.PeriodNs = b.PeriodNs
	a.Total += b.Total
	for k, v := range b.Samples {
		a.Samples[k] += v
	}
}

// attribute decodes a gzip'd pprof CPU profile and assigns its samples.
func attribute(gz []byte) (*layerSamples, error) {
	p, err := decodeProfile(gz)
	if err != nil {
		return nil, err
	}
	out := &layerSamples{PeriodNs: p.period, Samples: map[string]int64{}}
	for _, s := range p.samples {
		layer := ""
		gc := false
	stack:
		for _, loc := range s.locs {
			for _, fid := range p.locs[loc] {
				f := p.funcs[fid]
				fn, file := p.str(f.name), p.str(f.file)
				if l := frameLayer(fn, file); l != "" {
					layer = l
					break stack
				}
				gc = gc || isGC(fn)
			}
		}
		switch {
		case layer != "":
		case gc:
			layer = "runtime.gc"
		default:
			layer = "other"
		}
		out.Samples[layer] += s.count
		out.Total += s.count
	}
	return out, nil
}

// profile is the part of a pprof profile attribution needs.
type profile struct {
	period  int64
	samples []sample
	locs    map[uint64][]uint64 // location -> functions, innermost inlined first
	funcs   map[uint64]function
	strings []string
}

type sample struct {
	locs  []uint64 // leaf first
	count int64
}

type function struct{ name, file int64 }

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

var errTruncated = errors.New("profile: truncated protobuf")

// decodeProfile reads the profile.proto fields attribution uses; the
// message numbers are those of github.com/google/pprof/proto/profile.proto.
func decodeProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locs: map[uint64][]uint64{}, funcs: map[uint64]function{}}
	var sampleTypes [][]byte
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			sampleTypes = append(sampleTypes, b)
		case 2: // sample
			var s sample
			var values []uint64
			if err := eachField(b, func(num int, v uint64, b []byte) error {
				var err error
				switch num {
				case 1:
					s.locs, err = appendPacked(s.locs, v, b)
				case 2:
					values, err = appendPacked(values, v, b)
				}
				return err
			}); err != nil {
				return err
			}
			if len(values) == 0 {
				return errors.New("profile: sample without values")
			}
			s.count = int64(values[0])
			p.samples = append(p.samples, s)
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
			p.locs[id] = fns
		case 5: // function
			var id uint64
			var f function
			if err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					f.name = int64(v)
				case 4:
					f.file = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			p.funcs[id] = f
		case 6: // string_table
			p.strings = append(p.strings, string(b))
		case 12: // period
			p.period = int64(v)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Value 0 of a Go CPU profile is the sample count.
	if len(sampleTypes) == 0 {
		return nil, errors.New("profile: no sample types")
	}
	var typ int64
	if err := eachField(sampleTypes[0], func(num int, v uint64, _ []byte) error {
		if num == 1 {
			typ = int64(v)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if got := p.str(typ); got != "samples" {
		return nil, fmt.Errorf("profile: first sample type is %q, want samples", got)
	}
	return p, nil
}

// eachField walks one protobuf message, handing fn each field's number
// and either its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field given either unpacked
// (one value) or packed (length-delimited run); the Go runtime writes
// both forms.
func appendPacked(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, errTruncated
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst, nil
}
