package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"

	"alpusim/internal/stats"
)

// A small reader for the gzipped profile.proto that runtime/pprof writes:
// just the fields a per-layer CPU split needs (sample types, samples,
// locations with their inlined lines, functions, the string table).

// profile is a decoded CPU profile.
type profile struct {
	sampleTypes []string // "type/unit" per sample value
	samples     []profSample
	// stacks maps a location id to its function names, innermost inlined
	// frame first.
	stacks map[uint64][]string
}

type profSample struct {
	locs   []uint64 // leaf first
	values []int64
	labels map[string]string
}

// Field numbers of the profile.proto messages read here.
const (
	fProfSampleType = 1
	fProfSample     = 2
	fProfLocation   = 4
	fProfFunction   = 5
	fProfStrings    = 6

	fValueType = 1
	fValueUnit = 2

	fSampleLoc   = 1
	fSampleValue = 2
	fSampleLabel = 3

	fLabelKey = 1
	fLabelStr = 2

	fLocID   = 1
	fLocLine = 4

	fLineFunc = 1

	fFuncID   = 1
	fFuncName = 2
)

// pbField is one decoded protobuf field: a varint, or the payload of a
// length-delimited field. Fixed-width fields are skipped.
type pbField struct {
	num  int
	wire int
	v    uint64
	b    []byte
}

var errTruncated = errors.New("truncated protobuf")

func readVarint(b []byte) (uint64, int, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1, nil
		}
	}
	return 0, 0, errTruncated
}

// fields decodes one message level.
func fields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n, err := readVarint(b)
		if err != nil {
			return nil, err
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			if f.v, n, err = readVarint(b); err != nil {
				return nil, err
			}
		case 1:
			n = 8
		case 2:
			l, m, err := readVarint(b)
			if err != nil || uint64(len(b)-m) < l {
				return nil, errTruncated
			}
			f.b = b[m : m+int(l)]
			n = m + int(l)
		case 5:
			n = 4
		default:
			return nil, fmt.Errorf("unsupported wire type %d", f.wire)
		}
		if n > len(b) {
			return nil, errTruncated
		}
		b = b[n:]
		out = append(out, f)
	}
	return out, nil
}

// uints appends a repeated integer field, packed or not.
func (f pbField) uints(dst []uint64) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.v), nil
	}
	for b := f.b; len(b) > 0; {
		v, n, err := readVarint(b)
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
		b = b[n:]
	}
	return dst, nil
}

// parseProfile decodes a gzipped pprof profile.
func parseProfile(raw []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	top, err := fields(body)
	if err != nil {
		return nil, err
	}
	var strs []string
	for _, f := range top {
		if f.num == fProfStrings && f.wire == 2 {
			strs = append(strs, string(f.b))
		}
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	p := &profile{stacks: make(map[uint64][]string)}
	funcs := make(map[uint64]string)
	type loc struct {
		id    uint64
		funcs []uint64
	}
	var locs []loc
	for _, f := range top {
		switch {
		case f.wire != 2:
			continue
		case f.num != fProfSampleType && f.num != fProfSample && f.num != fProfLocation && f.num != fProfFunction:
			continue // strings, mappings, comments
		}
		sub, err := fields(f.b)
		if err != nil {
			return nil, err
		}
		switch f.num {
		case fProfSampleType:
			var typ, unit string
			for _, g := range sub {
				switch g.num {
				case fValueType:
					typ = str(g.v)
				case fValueUnit:
					unit = str(g.v)
				}
			}
			p.sampleTypes = append(p.sampleTypes, typ+"/"+unit)
		case fProfSample:
			var s profSample
			var vals []uint64
			for _, g := range sub {
				switch g.num {
				case fSampleLoc:
					if s.locs, err = g.uints(s.locs); err != nil {
						return nil, err
					}
				case fSampleValue:
					if vals, err = g.uints(vals); err != nil {
						return nil, err
					}
				case fSampleLabel:
					label, err := fields(g.b)
					if err != nil {
						return nil, err
					}
					var key, val string
					for _, h := range label {
						switch h.num {
						case fLabelKey:
							key = str(h.v)
						case fLabelStr:
							val = str(h.v)
						}
					}
					if s.labels == nil {
						s.labels = make(map[string]string)
					}
					s.labels[key] = val
				}
			}
			for _, v := range vals {
				s.values = append(s.values, int64(v))
			}
			p.samples = append(p.samples, s)
		case fProfLocation:
			var l loc
			for _, g := range sub {
				switch {
				case g.num == fLocID && g.wire == 0:
					l.id = g.v
				case g.num == fLocLine && g.wire == 2:
					line, err := fields(g.b)
					if err != nil {
						return nil, err
					}
					for _, h := range line {
						if h.num == fLineFunc {
							l.funcs = append(l.funcs, h.v)
						}
					}
				}
			}
			locs = append(locs, l)
		case fProfFunction:
			var id, name uint64
			for _, g := range sub {
				switch g.num {
				case fFuncID:
					id = g.v
				case fFuncName:
					name = g.v
				}
			}
			funcs[id] = str(name)
		}
	}
	for _, l := range locs {
		names := make([]string, len(l.funcs))
		for i, fid := range l.funcs {
			names[i] = funcs[fid]
		}
		p.stacks[l.id] = names
	}
	return p, nil
}

// valueIndex returns the index of the sample value with the given
// "type/unit", or -1.
func (p *profile) valueIndex(typeUnit string) int {
	for i, t := range p.sampleTypes {
		if t == typeUnit {
			return i
		}
	}
	return -1
}

// cpuBuckets are the layers CPU time is split into, in report order.
var cpuBuckets = []string{"sim", "sched", "gc", "memsys", "nic", "alpu", "match", "network", "mpi", "telemetry", "other"}

// repoBuckets maps alpusim/internal packages to their layer bucket.
var repoBuckets = map[string]string{
	"sim": "sim", "memsys": "memsys", "cache": "memsys", "dram": "memsys",
	"nic": "nic", "dma": "nic", "alpu": "alpu", "match": "match",
	"network": "network", "mpi": "mpi", "host": "mpi", "proc": "mpi",
	"telemetry": "telemetry", "trace": "telemetry", "obs": "telemetry",
}

// Runtime function-name prefixes (after "runtime.") charged to the
// scheduler (channel handoff, park, schedule) and to the garbage
// collector and allocator.
var (
	schedPrefixes = []string{
		"chansend", "chanrecv", "send", "recv", "closechan", "selectgo",
		"gopark", "goready", "ready", "park_m", "schedule", "findRunnable",
		"execute", "gogo", "mcall", "runq", "stealWork", "wakep", "startm",
		"stopm", "mPark", "notesleep", "notewakeup", "futex", "semasleep",
		"semawakeup", "casgstatus", "gosched", "goexit", "newproc",
		"resetspinning", "checkTimers", "lock2", "unlock2", "procyield",
		"osyield", "usleep", "mstart",
	}
	gcPrefixes = []string{
		"gc", "_GC", "mallocgc", "newobject", "newarray", "makeslice",
		"growslice", "makemap", "(*mheap)", "(*mspan)", "(*mcache)",
		"(*mcentral)", "(*gcWork)", "(*gcControllerState)", "(*pageAlloc)",
		"(*sweepLocked)", "scanobject", "scanblock", "scanstack",
		"greyobject", "findObject", "markroot", "bgsweep", "bgscavenge",
		"sweepone", "wbBuf", "bulkBarrier", "heapBits", "typePointers",
		"nextFreeFast",
	}
)

// frameBucket classifies one function name. ok is false for frames that
// say nothing about the layer (standard library, unlisted runtime
// helpers), which the caller skips to reach the frame that called them.
func frameBucket(fn string) (bucket string, ok bool) {
	switch {
	case strings.HasPrefix(fn, "alpusim/internal/"):
		pkg := fn[len("alpusim/internal/"):]
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		if b, ok := repoBuckets[pkg]; ok {
			return b, true
		}
		return "other", true
	case strings.HasPrefix(fn, "main."):
		return "other", true // the benchmark's own code
	case strings.HasPrefix(fn, "runtime."):
		name := fn[len("runtime."):]
		for _, p := range gcPrefixes {
			if strings.HasPrefix(name, p) {
				return "gc", true
			}
		}
		for _, p := range schedPrefixes {
			if strings.HasPrefix(name, p) {
				return "sched", true
			}
		}
	}
	return "", false
}

// stackBucket charges a sample to the first classifiable frame from the
// leaf up: a memmove inside the NIC firmware is NIC time, a mallocgc
// called from anywhere is allocator time.
func (p *profile) stackBucket(s profSample) string {
	for _, id := range s.locs {
		for _, fn := range p.stacks[id] {
			if b, ok := frameBucket(fn); ok {
				return b
			}
		}
	}
	return "other"
}

// cpuShares accumulates CPU nanoseconds per layer bucket.
type cpuShares struct {
	ns    map[string]int64
	total int64
}

func (c *cpuShares) add(p *profile) {
	idx := p.valueIndex("cpu/nanoseconds")
	if idx < 0 {
		return
	}
	if c.ns == nil {
		c.ns = make(map[string]int64)
	}
	for _, s := range p.samples {
		if idx >= len(s.values) || s.labels["bench"] == "calibration" {
			continue
		}
		c.ns[p.stackBucket(s)] += s.values[idx]
		c.total += s.values[idx]
	}
}

// share is the bucket's fraction of all profiled CPU time.
func (c cpuShares) share(bucket string) float64 {
	if c.total == 0 {
		return 0
	}
	return float64(c.ns[bucket]) / float64(c.total)
}

func (c cpuShares) writeTable(w io.Writer) {
	tb := stats.NewTable("layer", "cpu s", "share")
	for _, b := range cpuBuckets {
		tb.AddRow(b, fmt.Sprintf("%.3f", float64(c.ns[b])/1e9), fmt.Sprintf("%.4f", c.share(b)))
	}
	tb.Render(w)
}
