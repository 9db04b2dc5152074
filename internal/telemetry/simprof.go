package telemetry

import (
	"cmp"
	"compress/gzip"
	"io"
	"slices"
	"strconv"
	"strings"

	"alpusim/internal/sim"
)

// Sim-time profiling: the tracer's span stream refolded as a pprof
// profile weighted by simulated time, so the standard Go toolchain
// (`go tool pprof -top`, `-flamegraph`, `-web`) reads the simulation
// the way it reads a CPU profile — except the "CPU" is the modelled
// hardware and the seconds are simulated nanoseconds.
//
// Each 'X' span becomes a frame; nesting within a (pid, tid) track is
// recovered from timestamps (a span encloses the spans it contains),
// and every stack is weighted by its leaf's self time — the span's
// duration minus its children's. Stacks are rooted at the track's
// process and thread display names, so the flamegraph reads
// world -> nic -> firmware/alpu -> phase.
//
// The encoder writes the profile.proto wire format by hand (varint +
// length-delimited fields only), gzipped with a zeroed header, so the
// bytes are a pure function of the span stream: identical at any
// -par/-jobs, and diffable in CI.

// stackSample is one folded stack: frames root-first, weight in
// simulated picoseconds of self time.
type stackSample struct {
	frames []string
	ps     sim.Time
}

// stackNode is one node of the stack trie: a frame name under a parent
// node. A folded span adds its self time to its node, so the spans of a
// stack that recurs thousands of times cost a map lookup each and the
// stack's frames are built once.
type stackNode struct {
	parent int32 // -1 for a root frame
	depth  int32 // frames from the root, this one included
	name   string
	ps     sim.Time
}

// stackTrie interns stacks as (parent id, frame name) -> id nodes and
// records the nodes that received self time in order of first receipt.
type stackTrie struct {
	nodes   []stackNode
	ids     map[stackEdge]int32
	emitted []int32
	open    []openSpan // foldTrack's walk, reused across tracks
}

type stackEdge struct {
	parent int32
	name   string
}

// child returns the id of frame name under parent, adding the node on
// first sight.
func (st *stackTrie) child(parent int32, name string) int32 {
	if id, ok := st.ids[stackEdge{parent, name}]; ok {
		return id
	}
	depth := int32(1)
	if parent >= 0 {
		depth += st.nodes[parent].depth
	}
	id := int32(len(st.nodes))
	st.nodes = append(st.nodes, stackNode{parent: parent, depth: depth, name: name})
	st.ids[stackEdge{parent, name}] = id
	return id
}

// add credits self time to a node.
func (st *stackTrie) add(id int32, self sim.Time) {
	if self <= 0 {
		return
	}
	if st.nodes[id].ps == 0 {
		st.emitted = append(st.emitted, id)
	}
	st.nodes[id].ps += self
}

// openSpan is a stack entry during the per-track nesting walk.
type openSpan struct {
	end  sim.Time
	self sim.Time
	node int32
}

// simStacks folds every 'X' span of the tracers into self-time-weighted
// stacks, merged by identical frame chains joined with ";" and sorted
// by that joined string — the canonical order the encoder serialises.
// Chains that join to the same string (["a;b"] and ["a", "b"]) merge
// into one sample with the frames of the chain that was folded first.
// With several tracers each is rooted under a "world<idx>" frame
// (argument order, as in WriteTrace).
func simStacks(tracers ...*Tracer) []stackSample {
	st := stackTrie{ids: make(map[stackEdge]int32)}
	var spans []tevent
	var order []int32 // spans' indices in fold order
	for idx, t := range tracers {
		if t == nil {
			continue
		}
		type key struct{ pid, tid int }
		procs := make(map[int]string)
		threads := make(map[key]string)
		for _, n := range t.names {
			if n.process {
				procs[n.pid] = n.name
			} else {
				threads[key{n.pid, n.tid}] = n.name
			}
		}
		n := 0
		for i := range t.events {
			if t.events[i].ph == 'X' {
				n++
			}
		}
		spans, order = slices.Grow(spans[:0], n), slices.Grow(order[:0], n)
		for i := 0; i < len(t.events); i++ {
			if e := t.eventAt(i); e.ph == 'X' {
				order = append(order, int32(len(spans)))
				spans = append(spans, e)
			}
		}
		// Tracks in (pid, tid) order; within a track (start asc,
		// duration desc) puts each enclosing span before the spans it
		// contains, record order breaking ties. Sorting indices moves
		// no strings.
		slices.SortFunc(order, func(i, j int32) int {
			a, b := &spans[i], &spans[j]
			switch {
			case a.pid != b.pid:
				return cmp.Compare(a.pid, b.pid)
			case a.tid != b.tid:
				return cmp.Compare(a.tid, b.tid)
			case a.ts != b.ts:
				return cmp.Compare(a.ts, b.ts)
			case a.dur != b.dur:
				return cmp.Compare(b.dur, a.dur)
			}
			return cmp.Compare(i, j)
		})
		world := int32(-1)
		if len(tracers) > 1 {
			world = st.child(-1, "world"+strconv.Itoa(idx))
		}
		for lo := 0; lo < len(order); {
			k := key{spans[order[lo]].pid, spans[order[lo]].tid}
			hi := lo + 1
			for hi < len(order) && spans[order[hi]].pid == k.pid && spans[order[hi]].tid == k.tid {
				hi++
			}
			pname := procs[k.pid]
			if pname == "" {
				pname = "pid" + strconv.Itoa(k.pid)
			}
			tname := threads[k]
			if tname == "" {
				tname = "tid" + strconv.Itoa(k.tid)
			}
			root := st.child(st.child(world, pname), tname)
			st.foldTrack(spans, order[lo:hi], root)
			lo = hi
		}
	}

	// Build each distinct stack's frames and joined key once, then sort
	// by key (first fold breaking ties) and merge equal keys.
	type keyed struct {
		key string
		stackSample
	}
	depths := 0
	for _, id := range st.emitted {
		depths += int(st.nodes[id].depth)
	}
	backing := make([]string, depths)
	out := make([]keyed, len(st.emitted))
	for i, id := range st.emitted {
		n := &st.nodes[id]
		frames := backing[:n.depth:n.depth]
		backing = backing[n.depth:]
		for j := id; j >= 0; j = st.nodes[j].parent {
			frames[st.nodes[j].depth-1] = st.nodes[j].name
		}
		out[i] = keyed{strings.Join(frames, ";"), stackSample{frames, n.ps}}
	}
	slices.SortStableFunc(out, func(a, b keyed) int { return strings.Compare(a.key, b.key) })
	stacks := make([]stackSample, 0, len(out))
	for i, s := range out {
		if i > 0 && s.key == out[i-1].key {
			stacks[len(stacks)-1].ps += s.ps
			continue
		}
		stacks = append(stacks, s.stackSample)
	}
	return stacks
}

// foldTrack recovers span nesting on one (pid, tid) track, the spans
// at indices track, ordered so that each enclosing span precedes the
// spans it contains, and credits every span's self time to its stack
// under root.
func (st *stackTrie) foldTrack(spans []tevent, track []int32, root int32) {
	stack := st.open[:0]
	for _, i := range track {
		sp := &spans[i]
		for len(stack) > 0 && stack[len(stack)-1].end <= sp.ts {
			top := stack[len(stack)-1]
			st.add(top.node, top.self)
			stack = stack[:len(stack)-1]
		}
		parent := root
		if len(stack) > 0 {
			stack[len(stack)-1].self -= sp.dur
			parent = stack[len(stack)-1].node
		}
		stack = append(stack, openSpan{end: sp.ts + sp.dur, self: sp.dur, node: st.child(parent, sp.name)})
	}
	for len(stack) > 0 {
		top := stack[len(stack)-1]
		st.add(top.node, top.self)
		stack = stack[:len(stack)-1]
	}
	st.open = stack
}

// pbuf is a minimal protobuf wire-format writer: varints and
// length-delimited fields are all profile.proto needs.
type pbuf struct{ b []byte }

func (p *pbuf) varint(v uint64) {
	for v >= 0x80 {
		p.b = append(p.b, byte(v)|0x80)
		v >>= 7
	}
	p.b = append(p.b, byte(v))
}

func (p *pbuf) tag(field, wire int) { p.varint(uint64(field)<<3 | uint64(wire)) }

// field emits a varint-typed field, skipping proto3 zero defaults.
func (p *pbuf) field(f int, v uint64) {
	if v == 0 {
		return
	}
	p.tag(f, 0)
	p.varint(v)
}

// bytesField emits a length-delimited field (submessage or string).
func (p *pbuf) bytesField(f int, b []byte) {
	p.tag(f, 2)
	p.varint(uint64(len(b)))
	p.b = append(p.b, b...)
}

// packed emits a packed repeated varint field.
func (p *pbuf) packed(f int, vs ...uint64) {
	n := 0
	for _, v := range vs {
		n += varintLen(v)
	}
	p.tag(f, 2)
	p.varint(uint64(n))
	for _, v := range vs {
		p.varint(v)
	}
}

// varintLen is the encoded length of v in bytes.
func varintLen(v uint64) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}

// profile.proto field numbers (google.golang.org/protobuf definition of
// perftools.profiles.Profile and friends).
const (
	profSampleType    = 1
	profSample        = 2
	profMapping       = 3
	profLocation      = 4
	profFunction      = 5
	profStringTable   = 6
	profDurationNanos = 10
	profPeriodType    = 11
	profPeriod        = 12

	vtType = 1
	vtUnit = 2

	sampleLocationID = 1
	sampleValue      = 2

	mapID       = 1
	mapFilename = 5

	locID        = 1
	locMappingID = 2
	locLine      = 4

	lineFunctionID = 1

	funcID   = 1
	funcName = 2
)

// WriteSimProfile folds the tracers' spans into a gzipped
// pprof-compatible profile with one sample type, simtime/nanoseconds.
// The bytes are deterministic: same spans, same profile, at any
// parallelism. An empty span stream still yields a valid (empty)
// profile.
func WriteSimProfile(w io.Writer, tracers ...*Tracer) error {
	stacks := simStacks(tracers...)

	strtab := []string{""}
	strIdx := map[string]uint64{"": 0}
	intern := func(s string) uint64 {
		if i, ok := strIdx[s]; ok {
			return i
		}
		i := uint64(len(strtab))
		strtab = append(strtab, s)
		strIdx[s] = i
		return i
	}

	var prof pbuf

	// sample_type + period_type: simtime in nanoseconds.
	var vt pbuf
	vt.field(vtType, intern("simtime"))
	vt.field(vtUnit, intern("nanoseconds"))
	prof.bytesField(profSampleType, vt.b)

	// One synthetic function+location per distinct frame name, ids
	// assigned in order of first appearance over the sorted stacks.
	locIdx := map[string]uint64{}
	var locs []string
	locOf := func(frame string) uint64 {
		if id, ok := locIdx[frame]; ok {
			return id
		}
		id := uint64(len(locs) + 1)
		locIdx[frame] = id
		locs = append(locs, frame)
		return id
	}
	var sm pbuf
	var ids []uint64
	for _, s := range stacks {
		// pprof stacks are leaf-first; location ids go to frames in
		// root-first order of first appearance.
		ids = slices.Grow(ids[:0], len(s.frames))[:len(s.frames)]
		for i, f := range s.frames {
			ids[len(s.frames)-1-i] = locOf(f)
		}
		sm.b = sm.b[:0]
		sm.packed(sampleLocationID, ids...)
		sm.packed(sampleValue, uint64((s.ps+500)/1000))
		prof.bytesField(profSample, sm.b)
	}

	var mp pbuf
	mp.field(mapID, 1)
	mp.field(mapFilename, intern("[simulated]"))
	prof.bytesField(profMapping, mp.b)

	for i, frame := range locs {
		var fn pbuf
		fn.field(funcID, uint64(i+1))
		fn.field(funcName, intern(frame))
		prof.bytesField(profFunction, fn.b)

		var ln pbuf
		ln.field(lineFunctionID, uint64(i+1))
		var lo pbuf
		lo.field(locID, uint64(i+1))
		lo.field(locMappingID, 1)
		lo.bytesField(locLine, ln.b)
		prof.bytesField(profLocation, lo.b)
	}

	for _, s := range strtab {
		prof.bytesField(profStringTable, []byte(s))
	}

	var total sim.Time
	for _, s := range stacks {
		total += s.ps
	}
	prof.field(profDurationNanos, uint64((total+500)/1000))
	var pt pbuf
	pt.field(vtType, strIdx["simtime"])
	pt.field(vtUnit, strIdx["nanoseconds"])
	prof.bytesField(profPeriodType, pt.b)
	prof.field(profPeriod, 1)

	// Gzip with an all-zero header (no name, no mtime) so the output is
	// byte-stable.
	gz := gzip.NewWriter(w)
	if _, err := gz.Write(prof.b); err != nil {
		return err
	}
	return gz.Close()
}
