package telemetry

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"alpusim/internal/sim"
)

// The reference exporters: the fmt and encoding/json encoders that
// WriteTrace, WriteSimProfile and Sampler.WriteJSON replaced, kept
// verbatim as the oracle the append encoders must match byte for byte.

func refWriteTrace(w io.Writer, tracers ...*Tracer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("[")
	first := true
	emit := func(s string) {
		if !first {
			bw.WriteString(",\n")
		} else {
			bw.WriteString("\n")
			first = false
		}
		bw.WriteString(s)
	}
	for idx, t := range tracers {
		if t == nil {
			continue
		}
		off := idx << 16
		for _, n := range t.names {
			kind := "thread_name"
			tidField := fmt.Sprintf(`,"tid":%d`, n.tid)
			if n.process {
				kind = "process_name"
				tidField = ""
			}
			emit(fmt.Sprintf(`{"name":%q,"ph":"M","pid":%d%s,"args":{"name":%s}}`,
				kind, n.pid+off, tidField, strconv.Quote(n.name)))
		}
		for i := 0; i < len(t.events); i++ {
			e := t.eventAt(i)
			switch e.ph {
			case 'X':
				emit(fmt.Sprintf(`{"name":%s,"cat":%q,"ph":"X","ts":%s,"dur":%s,"pid":%d,"tid":%d}`,
					strconv.Quote(e.name), e.cat, refUsec(e.ts), refUsec(e.dur), e.pid+off, e.tid))
			case 'i':
				emit(fmt.Sprintf(`{"name":%s,"cat":%q,"ph":"i","s":"t","ts":%s,"pid":%d,"tid":%d}`,
					strconv.Quote(e.name), e.cat, refUsec(e.ts), e.pid+off, e.tid))
			case 'C':
				emit(fmt.Sprintf(`{"name":%s,"ph":"C","ts":%s,"pid":%d,"tid":%d,"args":{"v":%d}}`,
					strconv.Quote(e.name), refUsec(e.ts), e.pid+off, e.tid, e.val))
			case 's':
				emit(fmt.Sprintf(`{"name":%s,"cat":%q,"ph":"s","id":%d,"ts":%s,"pid":%d,"tid":%d}`,
					strconv.Quote(e.name), e.cat, e.id, refUsec(e.ts), e.pid+off, e.tid))
			case 'f':
				emit(fmt.Sprintf(`{"name":%s,"cat":%q,"ph":"f","bp":"e","id":%d,"ts":%s,"pid":%d,"tid":%d}`,
					strconv.Quote(e.name), e.cat, e.id, refUsec(e.ts), e.pid+off, e.tid))
			}
		}
	}
	bw.WriteString("\n]\n")
	return bw.Flush()
}

func refUsec(t sim.Time) string {
	if t < 0 {
		t = 0
	}
	return fmt.Sprintf("%d.%06d", t/sim.Microsecond, t%sim.Microsecond)
}

type refOpenSpan struct {
	end    sim.Time
	self   sim.Time
	frames []string
}

func refSimStacks(tracers ...*Tracer) []stackSample {
	type key struct{ pid, tid int }
	agg := make(map[string]*stackSample)
	for idx, t := range tracers {
		if t == nil {
			continue
		}
		procs := make(map[int]string)
		threads := make(map[key]string)
		for _, n := range t.names {
			if n.process {
				procs[n.pid] = n.name
			} else {
				threads[key{n.pid, n.tid}] = n.name
			}
		}
		tracks := make(map[key][]tevent)
		for i := 0; i < len(t.events); i++ {
			e := t.eventAt(i)
			if e.ph == 'X' {
				k := key{e.pid, e.tid}
				tracks[k] = append(tracks[k], e)
			}
		}
		var keys []key
		for k := range tracks {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].pid != keys[j].pid {
				return keys[i].pid < keys[j].pid
			}
			return keys[i].tid < keys[j].tid
		})
		for _, k := range keys {
			var root []string
			if len(tracers) > 1 {
				root = append(root, fmt.Sprintf("world%d", idx))
			}
			pname := procs[k.pid]
			if pname == "" {
				pname = fmt.Sprintf("pid%d", k.pid)
			}
			tname := threads[k]
			if tname == "" {
				tname = fmt.Sprintf("tid%d", k.tid)
			}
			root = append(root, pname, tname)
			refFoldTrack(tracks[k], root, agg)
		}
	}
	out := make([]stackSample, 0, len(agg))
	for _, s := range agg {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool {
		return strings.Join(out[i].frames, ";") < strings.Join(out[j].frames, ";")
	})
	return out
}

func refFoldTrack(spans []tevent, root []string, agg map[string]*stackSample) {
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].ts != spans[j].ts {
			return spans[i].ts < spans[j].ts
		}
		return spans[i].dur > spans[j].dur
	})
	var stack []refOpenSpan
	emit := func(o refOpenSpan) {
		if o.self <= 0 {
			return
		}
		k := strings.Join(o.frames, ";")
		if s, ok := agg[k]; ok {
			s.ps += o.self
		} else {
			agg[k] = &stackSample{frames: o.frames, ps: o.self}
		}
	}
	for _, sp := range spans {
		for len(stack) > 0 && stack[len(stack)-1].end <= sp.ts {
			emit(stack[len(stack)-1])
			stack = stack[:len(stack)-1]
		}
		parent := root
		if len(stack) > 0 {
			stack[len(stack)-1].self -= sp.dur
			parent = stack[len(stack)-1].frames
		}
		frames := make([]string, len(parent)+1)
		copy(frames, parent)
		frames[len(parent)] = sp.name
		stack = append(stack, refOpenSpan{end: sp.ts + sp.dur, self: sp.dur, frames: frames})
	}
	for len(stack) > 0 {
		emit(stack[len(stack)-1])
		stack = stack[:len(stack)-1]
	}
}

func refPacked(p *pbuf, f int, vs []uint64) {
	var inner pbuf
	for _, v := range vs {
		inner.varint(v)
	}
	p.bytesField(f, inner.b)
}

func refWriteSimProfile(w io.Writer, tracers ...*Tracer) error {
	stacks := refSimStacks(tracers...)

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
	var vt pbuf
	vt.field(vtType, intern("simtime"))
	vt.field(vtUnit, intern("nanoseconds"))
	prof.bytesField(profSampleType, vt.b)

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
	for _, s := range stacks {
		var sm pbuf
		ids := make([]uint64, len(s.frames))
		for i, f := range s.frames {
			ids[len(s.frames)-1-i] = locOf(f)
		}
		refPacked(&sm, sampleLocationID, ids)
		refPacked(&sm, sampleValue, []uint64{uint64((s.ps + 500) / 1000)})
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

	gz := gzip.NewWriter(w)
	if _, err := gz.Write(prof.b); err != nil {
		return err
	}
	return gz.Close()
}

type refSeriesJSON struct {
	Name    string  `json:"name"`
	Every   uint64  `json:"every"`
	Pushes  uint64  `json:"pushes"`
	Samples []int64 `json:"samples"`
}

type refTimeseriesJSON struct {
	IntervalPs sim.Time        `json:"interval_ps"`
	Series     []refSeriesJSON `json:"series"`
}

func refSamplerWriteJSON(sa *Sampler, w io.Writer) error {
	doc := refTimeseriesJSON{Series: []refSeriesJSON{}}
	if sa != nil {
		doc.IntervalPs = sa.dt
		for _, s := range sa.All() {
			samples := s.vals
			if samples == nil {
				samples = []int64{}
			}
			doc.Series = append(doc.Series, refSeriesJSON{
				Name: s.name, Every: s.every, Pushes: s.n, Samples: samples,
			})
		}
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}
