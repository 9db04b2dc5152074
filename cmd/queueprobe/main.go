// Command queueprobe drives a standalone ALPU device model with the
// Table I/II command protocol, the role the paper's FPGA prototype played
// for exploring and refining the control interface (§I, §V-D).
//
// It reads a small command language from stdin (or runs a demo script
// with -demo):
//
//	start                         START INSERT
//	insert <ctx> <src|*> <tag|*> <alputag>
//	stop                          STOP INSERT
//	reset                         RESET
//	probe <ctx> <src|*> <tag|*>   push a header/receive probe
//	occupancy | tags | stats      inspect the device
//
// Responses are printed as they appear in the result FIFO, with
// simulated timestamps. A field out of its match-word width (context
// 11 bits, source 15, tag 16; §VI-A) or an alputag that is not an
// unsigned 32-bit value rejects the command instead of wrapping.
//
//	queueprobe [-cells 128] [-block 16] [-variant posted|unexpected] [-demo]
//	           [-trace FILE] [-metrics FILE]
//
// -trace FILE writes the session's device activity (insert/search spans
// on the simulated clock) as Chrome trace-event JSON; -metrics FILE
// writes the device counters as a metrics snapshot. "-" means stdout.
//
// -serve ADDR runs the shared observability HTTP server (/metrics,
// /healthz, /progress, /critpath, /report, /timeseries) for the session;
// queueprobe re-publishes the device counters to /metrics after every
// command. The run-report endpoints answer 503 here — single-device
// probing has no world to report on; they are alpusim's and
// queuestudy's. -trace, -metrics, -serve, -linger, -cpuprofile and
// -memprofile are the shared observability flags of internal/obs
// (obs.CLI). A -variant other than posted or unexpected exits 2.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"alpusim/internal/alpu"
	"alpusim/internal/match"
	"alpusim/internal/obs"
	"alpusim/internal/params"
	"alpusim/internal/sim"
	"alpusim/internal/telemetry"
)

var (
	cells   = flag.Int("cells", 128, "total cells")
	block   = flag.Int("block", 16, "cells per block (power of 2)")
	variant = flag.String("variant", "posted", "posted or unexpected")
	demo    = flag.Bool("demo", false, "run the built-in demo script")

	ob = obs.NewCLI("queueprobe", flag.CommandLine,
		obs.FlagTrace|obs.FlagMetrics|obs.FlagServe|obs.FlagProfile)
)

const demoScript = `start
insert 1 * 7 100
insert 1 3 7 200
insert 1 4 9 300
stop
occupancy
probe 1 3 7
probe 1 3 7
probe 1 9 1
tags
reset
occupancy
stats
`

// parseVariant maps -variant to the device variant it names.
func parseVariant(s string) (alpu.Variant, error) {
	switch s {
	case "posted":
		return alpu.PostedReceives, nil
	case "unexpected":
		return alpu.UnexpectedMessages, nil
	}
	return 0, fmt.Errorf("-variant %q: want posted or unexpected", s)
}

func main() {
	flag.Parse()
	v, err := parseVariant(*variant)
	ob.Check(err, 2)
	ob.Check(ob.Start(), 1)
	cfg := alpu.DefaultConfig(*cells)
	cfg.Geometry.BlockSize = *block
	env := alpu.Env{Variant: v}
	if ob.Want(obs.FlagTrace) {
		env.Tracer = telemetry.NewTracer()
		env.Tracer.NameProcess(0, "alpu")
	}
	eng := sim.NewEngine()
	dev, err := alpu.NewDevice(eng, "alpu", cfg, env)
	ob.Check(err, 1)
	fmt.Printf("ALPU %s: %d cells, block %d, %d-cycle pipeline at %.0f MHz\n",
		v, *cells, *block, cfg.MatchCycles, cfg.Clock.Freq())

	// The REPL is single-threaded, so the server never reads the device
	// directly: after each command settles, the counters are harvested
	// into a frozen snapshot the scrape handler serves from behind its
	// own lock.
	publish := func() {
		if ob.Server == nil {
			return
		}
		reg := telemetry.NewRegistry()
		dev.Publish(reg, "alpu")
		ob.Server.SetSnapshot(reg.Snapshot())
	}
	publish()

	var in *bufio.Scanner
	if *demo {
		in = bufio.NewScanner(strings.NewReader(demoScript))
	} else {
		in = bufio.NewScanner(os.Stdin)
	}
	for in.Scan() {
		line := strings.TrimSpace(in.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if *demo {
			fmt.Println("> " + line)
		}
		if err := exec(eng, dev, line); err != nil {
			fmt.Fprintln(os.Stderr, "queueprobe:", err)
		}
		// Let the hardware settle, then print any responses.
		eng.Run()
		for {
			r, ok := dev.Results.Pop()
			if !ok {
				break
			}
			switch r.Kind {
			case alpu.RespStartAck:
				fmt.Printf("[%9v] %v: %d free\n", eng.Now(), r.Kind, r.Free)
			case alpu.RespMatchSuccess:
				fmt.Printf("[%9v] %v: tag=%d\n", eng.Now(), r.Kind, r.Tag)
			default:
				fmt.Printf("[%9v] %v\n", eng.Now(), r.Kind)
			}
		}
		publish()
	}
	ob.Check(ob.Emit(obs.FlagTrace, env.Tracer.WriteJSON), 1)
	ob.Check(ob.Emit(obs.FlagMetrics, func(w io.Writer) error {
		reg := telemetry.NewRegistry()
		dev.Publish(reg, "alpu")
		return reg.Snapshot().WriteJSON(w)
	}), 1)
	ob.Close("session")
}

// field parses a decimal match field of the given bit width, or the
// wildcard "*".
func field(s string, bits int) (v int32, wild bool, err error) {
	if s == "*" {
		return 0, true, nil
	}
	u, err := strconv.ParseUint(s, 10, bits)
	if err != nil {
		return 0, false, fmt.Errorf("%q: want 0..%d or *", s, 1<<bits-1)
	}
	return int32(u), false, nil
}

func exec(eng *sim.Engine, dev *alpu.Device, line string) error {
	parts := strings.Fields(line)
	switch parts[0] {
	case "start":
		dev.PushCommand(alpu.Command{Op: alpu.OpStartInsert})
	case "stop":
		dev.PushCommand(alpu.Command{Op: alpu.OpStopInsert})
	case "reset":
		dev.PushCommand(alpu.Command{Op: alpu.OpReset})
	case "insert":
		if len(parts) != 5 {
			return fmt.Errorf("usage: insert <ctx> <src|*> <tag|*> <alputag>")
		}
		bits, mask, err := parseTriple(parts[1:4])
		if err != nil {
			return err
		}
		t, err := strconv.ParseUint(parts[4], 10, 32)
		if err != nil {
			return fmt.Errorf("alputag %q: want an unsigned 32-bit value", parts[4])
		}
		dev.PushCommand(alpu.Command{Op: alpu.OpInsert, Bits: bits, Mask: mask, Tag: uint32(t)})
	case "probe":
		if len(parts) != 4 {
			return fmt.Errorf("usage: probe <ctx> <src|*> <tag|*>")
		}
		bits, mask, err := parseTriple(parts[1:4])
		if err != nil {
			return err
		}
		dev.PushProbe(alpu.Probe{Bits: bits, Mask: mask})
	case "occupancy":
		fmt.Printf("[%9v] occupancy: %d of %d\n", eng.Now(), dev.Occupancy(), dev.Config().Geometry.Cells)
	case "tags":
		fmt.Printf("[%9v] tags (oldest first): %v\n", eng.Now(), dev.Tags())
	case "stats":
		fmt.Printf("[%9v] %+v\n", eng.Now(), dev.Stats())
	default:
		return fmt.Errorf("unknown command %q", parts[0])
	}
	return nil
}

func parseTriple(f []string) (match.Bits, match.Bits, error) {
	ctx, ctxWild, err := field(f[0], params.ContextBits)
	if err != nil {
		return 0, 0, fmt.Errorf("context %w", err)
	}
	if ctxWild {
		return 0, 0, fmt.Errorf("context must be explicit (§II): %q", f[0])
	}
	src, srcWild, err := field(f[1], params.SourceBits)
	if err != nil {
		return 0, 0, fmt.Errorf("source %w", err)
	}
	tag, tagWild, err := field(f[2], params.TagFieldBits)
	if err != nil {
		return 0, 0, fmt.Errorf("tag %w", err)
	}
	r := match.Recv{Context: uint16(ctx), Source: src, Tag: tag}
	if srcWild {
		r.Source = match.AnySource
	}
	if tagWild {
		r.Tag = match.AnyTag
	}
	b, m := match.PackRecv(r)
	return b, m, nil
}
