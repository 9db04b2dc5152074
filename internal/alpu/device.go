package alpu

import (
	"fmt"
	"math/bits"

	"alpusim/internal/match"
	"alpusim/internal/params"
	"alpusim/internal/sim"
	"alpusim/internal/telemetry"
	"alpusim/internal/trace"
)

// Config describes a Device build point and its timing: the choices that
// are the same for every unit built from it. What differs per unit comes
// through Env.
type Config struct {
	Geometry Geometry
	Clock    sim.Clock

	// MatchCycles is the pipeline occupancy of one match; 0 selects the
	// geometry rule (§V-D). The paper's simulations assume 7.
	MatchCycles int
	// InsertCycles is the spacing between inserts; 0 selects the
	// prototype's 2 (§V-D).
	InsertCycles int

	HeaderFIFODepth  int
	CommandFIFODepth int
	ResultFIFODepth  int

	// CompactAnyBlock widens the "space available" definition from
	// "higher cell in this block or the lowest cell of the next block" to
	// "any empty cell anywhere above" (§III-B discusses this as a timing
	// trade-off). That is the block rule with one block spanning the whole
	// array, so it runs the compaction kernel's word-spanning case. Used by
	// the abl-compaction ablation.
	CompactAnyBlock bool

	// PerCycle forces the reference stepping model: one engine event per
	// device clock edge. The default batches cycles whose intermediate
	// states are unobservable (see DESIGN.md "model performance"); the two
	// modes are bit-identical in observable behaviour, enforced by the
	// equivalence oracle in internal/bench.
	PerCycle bool
}

// Env is one unit's place in the system that builds it: the queue it
// serves, its trace track and its fault stream. A NIC builds its two units
// (or its fabric shards) from one Config, each with its own Env.
type Env struct {
	Variant Variant

	// Tracer, when set, records search/insert spans and delete instants
	// on the (PID, TID) track.
	Tracer *telemetry.Tracer
	// PID and TID name the unit: its trace track, and the identity its
	// fault stream is derived from, so every unit of a world faults
	// independently. A standalone device leaves both 0.
	PID, TID int

	// Faults, when Active, enables seeded device-level fault injection
	// (see FaultModel). Fault injection forces PerCycle: stuck cycles
	// perturb the per-cycle stepping schedule, which the cycle-batching
	// equivalence lemmas assume is fault-free.
	Faults *FaultModel
}

// DefaultConfig returns the simulated configuration used by the paper's
// Fig. 5/6 runs: the ASIC-speed unit at 500 MHz with a 7-cycle pipeline.
func DefaultConfig(cells int) Config {
	return Config{
		Geometry:         Geometry{Cells: cells, BlockSize: params.ALPUDefaultBlockSize},
		Clock:            sim.MHz(params.ALPUClockMHz),
		MatchCycles:      params.ALPUMatchCycles,
		InsertCycles:     params.ALPUInsertCycles,
		HeaderFIFODepth:  params.ALPUHeaderFIFODepth,
		CommandFIFODepth: params.ALPUCommandFIFODepth,
		ResultFIFODepth:  params.ALPUResultFIFODepth,
	}
}

// cell is one cell's payload. Whether it holds data is recorded only in
// Device.valid; the payload of an empty cell is meaningless.
type cell struct {
	bits match.Bits
	mask match.Bits
	tag  uint32
	// par is the parity bit stamped over (bits, mask, tag) at insert time.
	// A transient bit-flip leaves it stale, which is how the scrubber
	// detects corruption. Living inside the cell, it rides every
	// compaction move and delete shift for free.
	par bool
}

// cellParity computes the stored parity bit for a cell's payload.
func cellParity(b, m match.Bits, tag uint32) bool {
	return bits.OnesCount64(uint64(b)^uint64(m)^uint64(tag))&1 == 1
}

// Stats counts Device activity for the benchmark reports.
type Stats struct {
	Matches      uint64 // probes processed to completion
	Hits         uint64 // MATCH SUCCESS responses
	Failures     uint64 // MATCH FAILURE responses
	HeldRetries  uint64 // failed matches held during insert mode
	Inserts      uint64 // entries written
	LostInserts  uint64 // inserts arriving with no free cell (protocol violation)
	Resets       uint64
	Invalidates  uint64 // INVALIDATE commands that found and cleared a cell
	Discarded    uint64 // commands discarded in the wrong state (§III-C)
	StartInserts uint64
	MaxOccupancy int
	ShiftCycles  uint64 // cycles in which compaction moved data
	ResultStalls uint64 // cycles stalled on a full result FIFO

	// Fault-injection activity (zero unless Env.Faults is Active).
	BitFlips       uint64 // transient cell corruptions injected
	ParityFaults   uint64 // corrupted cells the scrubber quarantined
	DroppedResults uint64 // result-FIFO entries silently lost
	StuckCycles    uint64 // dead compaction cycles from stuck steps
	DeadDiscards   uint64 // FIFO entries swallowed after device death

	// SearchCycles distributes per-probe search service time in device
	// clock cycles (pipeline occupancy plus any stuck-step stall), the
	// device-side complement of the firmware's match-depth histograms.
	SearchCycles trace.Histogram
}

// Device is the cycle-level ALPU model. Its control unit is a state
// machine (Fig. 3: read a command, insert, match, push a result), and the
// NIC interacts with it only through the three FIFOs, exactly as in
// Fig. 1. Two things step the machine: a function waiter on its kick
// signal (or on the result FIFO's not-full edge while a push stalls), and
// its own step events at the clock edges where a cycle burst ends (see
// sleep). Each state is a method that runs at one instant and names the
// next state in next, or arranges a wake and leaves next nil. A sequence
// entered from several states (tick, pushResult, idle, doMatch, doInsert,
// faultHook) is called with the state to continue at when it is done.
type Device struct {
	cfg  Config
	env  Env
	eng  *sim.Engine
	name string

	// Headers receives probe copies (incoming headers for the
	// posted-receive unit, new receives for the unexpected unit).
	Headers *sim.FIFO[Probe]
	// Commands receives Table I commands from the processor.
	Commands *sim.FIFO[Command]
	// Results delivers Table II responses to the processor.
	Results *sim.FIFO[Response]

	kick  *sim.Signal
	cells []cell
	held  *Probe // failed match held for retry during insert mode (§III-C)

	// valid is the only record of which cells hold data: bit i%64 of
	// word i/64 is cell i's valid bit. Every reader tests it and every
	// writer sets or clears it; a compaction step is a few shift/mask ops
	// per 64 cells (bitStep), and only actual data moves touch the cells.
	valid    []uint64
	moveBuf  []uint64 // per-word move masks of the step in progress
	lookBuf  []uint64 // bitmap copy stepped by the insert-wait lookahead
	lastMask uint64   // bits of the top word that name real cells

	// Compaction geometry, fixed at construction. blockWords > 0 selects
	// the word-spanning kernel: each block is that many whole words (a
	// block wider than 64 cells, or the one array-wide block of
	// CompactAnyBlock). Otherwise every block lies inside one word at a
	// fixed offset pattern and the masks below describe it.
	blockWords int
	lowMask    uint64   // the lowest bit of every block
	topMask    uint64   // the top bit of every block
	bcastMul   uint64   // spreads a block-low bit across its whole block
	sufShift   []uint   // doubling shifts for the in-block suffix OR
	sufMask    []uint64 // matching masks keeping each shift inside its block

	// Idle-drain state (see idleStep): a drain is the compaction the
	// device runs while it waits for work, advanced by chunked timers
	// instead of per-cycle steps.
	drainStart  sim.Time
	drainSteps  int // compaction cycles materialised since drainStart
	drainDone   bool
	drainTimer  sim.EventID
	drainCycles int // cycles the pending drain timer covers

	insertMode bool
	stats      Stats

	// frng is the device's private fault stream; nil when fault injection
	// is off (env.Faults is nil then too), which keeps every fault check a
	// single nil test.
	frng *sim.Rand

	// The control machine. next is the state to run now (nil once the
	// machine waits); resume is where a wake continues it; waitOn and
	// waitCond are the signal wait in progress.
	next, resume step
	waitOn       *sim.Signal
	waitCond     func() bool

	// Callbacks bound once at construction, so that no event or wait
	// allocates: the step event, the signal waiter, the drain timer and
	// the wait conditions.
	stepFn, signalFn, drainFn          func()
	hasWorkFn, hasInsertWorkFn, roomFn func() bool

	// Where each helper continues when it is done. Each helper is active
	// at most once at a time (the deepest chain is insert mode → match →
	// fault hook → push result → tick), so one field per helper is its
	// whole return stack.
	idleRet, tickRet, pushRet, scrubRet, matchRet, insertRet step

	// State that lives across a wait: the helpers' locals.
	idleReady   func() bool // idle: the work the device waits for
	cmd         Command     // the command the Read Command cycle or doInsert serves
	insertStart sim.Time    // doInsert: when the insert began
	tickLeft    int         // per-cycle tick: cycles still to step
	stuckLeft   int         // per-cycle tick: dead cycles still to wait
	resp        Response    // pushResult: the response to push
	stallStart  sim.Time    // pushResult: when the current stall began
	scrubAt     int         // scrub: the cell just quarantined
	probe       Probe       // doMatch: the probe in the pipeline
	holdMiss    bool        // doMatch: hold a failure for retry (insert mode)
	searchStart sim.Time    // doMatch: when the probe entered the pipeline
	hitTag      uint32      // doMatch: the matched cell's tag
	hit         bool        // doMatch: whether a cell matched
}

// step is one state of the device's control machine.
type step func(d *Device)

// NewDevice creates a Device with build point cfg in the role env gives
// it on eng, and schedules its start, as its own step event at the
// current instant.
func NewDevice(eng *sim.Engine, name string, cfg Config, env Env) (*Device, error) {
	if err := cfg.Geometry.Validate(); err != nil {
		return nil, err
	}
	if cfg.Clock.Period == 0 {
		cfg.Clock = sim.MHz(params.ALPUClockMHz)
	}
	if cfg.MatchCycles == 0 {
		cfg.MatchCycles = cfg.Geometry.PipelineCycles()
	}
	if cfg.InsertCycles == 0 {
		cfg.InsertCycles = params.ALPUInsertCycles
	}
	var frng *sim.Rand
	if f := env.Faults; f.Active() {
		// Stuck cycles perturb the stepping schedule the cycle-batching
		// equivalence lemmas assume, so fault injection runs the per-cycle
		// reference model.
		cfg.PerCycle = true
		// The unit's own stream: Seed offset by its (PID, TID) identity,
		// then mixed with stream index 1.
		seed := f.Seed + uint64(env.PID)*0x9E3779B9 + uint64(env.TID)*0x85EBCA6B
		frng = sim.NewRand(seed*0x9e3779b97f4a7c15 + 0xbf58476d1ce4e5b9 + 0x94d049bb133111eb)
	} else {
		env.Faults = nil
	}
	d := &Device{
		cfg:      cfg,
		env:      env,
		eng:      eng,
		name:     name,
		Headers:  sim.NewFIFO[Probe](eng, name+".hdr", cfg.HeaderFIFODepth),
		Commands: sim.NewFIFO[Command](eng, name+".cmd", cfg.CommandFIFODepth),
		Results:  sim.NewFIFO[Response](eng, name+".res", cfg.ResultFIFODepth),
		kick:     sim.NewSignal(eng),
		cells:    make([]cell, cfg.Geometry.Cells),
		frng:     frng,
	}
	d.initBits()
	d.stepFn, d.signalFn, d.drainFn = d.wake, d.signalled, d.drainTick
	d.hasWorkFn, d.hasInsertWorkFn, d.roomFn = d.hasWork, d.hasInsertWork, d.resultRoom
	d.resume = (*Device).loop
	eng.Schedule(0, d.stepFn)
	return d, nil
}

// initBits sets up the valid bitmap and the compaction geometry. Block
// size is a validated power of two dividing the cell count, so a block
// either lies within one 64-bit word at a fixed offset pattern (bs ≤ 64:
// the per-block scans become constant masks shared by all words) or is a
// run of whole words (bs ≥ 128, and then the cell count is a multiple of
// 64 too).
func (d *Device) initBits() {
	bs := d.cfg.Geometry.BlockSize
	n := d.cfg.Geometry.Cells
	words := (n + 63) / 64
	d.valid = make([]uint64, words)
	d.moveBuf = make([]uint64, words)
	d.lookBuf = make([]uint64, words)
	d.lastMask = ^uint64(0)
	if r := n % 64; r != 0 {
		d.lastMask = 1<<uint(r) - 1
	}
	switch {
	case d.cfg.CompactAnyBlock:
		d.blockWords = words
		return
	case bs > 64:
		d.blockWords = bs / 64
		return
	}
	for p := 0; p < 64; p += bs {
		d.lowMask |= 1 << uint(p)
	}
	d.topMask = d.lowMask << uint(bs-1)
	d.bcastMul = ^uint64(0)
	if bs < 64 {
		d.bcastMul = 1<<uint(bs) - 1
	}
	for k := 1; k < bs; k <<= 1 {
		pat := uint64(1)<<uint(bs-k) - 1
		var mask uint64
		for p := 0; p < 64; p += bs {
			mask |= pat << uint(p)
		}
		d.sufShift = append(d.sufShift, uint(k))
		d.sufMask = append(d.sufMask, mask)
	}
}

// isValid reports whether cell i holds data.
func (d *Device) isValid(i int) bool { return d.valid[i/64]>>uint(i%64)&1 != 0 }

// nextValid returns the lowest valid cell at or above i, or the cell count
// when there is none.
func (d *Device) nextValid(i int) int {
	n := len(d.cells)
	for i < n {
		if v := d.valid[i/64] >> uint(i%64); v != 0 {
			return i + bits.TrailingZeros64(v)
		}
		i = (i/64 + 1) * 64
	}
	return n
}

// MustDevice is NewDevice for known-good configurations.
func MustDevice(eng *sim.Engine, name string, cfg Config, env Env) *Device {
	d, err := NewDevice(eng, name, cfg, env)
	if err != nil {
		panic(err)
	}
	return d
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// Stats returns a snapshot of the activity counters.
func (d *Device) Stats() Stats { return d.stats }

// InsertMode reports whether the device is between START and STOP INSERT.
func (d *Device) InsertMode() bool { return d.insertMode }

// Publish harvests the device's activity counters into a telemetry
// registry under prefix (e.g. "nic0/alpu/posted"). Idempotent: values
// are Set, so repeated harvests never double-count.
func (d *Device) Publish(reg *telemetry.Registry, prefix string) {
	if reg == nil {
		return
	}
	s := d.stats
	reg.Counter(prefix + "/matches").Set(s.Matches)
	reg.Counter(prefix + "/hits").Set(s.Hits)
	reg.Counter(prefix + "/failures").Set(s.Failures)
	reg.Counter(prefix + "/held_retries").Set(s.HeldRetries)
	reg.Counter(prefix + "/inserts").Set(s.Inserts)
	reg.Counter(prefix + "/lost_inserts").Set(s.LostInserts)
	reg.Counter(prefix + "/resets").Set(s.Resets)
	reg.Counter(prefix + "/invalidates").Set(s.Invalidates)
	reg.Counter(prefix + "/discarded").Set(s.Discarded)
	reg.Counter(prefix + "/start_inserts").Set(s.StartInserts)
	reg.Counter(prefix + "/shift_cycles").Set(s.ShiftCycles)
	reg.Counter(prefix + "/result_stalls").Set(s.ResultStalls)
	reg.Gauge(prefix + "/max_occupancy").SetMax(int64(s.MaxOccupancy))
	reg.Gauge(prefix + "/occupancy").Set(int64(d.Occupancy()))
	reg.Histogram(prefix + "/search_cycles").Set(s.SearchCycles)
	if d.env.Faults != nil {
		reg.Counter(prefix + "/faults/bit_flips").Set(s.BitFlips)
		reg.Counter(prefix + "/faults/parity_quarantines").Set(s.ParityFaults)
		reg.Counter(prefix + "/faults/dropped_results").Set(s.DroppedResults)
		reg.Counter(prefix + "/faults/stuck_cycles").Set(s.StuckCycles)
		reg.Counter(prefix + "/faults/dead_discards").Set(s.DeadDiscards)
		dead := int64(0)
		if d.Dead() {
			dead = 1
		}
		reg.Gauge(prefix + "/faults/dead").Set(dead)
	}
}

// Dead reports whether the device has passed its configured death instant
// and gone dark on the bus. Exposed for tests and telemetry; the firmware
// never peeks — it detects death through response timeouts, as a real host
// would.
func (d *Device) Dead() bool {
	f := d.env.Faults
	return f != nil && f.DeathAt > 0 && d.eng.Now() >= f.DeathAt
}

// PushProbe delivers a header/receive copy into the header FIFO (the
// hardware path of Fig. 1; no processor involvement). It reports false if
// the FIFO was full and the probe was dropped.
func (d *Device) PushProbe(p Probe) bool {
	ok := d.Headers.Push(p)
	d.kick.Raise()
	return ok
}

// PushCommand delivers a command into the command FIFO. The *processor
// side* cost (bus transaction) is charged by the caller.
func (d *Device) PushCommand(c Command) bool {
	ok := d.Commands.Push(c)
	d.kick.Raise()
	return ok
}

// Occupancy returns the number of valid cells.
func (d *Device) Occupancy() int {
	n := 0
	for _, v := range d.valid {
		n += bits.OnesCount64(v)
	}
	return n
}

// free returns the number of invalid cells.
func (d *Device) free() int { return d.cfg.Geometry.Cells - d.Occupancy() }

// Tags returns the stored tags from oldest (highest priority) to newest,
// for tests.
func (d *Device) Tags() []uint32 {
	var out []uint32
	for i := len(d.cells) - 1; i >= 0; i-- {
		if d.isValid(i) {
			out = append(out, d.cells[i].tag)
		}
	}
	return out
}

// run steps the machine from next until a state waits.
func (d *Device) run() {
	for d.next != nil {
		s := d.next
		d.next = nil
		s(d)
	}
}

// wake is the device's step event: it continues the machine where a
// sleep left it.
func (d *Device) wake() {
	d.next = d.resume
	d.run()
}

// signalled is the device's signal waiter. Like a process in WaitCond, it
// re-tests the wait's condition and waits again while it is false.
func (d *Device) signalled() {
	if !d.waitCond() {
		d.waitOn.Notify(d.signalFn)
		return
	}
	d.next = d.resume
	d.run()
}

// sleep continues at then after t: inline, when the step event would be
// the next one the engine pops (sim.Engine.Advance), or else from that
// event. Either way the step counts as one event, at the place in the
// schedule that Schedule(t) gives it here.
func (d *Device) sleep(t sim.Time, then step) {
	if d.eng.Advance(t, d.stepFn) {
		d.next = then
		return
	}
	d.resume = then
}

// wait continues at then once cond holds, re-tested each time s is
// raised; a cond that already holds continues at once.
func (d *Device) wait(s *sim.Signal, cond func() bool, then step) {
	if cond() {
		d.next = then
		return
	}
	d.waitOn, d.waitCond, d.resume = s, cond, then
	s.Notify(d.signalFn)
}

// hasWork reports a command or a probe waiting.
func (d *Device) hasWork() bool { return d.Commands.Len() > 0 || d.Headers.Len() > 0 }

// hasInsertWork reports the work insert mode takes: a command, or a probe
// while no failed match is held.
func (d *Device) hasInsertWork() bool {
	return d.Commands.Len() > 0 || (d.held == nil && d.Headers.Len() > 0)
}

// resultRoom reports room in the result FIFO.
func (d *Device) resultRoom() bool { return !d.Results.Full() }

// loop is the top of the controlling state machine (Fig. 3), the Match
// state: the device idles until a command or a probe waits.
func (d *Device) loop() { d.idle(d.hasWorkFn, (*Device).serve) }

// serve takes the work idle found. A dead unit plays dead; otherwise the
// fault hook runs first.
func (d *Device) serve() {
	if d.Dead() {
		d.next = (*Device).playDead
		return
	}
	d.faultHook((*Device).dispatch)
}

// dispatch enters the Read Command state for a waiting command, which
// costs one cycle, or else matches a waiting probe.
func (d *Device) dispatch() {
	if c, ok := d.Commands.Pop(); ok {
		d.cmd = c
		d.tick(1, (*Device).readCommand)
		return
	}
	if probe, ok := d.Headers.Pop(); ok {
		d.doMatch(probe, false, (*Device).loop)
		return
	}
	d.next = (*Device).loop
}

// readCommand is the Read Command state: only RESET and START INSERT are
// valid here; everything else is discarded (§III-C footnote 3).
func (d *Device) readCommand() {
	switch d.cmd.Op {
	case OpReset:
		d.reset()
	case OpStartInsert:
		d.startInsert()
		return
	case OpInvalidate:
		d.invalidate(d.cmd.Tag)
	default:
		d.stats.Discarded++
	}
	d.next = (*Device).loop
}

// playDead never leaves: a hard-failed unit stops responding on the bus.
// Anything already queued — and anything pushed later — is swallowed so the
// producer-side FIFOs keep draining (a wedged command FIFO would park the
// firmware's pushCommand forever); no response is ever emitted again. The
// machine waits on its kick between pushes, so a dead device never keeps
// the engine alive and the world still drains to quiescence.
func (d *Device) playDead() {
	for {
		if _, ok := d.Commands.Pop(); !ok {
			break
		}
		d.stats.DeadDiscards++
	}
	for {
		if _, ok := d.Headers.Pop(); !ok {
			break
		}
		d.stats.DeadDiscards++
	}
	d.wait(d.kick, d.hasWorkFn, (*Device).playDead)
}

// faultHook is the per-opportunity fault point: possibly corrupt one cell,
// then scrub, then continue at then. Scrubbing immediately after injection
// models parity checking on the match/readout path — a corrupted cell is
// quarantined before any probe can (mis)match against it, which is what
// lets the firmware repair from its shadow copy with zero wrong matches.
func (d *Device) faultHook(then step) {
	if d.frng == nil {
		d.next = then
		return
	}
	d.maybeFlip()
	d.scrubRet = then
	d.scrub(d.nextValid(0))
}

// maybeFlip draws the bit-flip chance and, on a hit, flips one random bit
// of one random valid cell's match bits, leaving its parity bit stale.
func (d *Device) maybeFlip() {
	if !d.frng.Chance(d.env.Faults.BitFlipProb) {
		return
	}
	occ := d.Occupancy()
	if occ == 0 {
		return
	}
	i := d.nextValid(0)
	for k := d.frng.Intn(occ); k > 0; k-- {
		i = d.nextValid(i + 1)
	}
	d.cells[i].bits ^= 1 << uint(d.frng.Intn(64))
	d.stats.BitFlips++
}

// scrub scans the valid cells from i up for parity-bad ones and
// quarantines each: the cell is invalidated (leaving a hole for
// compaction) and a FAULT response carrying the lost entry's tag tells the
// firmware which entry to repair from its host-side shadow copy.
//
// The scan re-reads the bitmap at every step: a full result FIFO stalls
// pushResult on compaction cycles, which can move cells mid-scan.
func (d *Device) scrub(i int) {
	for ; i < len(d.cells); i = d.nextValid(i + 1) {
		c := &d.cells[i]
		if cellParity(c.bits, c.mask, c.tag) == c.par {
			continue
		}
		d.valid[i/64] &^= 1 << uint(i%64)
		d.stats.ParityFaults++
		d.scrubAt = i
		d.pushResult(Response{Kind: RespFault, Tag: c.tag}, (*Device).scrubNext)
		return
	}
	d.next = d.scrubRet
}

// scrubNext resumes the scan above the cell just quarantined.
func (d *Device) scrubNext() { d.scrub(d.nextValid(d.scrubAt + 1)) }

// drainChunk is the number of idle cycles one drain timer covers. Bigger
// chunks mean fewer engine events on a long drain; the chunk length never
// overshoots quiescence (armDrainChunk lands the final timer exactly on
// the quiescent edge), so the value only trades event count against the
// cost of the capped lookahead in the drain tail.
const drainChunk = 64

// idle runs the device's compaction-while-waiting behaviour until ready
// reports work to do, then continues at then: each idle cycle performs
// one compaction step, and once the array is quiescent the device waits
// on its kick signal.
func (d *Device) idle(ready func() bool, then step) {
	d.idleReady, d.idleRet = ready, then
	d.next = (*Device).idleStep
}

// idleStep is one pass of idle's loop. The per-cycle model ticks one
// cycle at a time. The fast path waits at once and advances the drain
// with chunked timers (armDrainChunk) instead of one engine event per
// cycle, paying simulated-cycle cost only per state change. If work
// arrives mid-drain, drainCut cancels the pending timer and materialises
// exactly the cycles the per-cycle model would have stepped by the next
// clock edge, re-aligning to that edge. Intermediate layouts are
// unobservable from outside the device (the FIFOs are the only interface
// and compaction never reorders valid cells), so the two paths are
// bit-identical in observable behaviour; see DESIGN.md "model
// performance" for the argument and the producer-granularity assumption.
func (d *Device) idleStep() {
	if d.idleReady() {
		d.next = d.idleRet
		return
	}
	if !d.needsCompaction() {
		d.wait(d.kick, d.idleReady, (*Device).idleStep)
		return
	}
	if d.cfg.PerCycle {
		d.tick(1, (*Device).idleStep)
		return
	}
	d.drainStart = d.eng.Now()
	d.drainSteps = 0
	d.drainDone = false
	d.armDrainChunk()
	d.wait(d.kick, d.idleReady, (*Device).drainCut)
}

// drainCut runs when work ends an idle wait that armed a drain.
func (d *Device) drainCut() {
	if d.drainDone {
		d.next = (*Device).idleStep // quiesced before the kick; the device was just waiting
		return
	}
	d.eng.Cancel(d.drainTimer)
	// Work arrived mid-drain. The per-cycle model commits a step+sleep
	// at every edge before it can observe anything, so it would react
	// at the first clock edge at-or-after now (strictly after when the
	// kick landed on the edge that started the drain), having stepped
	// once per edge. Catch up to that edge.
	per := d.cfg.Clock.Period
	elapsed := d.eng.Now() - d.drainStart
	k := int((elapsed + per - 1) / per)
	if k == 0 {
		k = 1
	}
	if want := k - d.drainSteps; want > 0 {
		d.materializeSteps(want)
	}
	if align := sim.Time(k)*per - elapsed; align > 0 {
		d.sleep(align, (*Device).idleStep)
		return
	}
	d.next = (*Device).idleStep
}

// armDrainChunk schedules the next slice of an idle drain. The pending
// timer is what keeps Engine.Alive positive while compaction is still
// running, exactly as the per-cycle model's wake events would, so it must
// never outlive quiescence: a full chunk is armed only when at least
// drainChunk cycles provably remain (the lowest valid cell climbs past
// every hole above it at most one position per cycle, so that hole count
// is a lower bound), and otherwise a capped lookahead finds the exact
// remaining cycle count and the final timer lands on the quiescent edge —
// the instant the per-cycle model's last wake would fire.
func (d *Device) armDrainChunk() {
	// The hole count is a provable lower bound on the cycles remaining, so
	// a chunk of min(holes, drainChunk) cycles never overshoots, and every
	// cycle it covers moves data (the progress property of shiftStep while
	// compaction is pending). Chunks therefore sum to exactly the
	// cycles-to-quiescence: the chunk whose materialisation reaches
	// quiescence fires precisely when the per-cycle model's last wake
	// would, with no lookahead ever simulated.
	d.drainCycles = min(d.holesAboveLowestValid(), drainChunk)
	d.drainTimer = d.eng.ScheduleCancellable(sim.Time(d.drainCycles)*d.cfg.Clock.Period, d.drainFn)
}

// drainTick is the drain timer: it materialises the chunk it covers and
// arms the next, or marks the drain done.
func (d *Device) drainTick() {
	d.drainSteps += d.drainCycles
	d.materializeSteps(d.drainCycles)
	if d.needsCompaction() {
		d.armDrainChunk()
		return
	}
	d.drainDone = true
}

// holesAboveLowestValid counts the empty cells above the lowest valid
// cell — a lower bound on the compaction cycles remaining: (cells above
// the lowest valid one) − (valid cells above it) = n − lowest − popcount.
func (d *Device) holesAboveLowestValid() int {
	lowest := d.nextValid(0)
	if lowest == len(d.cells) {
		return 0
	}
	return len(d.cells) - lowest - d.Occupancy()
}

// startInsert enters insert mode: inserts are accepted, and matching
// continues between inserts until a match fails; failed matches are held
// for retry until insert mode exits (§III-C, §IV-C).
func (d *Device) startInsert() {
	d.insertMode = true
	d.stats.StartInserts++
	d.pushResult(Response{Kind: RespStartAck, Free: d.free()}, (*Device).insertStep)
}

// insertStep is one pass of insert mode's loop.
func (d *Device) insertStep() {
	if d.Dead() {
		// A unit that dies mid-insert-episode just stops; the firmware's
		// response timeouts notice. Fall back to the outer loop, which
		// plays dead.
		d.insertMode = false
		d.held = nil
		d.next = (*Device).loop
		return
	}
	if c, ok := d.Commands.Pop(); ok {
		switch c.Op {
		case OpInsert:
			d.doInsert(c, (*Device).insertStep)
			return
		case OpStopInsert:
			d.insertMode = false
			if d.held == nil {
				d.next = (*Device).loop
				return
			}
			probe := *d.held
			d.held = nil
			// Retry the held match against the post-insert list.
			d.doMatch(probe, false, (*Device).loop)
			return
		case OpInvalidate:
			// Honored in insert mode too: commands stay strictly FIFO
			// and always precede header processing, so a probe pushed
			// after an INVALIDATE can never observe the cleared cell.
			// A discarded invalidate would leave a purged wildcard copy
			// resident, silently skewing the firmware's mirror.
			d.invalidate(c.Tag)
		default:
			// START INSERT while inserting, or RESET mid-insert: the
			// prototype discards these (§III-C).
			d.stats.Discarded++
		}
		d.next = (*Device).insertStep
		return
	}

	// Between inserts, matching continues until a match fails.
	if d.held == nil {
		if probe, ok := d.Headers.Pop(); ok {
			d.doMatch(probe, true, (*Device).insertStep)
			return
		}
	}
	d.idle(d.hasInsertWorkFn, (*Device).insertStep)
}

// doInsert writes a new entry into cell 0, waiting for compaction to
// vacate it if necessary, and continues at then. Inserts are irrevocable
// (§IV-C footnote 4): an insert with no free cell is lost and counted.
func (d *Device) doInsert(c Command, then step) {
	d.cmd, d.insertRet, d.insertStart = c, then, d.eng.Now()
	if d.free() == 0 {
		d.stats.LostInserts++
		d.tick(d.cfg.InsertCycles, (*Device).insertDone)
		return
	}
	d.next = (*Device).insertWrite
}

// insertWrite writes the entry once compaction has drained a hole down to
// cell 0 (one exists: the insert found a free cell).
func (d *Device) insertWrite() {
	if d.valid[0]&1 != 0 {
		n := 1
		if !d.cfg.PerCycle {
			n = d.cyclesUntilCellZeroFree()
		}
		d.tick(n, (*Device).insertWrite)
		return
	}
	c := d.cmd
	d.cells[0] = cell{bits: c.Bits, mask: c.Mask, tag: c.Tag,
		par: cellParity(c.Bits, c.Mask, c.Tag)}
	d.valid[0] |= 1
	d.stats.Inserts++
	if occ := d.Occupancy(); occ > d.stats.MaxOccupancy {
		d.stats.MaxOccupancy = occ
	}
	d.tick(d.cfg.InsertCycles, (*Device).insertDone)
}

// insertDone records the insert's span in the step that completes it, so
// an insert cut short by teardown (sim.Engine.Close fires no event)
// records nothing.
func (d *Device) insertDone() {
	if t := d.env.Tracer; t != nil {
		t.Span(d.env.PID, d.env.TID, "alpu", "insert", d.insertStart, d.eng.Now())
	}
	d.next = d.insertRet
}

// doMatch runs one probe through the pipeline and continues at then. In
// insert mode (hold) a failure is held for retry instead of producing
// MATCH FAILURE (§IV-A: failure never appears between START ACKNOWLEDGE
// and STOP INSERT).
func (d *Device) doMatch(probe Probe, hold bool, then step) {
	d.probe, d.holdMiss, d.matchRet = probe, hold, then
	d.faultHook((*Device).search)
}

// search resolves the match and delete against the pipeline-entry state;
// the tick models the pipeline occupancy. Compaction during the tick may
// move cells, so the result is captured first.
func (d *Device) search() {
	d.searchStart = d.eng.Now()
	idx := d.findMatch(d.probe)
	d.hit = idx >= 0
	if d.hit {
		d.hitTag = d.cells[idx].tag
		d.deleteAt(idx)
	}
	d.tick(d.cfg.MatchCycles, (*Device).searched)
}

// searched answers the probe when it leaves the pipeline.
func (d *Device) searched() {
	now := d.eng.Now()
	if t := d.env.Tracer; t != nil {
		t.Span(d.env.PID, d.env.TID, "alpu", "search", d.searchStart, now)
		if d.hit {
			t.Instant(d.env.PID, d.env.TID, "alpu", "delete", now)
		}
	}
	d.stats.Matches++
	if period := d.cfg.Clock.Period; period > 0 {
		d.stats.SearchCycles.Add(int((now - d.searchStart) / period))
	}
	if d.hit {
		d.stats.Hits++
		d.pushResult(Response{Kind: RespMatchSuccess, Tag: d.hitTag, Probe: d.probe}, d.matchRet)
		return
	}
	if d.holdMiss {
		d.stats.HeldRetries++
		held := d.probe
		d.held = &held
		d.next = d.matchRet
		return
	}
	d.stats.Failures++
	d.pushResult(Response{Kind: RespMatchFailure, Probe: d.probe}, d.matchRet)
}

// findMatch returns the index of the highest-priority (highest index,
// oldest) matching valid cell, or -1. This is the priority mux tree of
// §III-B collapsed into its functional result; only valid cells are
// compared, walked from the top of the bitmap down.
func (d *Device) findMatch(probe Probe) int {
	pm := probeMask(d.env.Variant, probe)
	for w := len(d.valid) - 1; w >= 0; w-- {
		for v := d.valid[w]; v != 0; {
			b := bits.Len64(v) - 1
			c := &d.cells[w*64+b]
			if match.Matches(c.bits, entryMask(d.env.Variant, c.mask), probe.Bits, pm) {
				return w*64 + b
			}
			v &^= 1 << uint(b)
		}
	}
	return -1
}

// deleteAt removes the matched cell: cells below the match location shift
// up by one, leaving the lowest-priority cell empty; no hole is created
// (§III-B footnote 2).
func (d *Device) deleteAt(idx int) {
	copy(d.cells[1:idx+1], d.cells[0:idx])
	// Bits [0, idx] become the old bits [0, idx-1] shifted up one with a
	// zero shifted in; bits above idx are unchanged.
	wEnd := idx / 64
	carry := uint64(0)
	for w := 0; w <= wEnd; w++ {
		v := d.valid[w]
		sv := v<<1 | carry
		carry = v >> 63
		if w == wEnd {
			low := ^uint64(0)
			if b := uint(idx % 64); b < 63 {
				low = 1<<(b+1) - 1
			}
			sv = sv&low | v&^low
		}
		d.valid[w] = sv
	}
}

// invalidate clears the cell holding tag, if any, leaving a hole that
// compacts lazily exactly like a quarantined cell (§III-B). The tag
// lookup is associative, so the command costs only its Read Command
// cycle. No response is emitted: an absent tag means a match raced ahead
// of the invalidate in the FIFOs and already consumed the copy.
func (d *Device) invalidate(tag uint32) {
	for i := d.nextValid(0); i < len(d.cells); i = d.nextValid(i + 1) {
		if d.cells[i].tag == tag {
			d.valid[i/64] &^= 1 << uint(i%64)
			d.stats.Invalidates++
			return
		}
	}
}

// reset clears all valid bits (the RESET command).
func (d *Device) reset() {
	for i := range d.valid {
		d.valid[i] = 0
	}
	d.held = nil
	d.stats.Resets++
}

// tick advances n device clock cycles, performing one compaction step per
// cycle (the per-cycle register enables of §III-B), and continues at
// then. The batched model applies all n steps' worth of state change up
// front — the intermediate layouts are internal to the device — and
// sleeps the burst in two steps: the first ends one period early, exactly
// where the per-cycle model schedules its last step, so same-instant
// event ordering against the rest of the world is preserved.
func (d *Device) tick(n int, then step) {
	if n <= 0 {
		d.next = then
		return
	}
	d.tickRet = then
	if d.cfg.PerCycle {
		d.tickLeft = n
		d.next = (*Device).cycle
		return
	}
	d.materializeSteps(n)
	if n > 1 {
		d.sleep(sim.Time(n-1)*d.cfg.Clock.Period, (*Device).lastCycle)
		return
	}
	d.lastCycle()
}

// lastCycle sleeps the final cycle of a batched tick.
func (d *Device) lastCycle() { d.sleep(d.cfg.Clock.Period, d.tickRet) }

// cycle starts one cycle of a per-cycle tick. Stuck compaction: the step
// machinery may wedge for a short run of cycles in which time passes but
// nothing moves.
func (d *Device) cycle() {
	if d.tickLeft == 0 {
		d.next = d.tickRet
		return
	}
	d.tickLeft--
	d.next = (*Device).shift
	if d.frng != nil && d.frng.Chance(d.env.Faults.StuckProb) {
		k := 1 + d.frng.Intn(8)
		d.stats.StuckCycles += uint64(k)
		d.stuckLeft = k
		d.next = (*Device).stuck
	}
}

// stuck waits out the dead cycles of a stuck step, one at a time.
func (d *Device) stuck() {
	if d.stuckLeft == 0 {
		d.next = (*Device).shift
		return
	}
	d.stuckLeft--
	d.sleep(d.cfg.Clock.Period, (*Device).stuck)
}

// shift performs the cycle's compaction step and sleeps the cycle.
func (d *Device) shift() {
	if d.shiftStep() {
		d.stats.ShiftCycles++
	}
	d.sleep(d.cfg.Clock.Period, (*Device).cycle)
}

// materializeSteps applies up to n compaction cycles of state change
// immediately, counting ShiftCycles exactly as per-cycle stepping would.
// Cells change only through the device itself, so once one step moves
// nothing, no later step in the burst can move either. A layout in glide
// form takes the rest of the burst in one closed-form step; any other
// layout takes one shiftStep at a time until it reaches that form.
func (d *Device) materializeSteps(n int) {
	for n > 0 {
		if k, ok := d.glide(n); ok {
			d.stats.ShiftCycles += uint64(k)
			return
		}
		if !d.shiftStep() {
			return
		}
		d.stats.ShiftCycles++
		n--
	}
}

// glide applies n compaction cycles in one step when the layout is in
// glide form and returns how many of them move data; for any other
// layout it reports !ok and changes nothing.
//
// Call the maximal run of valid cells that ends at the top cell the
// settled run, s its lowest index (the cell count when the run is
// empty), and the f valid cells below s free. In glide form every free
// cell has an empty cell directly above it. That cell is in the free
// cell's own block or is the lowest cell of the next block, so every free
// cell is enabled and moves each cycle, and no settled cell is. The gaps
// between free cells stay as they are, so the form holds; only the top
// free cell's gap closes, when it joins the settled run. Numbering the
// free cells j = 1..f from the top, cell j at p_j sits at
// min(p_j+k, s−j) after k cycles, and data moves on the first s−f−p_f
// cycles, which is holesAboveLowestValid in this form.
func (d *Device) glide(n int) (moved int, ok bool) {
	v := d.valid
	w := len(v) - 1
	top := v[w] | ^d.lastMask
	for top == ^uint64(0) {
		if w == 0 {
			return 0, true // every cell is valid
		}
		w--
		top = v[w]
	}
	hz := uint(63 - bits.LeadingZeros64(^top)) // cell s−1 is bit hz of word w
	s := w*64 + int(hz) + 1
	f, lowest := 0, 0
	for i := w; i >= 0; i-- {
		free, above := v[i], v[i]>>1
		if i == w {
			free &= 1<<hz - 1
		}
		if i+1 < len(v) {
			above |= v[i+1] << 63
		}
		if free&above != 0 {
			return 0, false
		}
		if free != 0 {
			f += bits.OnesCount64(free)
			lowest = i*64 + bits.TrailingZeros64(free)
		}
	}
	if f == 0 {
		return 0, true
	}
	moved = min(n, s-f-lowest)
	// Top-down, each free cell lands above every free cell not yet moved.
	j := 0
	for i := w; i >= 0; i-- {
		free := v[i]
		if i == w {
			free &= 1<<hz - 1
		}
		v[i] &^= free
		for free != 0 {
			b := bits.Len64(free) - 1
			free &^= 1 << uint(b)
			j++
			from := i*64 + b
			to := min(from+moved, s-j)
			d.cells[to] = d.cells[from]
			v[to/64] |= 1 << uint(to%64)
		}
	}
	return moved, true
}

// shiftStep performs one cycle of hole compaction on the device. A cell's
// data moves up one position when the cell is enabled under the "space
// available" definition: an empty cell higher in its own block, or an
// empty lowest cell of the next block (§III-B); CompactAnyBlock makes the
// whole array one block. Enables are computed from the pre-cycle state,
// as the hardware's registered control does.
func (d *Device) shiftStep() bool { return d.bitStep(d.valid, true) }

// suffixOR64 ORs into every bit all bits above it: result bit i is the OR
// of x's bits i..63.
func suffixOR64(x uint64) uint64 {
	x |= x >> 1
	x |= x >> 2
	x |= x >> 4
	x |= x >> 8
	x |= x >> 16
	x |= x >> 32
	return x
}

// bitStep advances the valid bitmap v by one compaction cycle in a few
// word ops per 64 cells. Run-group behaviour collapses to a closed form —
// a valid cell moves up exactly when its space-available enable (from the
// pre-cycle state) holds, because a valid cell directly above an enabled
// cell is itself enabled and vacates the slot in the same cycle — so the
// move mask is just valid & enable and the new bitmap is
// (valid &^ moves) | moves<<1 with cross-word carry. When moveCells is
// set, the set bits of the move mask are applied to the cell array
// top-down. The enable is computed one of two ways, chosen by the
// geometry at construction.
func (d *Device) bitStep(v []uint64, moveCells bool) bool {
	m := d.moveBuf
	moved := false
	if d.blockWords == 0 {
		// Blocks inside a word. Enable: an empty cell higher in the same
		// block (in-block strict suffix OR of the holes, via masked
		// doubling), or an empty lowest cell of the next block (each
		// block-low hole bit shifted down one block and broadcast across
		// it; the word's top block takes the carry from the word above).
		bs := uint(d.cfg.Geometry.BlockSize)
		carryLow := uint64(0)
		for w := len(v) - 1; w >= 0; w-- {
			h := ^v[w]
			if w == len(v)-1 {
				h &= d.lastMask
			}
			f := h
			for j, k := range d.sufShift {
				f |= f >> k & d.sufMask[j]
			}
			lows := h & d.lowMask
			nl := (lows>>bs | carryLow<<(64-bs)) * d.bcastMul
			carryLow = lows & 1
			if mw := v[w] & (f>>1&^d.topMask | nl); mw != 0 {
				m[w] = mw
				moved = true
			} else {
				m[w] = 0
			}
		}
	} else {
		// Blocks of whole words. Enable: an empty cell higher in the
		// same word (strict suffix OR); an empty cell in a higher word of
		// the same block (the in-block hole carry, all ones once a hole
		// is seen, reset at each block's top word); or an empty lowest
		// cell of the next block (bit 0 of the word above the block's
		// top word, which -aboveLow spreads to all ones).
		inBlock, nextLow, aboveLow := uint64(0), uint64(0), uint64(0)
		for w := len(v) - 1; w >= 0; w-- {
			h := ^v[w]
			if w == len(v)-1 {
				h &= d.lastMask
			}
			if (w+1)%d.blockWords == 0 {
				inBlock, nextLow = 0, -aboveLow
			}
			if mw := v[w] & (suffixOR64(h)>>1 | inBlock | nextLow); mw != 0 {
				m[w] = mw
				moved = true
			} else {
				m[w] = 0
			}
			if h != 0 {
				inBlock = ^uint64(0)
			}
			aboveLow = h & 1
		}
	}
	if !moved {
		return false
	}
	carry := uint64(0)
	for w := 0; w < len(v); w++ {
		mw := m[w]
		v[w] = v[w]&^mw | mw<<1 | carry
		carry = mw >> 63
	}
	if !moveCells {
		return true
	}
	for w := len(v) - 1; w >= 0; w-- {
		mw := m[w]
		for mw != 0 {
			b := bits.Len64(mw) - 1
			i := w*64 + b
			d.cells[i+1] = d.cells[i]
			mw &^= 1 << uint(b)
		}
	}
	return true
}

// cyclesUntilCellZeroFree counts the compaction cycles until cell 0 is
// empty so an insert can land, stepping a copy of the valid bitmap. The
// caller must ensure a free cell exists; compaction then always drains a
// hole down to cell 0, so the count is finite (and checked before each
// step, matching a caller that re-tests per cycle).
func (d *Device) cyclesUntilCellZeroFree() int {
	copy(d.lookBuf, d.valid)
	steps := 0
	for d.lookBuf[0]&1 != 0 {
		if !d.bitStep(d.lookBuf, false) {
			break // cannot happen while a free cell exists
		}
		steps++
	}
	return steps
}

// needsCompaction reports whether any valid cell still has an empty cell
// above it (the valid cells are not yet a contiguous suffix at the
// high-priority end). Holes below all data are the compacted steady state.
func (d *Device) needsCompaction() bool {
	seenHole := false
	for w := len(d.valid) - 1; w >= 0; w-- {
		v := d.valid[w]
		h := ^v
		if w == len(d.valid)-1 {
			h &= d.lastMask
		}
		if seenHole && v != 0 {
			return true
		}
		if suffixOR64(h)>>1&v != 0 {
			return true
		}
		if h != 0 {
			seenHole = true
		}
	}
	return false
}

// pushResult appends r to the result FIFO and continues at then, stalling
// (as real hardware would backpressure) while the FIFO is full until the
// processor drains it (§IV-C). While stalled the device is not
// idle-spinning: compaction steps keep running (one per cycle, as the
// hardware's register enables would), and only once the array is fully
// compacted does the device wait on the FIFO's not-full edge.
// ResultStalls is charged at a single site (stalled) from elapsed stall
// time, so the per-cycle and cycle-batched paths count identically by
// construction (tick(1) advances exactly one clock period in both modes;
// the fast-vs-reference oracle in TestPushResultStallOracle pins this).
func (d *Device) pushResult(r Response, then step) {
	d.resp, d.pushRet = r, then
	d.offer()
}

// offer pushes the pending response, or stalls one step while the FIFO
// is full.
func (d *Device) offer() {
	if d.Results.Full() {
		d.stallStart = d.eng.Now()
		if d.needsCompaction() {
			d.tick(1, (*Device).stalled)
		} else {
			d.wait(d.Results.NotFull, d.roomFn, (*Device).stalled)
		}
		return
	}
	d.next = d.pushRet
	if d.frng != nil && d.frng.Chance(d.env.Faults.ResultDropProb) {
		d.stats.DroppedResults++
		return
	}
	d.emit(d.resp)
}

// emit pushes r into a result FIFO the caller found not full.
func (d *Device) emit(r Response) {
	if !d.Results.Push(r) {
		panic(fmt.Sprintf("%s: result FIFO rejected push while not full", d.name))
	}
}

// stalled charges one stall step and offers the response again.
func (d *Device) stalled() {
	d.stats.ResultStalls += uint64((d.eng.Now() - d.stallStart) / d.cfg.Clock.Period)
	d.next = (*Device).offer
}
