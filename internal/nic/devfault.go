// Device-fault tolerance: the firmware-side recovery machinery for a
// misbehaving or dying ALPU, and firmware crash/restart itself.
//
// Detection is end-to-end: the firmware never peeks at device internals.
// It sees FAULT responses (the device scrubber quarantining parity-bad
// cells) and response timeouts (results lost in the FIFO, or a device
// that went dark). Each detection is a *strike*; every strike triggers a
// resync — RESET the unit and discard the mirror protocol state, leaving
// the host-side shadow list as the sole truth, to be reloaded through
// ordinary insert episodes gated by an exponentially backed-off retry
// time. When strikes reach the limit without an intervening successful
// interaction, the firmware declares the device dead and hot-fails-over:
// the shadow list is rebuilt into a match.HashList (in list order, so
// relative priority is preserved) and all matching continues in software.
//
// The correctness argument for zero lost/duplicated/misordered matches is
// in DESIGN.md §5.10: the software list always contains every unmatched
// entry (an ALPU delete is only mirrored when its MATCH SUCCESS response
// is consumed), a corrupted cell is quarantined by parity before any
// probe can match it, and a stale MATCH SUCCESS consumed after a resync
// resolves through the cleared tag table into a full software search.
package nic

import (
	"fmt"

	"alpusim/internal/alpu"
	"alpusim/internal/match"
	"alpusim/internal/params"
	"alpusim/internal/proc"
	"alpusim/internal/sim"
)

// Recovery-policy defaults (the first three overridable through Config).
const (
	defaultStrikeLimit   = 5
	defaultResultTimeout = 10 * sim.Microsecond
	defaultRetryBase     = 20 * sim.Microsecond
	defaultRetryCap      = 320 * sim.Microsecond
	// fwRestartDelay is the modelled reboot time of the embedded processor.
	fwRestartDelay = 10 * sim.Microsecond
)

// FirmwareCrash is the typed panic value a crash-injected firmware raises.
// The firmware supervisor recovers exactly this type, restarts the loop
// after fwRestartDelay, and replays device state from the shadow queues;
// any other panic keeps propagating.
type FirmwareCrash struct {
	NIC int
	At  sim.Time
}

func (c *FirmwareCrash) Error() string {
	return fmt.Sprintf("nic%d: injected firmware crash at %v", c.NIC, c.At)
}

// DeviceFaults reports whether any device-level fault class is configured
// (ALPU or shard fault models, firmware crashes) — the gate for response
// timeouts, the recovery machinery and the world's failover rollups.
// Fault-free worlds take exactly the pre-existing code paths.
func (c *Config) DeviceFaults() bool {
	if c.ALPUFaults.Active() || c.FwCrashProb > 0 {
		return true
	}
	for _, f := range c.ShardFaults {
		if f.Active() {
			return true
		}
	}
	return false
}

func (n *NIC) strikeLimit() int {
	if n.cfg.FaultStrikeLimit > 0 {
		return n.cfg.FaultStrikeLimit
	}
	return defaultStrikeLimit
}

// resultWait returns the response-wait budget: 0 (wait forever) without
// device faults, else the base timeout scaled exponentially by the
// queue's strike count — each consecutive fault buys the device a longer
// grace period before the next retry, capped.
func (n *NIC) resultWait(q *mirrorQueue) sim.Time {
	if !n.cfg.DeviceFaults() {
		return 0
	}
	t := n.cfg.FaultResultTimeout
	if t == 0 {
		t = defaultResultTimeout
	}
	for s := 0; s < q.strikes && s < 5; s++ {
		t *= 2
	}
	return t
}

// retryBackoff computes the re-engagement delay after the given strike
// count: base << (strikes-1), capped.
func (n *NIC) retryBackoff(strikes int) sim.Time {
	base := n.cfg.FaultRetryBase
	if base == 0 {
		base = defaultRetryBase
	}
	d := base
	for s := 1; s < strikes && d < defaultRetryCap; s++ {
		d *= 2
	}
	if d > defaultRetryCap {
		d = defaultRetryCap
	}
	return d
}

// failCounter bumps a live failover counter under "nic<ID>/failover/...".
func (n *NIC) failCounter(name string) {
	n.reg.Counter(fmt.Sprintf("nic%d/failover/%s", n.cfg.ID, name)).Inc()
}

// noteDeviceFault records one strike against a queue's device: telemetry,
// a recoverable protocol error (which feeds the log, the error hook and
// the flight recorder), the exponential retry gate, and a pending-resync
// mark that the next safe point acts on.
func (n *NIC) noteDeviceFault(q *mirrorQueue, op, detail string) {
	n.faultEvents++
	q.strikes++
	q.needResync = true
	q.retryAt = n.eng.Now() + n.retryBackoff(q.strikes)
	n.failCounter("strikes")
	n.noteError(&ProtocolError{NIC: n.cfg.ID, Op: "alpu-" + op,
		Detail: fmt.Sprintf("%s ALPU strike %d/%d: %s", q.name, q.strikes, n.strikeLimit(), detail)})
	if n.tracer != nil {
		n.tracer.Instant(n.cfg.ID, tidFirmware, "fault", "alpu-"+op, n.eng.Now())
	}
}

// deviceFault is noteDeviceFault plus immediate repair — callable only
// from safe points (not mid-FIFO-wait, not mid-insert-bookkeeping).
func (n *NIC) deviceFault(e *proc.Engine, q *mirrorQueue, op, detail string) {
	n.noteDeviceFault(q, op, detail)
	n.repairALPU(e, q)
}

// noteDeviceSuccess clears the strike counter after a successful device
// interaction: faults must be *repeated* (consecutive) to kill the unit.
func (n *NIC) noteDeviceSuccess(q *mirrorQueue) {
	if q.strikes > 0 && !q.needResync {
		q.strikes = 0
		q.retryAt = 0
	}
}

// maintainDevices is called at the firmware loop top: act on any pending
// resync marks left by fault detections inside protocol waits, and
// health-check struck units whose retry gate has opened.
func (n *NIC) maintainDevices(e *proc.Engine) {
	if !n.cfg.DeviceFaults() {
		return
	}
	for _, q := range n.alpuQueues {
		if q.needResync {
			n.repairALPU(e, q)
		}
		if q.strikes > 0 && !q.alpuDead && n.eng.Now() >= q.retryAt {
			n.healthCheckALPU(e, q)
		}
	}
}

// healthCheckALPU verifies a struck unit is answering before it is
// trusted with traffic again: an empty insert episode, whose START
// ACKNOWLEDGE a live device must return. A silent device strikes again —
// so a dead unit is driven to the strike limit and failover by the
// firmware itself, at backoff intervals, independent of whether traffic
// happens to re-engage it. A live one clears its strike count.
func (n *NIC) healthCheckALPU(e *proc.Engine, q *mirrorQueue) {
	if _, ok := n.startInsert(e, q, "health-timeout", "health check never acknowledged"); !ok {
		return
	}
	n.pushCommand(e, q, alpu.Command{Op: alpu.OpStopInsert})
	n.noteDeviceSuccess(q)
}

// repairALPU resolves a pending resync: escalate to failover once the
// strike limit is reached, otherwise resync the unit.
func (n *NIC) repairALPU(e *proc.Engine, q *mirrorQueue) {
	q.needResync = false
	if q.alpuDead {
		return
	}
	if q.strikes >= n.strikeLimit() {
		n.failoverALPU(e, q)
		return
	}
	n.resyncALPU(e, q)
}

// resyncALPU discards the hardware mirror and rebuilds from the shadow:
// the unit is disengaged (no new probes flow while it is being repaired),
// told to exit any insert episode and RESET, and *quiesced* — every
// response it still emits from old-era probes is discarded before the
// mirror is dropped and the not-in-ALPU pointer returns to zero. Matching
// runs in pure software until the retry gate opens and the next insert
// episode re-engages the unit and reloads the list from the front.
//
// The quiesce is load-bearing: the RESET is asynchronous, so a probe
// already queued in the device can be answered against pre-reset state
// *after* a naive drain. Such a response carries a tag and correlation
// key from the old era; once tags are reallocated by the reload, a stale
// MATCH SUCCESS would resolve through a reused tag to the wrong entry and
// silently consume the wrong receive. After the quiesce the device is
// provably silent, so old-era output cannot leak into the new era.
func (n *NIC) resyncALPU(e *proc.Engine, q *mirrorQueue) {
	n.failCounter("resyncs")
	if n.cfg.Log != nil {
		n.cfg.Log.Warn("alpu resync", "nic", n.cfg.ID, "queue", q.name,
			"strikes", q.strikes, "inALPU", q.inALPU)
	}
	q.engaged = false
	// STOP INSERT first: if the fault struck mid-episode the device is in
	// insert mode, where RESET would be discarded (§III-C); out of insert
	// mode the stray STOP is itself discarded. Then RESET clears the array.
	n.pushCommand(e, q, alpu.Command{Op: alpu.OpStopInsert})
	n.pushCommand(e, q, alpu.Command{Op: alpu.OpReset})
	n.quiesceDevice(e, q)
	if q.over != nil {
		// Fabric shard: with the pointer returning to zero the whole list
		// becomes the unloaded suffix, so the formerly mirrored prefix
		// demotes back into the overflow hash, keeping over == list[0:]
		// exact. The quiesce above guarantees no old-era response can
		// surface, so the stale quarantine empties with the tag table.
		for i := 0; i < q.inALPU && i < q.list.Len(); i++ {
			entry := q.list.At(i)
			q.over.InsertOrdered(entry)
			q.demotions++
			e.Cycles(4)
			e.Store(hashBucketAddr(entry.Bits), 8)
		}
	}
	q.dropMirror()
}

// quiesceDevice waits until the unit has consumed every queued command
// and probe and gone silent, discarding everything it emits meanwhile.
// Disengagement (done by the caller) stops new probes from being
// replicated, so the backlog is finite; the wait is bounded anyway so a
// wedged device cannot hang the repair. Simulated time only — recovery
// is allowed to be slow, never wrong.
func (n *NIC) quiesceDevice(e *proc.Engine, q *mirrorQueue) {
	const step = 1 * sim.Microsecond
	idle := 0
	for budget := 0; budget < 64; budget++ {
		drained := false
		for {
			r, ok := q.dev.Results.Pop()
			if !ok {
				break
			}
			drained = true
			if r.Kind == alpu.RespFault {
				n.failCounter("fault_responses")
			}
			e.BusTransaction(params.ALPUResultPollCycles)
		}
		if !drained && q.dev.Commands.Len() == 0 && q.dev.Headers.Len() == 0 {
			// All FIFOs empty and nothing new emerged: after two silent
			// windows (longer than any single device operation) the unit
			// cannot produce further old-era output.
			idle++
			if idle >= 2 {
				return
			}
		} else {
			idle = 0
		}
		e.P.Sleep(step)
	}
}

// failoverALPU declares the device dead and hot-fails-over to software
// matching: the shadow list is rebuilt into a hash-list (in list order —
// HashList.Append stamps ascending sequence numbers, so first-posted
// priority is preserved exactly) and the queue permanently takes the
// software hash path. Probes stop flowing (engaged=false gates both
// hardware replication hooks), so from this instant the unit is inert.
func (n *NIC) failoverALPU(e *proc.Engine, q *mirrorQueue) {
	q.alpuDead = true
	q.engaged = false
	q.needResync = false
	q.dropMirror()
	// On a fabric shard the hash shadow built below takes over as the only
	// live structure; the overflow mirror retires with the device.
	q.over = nil
	n.failCounter("deaths")
	n.failCounter("shadow_rebuilds")
	if n.cfg.Log != nil {
		n.cfg.Log.Warn("alpu declared dead, failing over to software matching",
			"nic", n.cfg.ID, "queue", q.name, "strikes", q.strikes, "entries", q.list.Len())
	}
	if n.tracer != nil {
		n.tracer.Instant(n.cfg.ID, tidFirmware, "fault", "alpu-failover", n.eng.Now())
	}
	// Rebuild the fallback structure from the shadow list, charging the
	// reconstruction like the hash inserts it is.
	q.hash = match.NewHashList()
	for i := 0; i < q.list.Len(); i++ {
		entry := q.list.At(i)
		q.hash.Append(entry)
		e.Cycles(4)
		e.Store(hashBucketAddr(entry.Bits), 8)
	}
	// Best-effort quiesce: if the device is merely flaky (not dark), a
	// RESET stops it answering probes already in its header FIFO. A dead
	// device discards this silently.
	q.dev.PushCommand(alpu.Command{Op: alpu.OpStopInsert})
	q.dev.PushCommand(alpu.Command{Op: alpu.OpReset})
}

// maybeCrash injects a firmware crash: drawn once per pending work item
// at the loop top, *before* the item is popped, so nothing is ever half
// applied — the queued work survives the crash and is replayed by the
// restarted loop.
func (n *NIC) maybeCrash() {
	if n.crashRng == nil || !n.crashRng.Chance(n.cfg.FwCrashProb) {
		return
	}
	n.failCounter("fw_crashes")
	if n.cfg.Log != nil {
		n.cfg.Log.Warn("firmware crash injected", "nic", n.cfg.ID)
	}
	panic(&FirmwareCrash{NIC: n.cfg.ID, At: n.eng.Now()})
}

// recoverFirmware is the post-crash state replay: every live ALPU mirror
// is marked for resync, so the first loop iteration rebuilds the devices
// from the host-side shadow queues before touching new work. Host and
// network queues were never half-consumed (maybeCrash fires before any
// pop), so no request or packet is lost.
func (n *NIC) recoverFirmware() {
	n.failCounter("fw_restarts")
	if n.cfg.Log != nil {
		n.cfg.Log.Warn("firmware restarted", "nic", n.cfg.ID)
	}
	for _, q := range n.alpuQueues {
		if !q.alpuDead && q.engaged {
			q.needResync = true
		}
	}
}
