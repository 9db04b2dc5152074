package bench

import (
	"bytes"
	"reflect"
	"testing"

	"alpusim/internal/alpu"
	"alpusim/internal/mpi"
	"alpusim/internal/nic"
	"alpusim/internal/telemetry"
)

// The equivalence oracle for the batched ALPU fast path: every observable
// output — the Fig. 5/6 and gap benchmark results, the per-device
// alpu.Stats counters (including ShiftCycles and ResultStalls, which
// count simulated cycles the batching coalesces), and the telemetry
// metrics JSON — must be bit-identical between the default batched model
// and the per-cycle reference model (alpu.Config.PerCycle). See
// DESIGN.md "model performance" for why this holds by construction.

func oracleNIC(k NICKind, perCycle bool) nic.Config {
	c := NICConfig(k)
	if perCycle {
		// Cells 0: each NIC fills in its own.
		dev := alpu.DefaultConfig(0)
		dev.PerCycle = true
		c.ALPUConfig = &dev
	}
	return c
}

func TestOracleFastPathMatchesPerCycle(t *testing.T) {
	if testing.Short() {
		t.Skip("per-cycle reference runs are slow")
	}
	qs := []int{0, 40, 120}
	for _, k := range []NICKind{Baseline, ALPU128, ALPU256} {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			fig5 := func(pc bool) []PrepostedPoint {
				return RunPreposted(PrepostedConfig{
					NIC: oracleNIC(k, pc), QueueLens: qs, Fracs: []float64{0, 0.5, 1},
				})
			}
			if fast, ref := fig5(false), fig5(true); !reflect.DeepEqual(fast, ref) {
				t.Errorf("fig5 diverges:\nfast: %+v\nref:  %+v", fast, ref)
			}
			fig6 := func(pc bool) []UnexpectedPoint {
				return RunUnexpected(UnexpectedConfig{
					NIC: oracleNIC(k, pc), QueueLens: qs, MsgSize: 64,
				})
			}
			if fast, ref := fig6(false), fig6(true); !reflect.DeepEqual(fast, ref) {
				t.Errorf("fig6 diverges:\nfast: %+v\nref:  %+v", fast, ref)
			}
			gap := func(pc bool) []GapPoint {
				return RunGap(GapConfig{NIC: oracleNIC(k, pc), Depths: []int{0, 50}})
			}
			if fast, ref := gap(false), gap(true); !reflect.DeepEqual(fast, ref) {
				t.Errorf("gap diverges:\nfast: %+v\nref:  %+v", fast, ref)
			}

			// One deep point with full instrumentation: ALPU counters and
			// the rendered metrics JSON.
			type deviceStats struct {
				Posted, Unexp alpu.Stats
			}
			deep := func(pc bool) ([]deviceStats, string) {
				reg := telemetry.NewRegistry()
				_, w := prepostedPoint(PrepostedConfig{
					NIC: oracleNIC(k, pc), Plan: Plan{World: mpi.Config{Telemetry: reg}},
				}, 120, 120)
				var stats []deviceStats
				for _, n := range w.NICs {
					var ds deviceStats
					if d := n.PostedALPU(); d != nil {
						ds.Posted = d.Stats()
					}
					if d := n.UnexpALPU(); d != nil {
						ds.Unexp = d.Stats()
					}
					stats = append(stats, ds)
				}
				var buf bytes.Buffer
				if err := w.TelemetrySnapshot().WriteJSON(&buf); err != nil {
					t.Fatalf("metrics JSON: %v", err)
				}
				return stats, buf.String()
			}
			fastStats, fastJSON := deep(false)
			refStats, refJSON := deep(true)
			if !reflect.DeepEqual(fastStats, refStats) {
				t.Errorf("alpu.Stats diverge:\nfast: %+v\nref:  %+v", fastStats, refStats)
			}
			if fastJSON != refJSON {
				t.Errorf("metrics JSON diverges:\nfast: %s\nref:  %s", fastJSON, refJSON)
			}
		})
	}
}
