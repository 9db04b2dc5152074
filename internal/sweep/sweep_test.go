package sweep_test

import (
	"strings"
	"testing"

	"alpusim/internal/bench"
	"alpusim/internal/mpi"
	"alpusim/internal/sweep"
)

func TestMapOrderedResults(t *testing.T) {
	for _, jobs := range []int{1, 2, 8, 64} {
		got := sweep.Map(jobs, 100, func(i int) int { return i * i })
		if len(got) != 100 {
			t.Fatalf("jobs=%d: got %d results, want 100", jobs, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("jobs=%d: result[%d] = %d, want %d", jobs, i, v, i*i)
			}
		}
	}
}

func TestMapEmptyAndNegative(t *testing.T) {
	if got := sweep.Map(4, 0, func(int) int { return 1 }); got != nil {
		t.Fatalf("n=0 returned %v, want nil", got)
	}
	// jobs <= 0 selects GOMAXPROCS; must still produce every result.
	got := sweep.Map(-1, 5, func(i int) int { return i })
	if len(got) != 5 {
		t.Fatalf("jobs=-1: got %d results, want 5", len(got))
	}
}

func TestRunExecutesAllTasks(t *testing.T) {
	done := make([]bool, 10)
	tasks := make([]func(), 10)
	for i := range tasks {
		i := i
		tasks[i] = func() { done[i] = true }
	}
	sweep.Run(4, tasks...)
	for i, d := range done {
		if !d {
			t.Fatalf("task %d did not run", i)
		}
	}
}

// TestDeterminism is the ISSUE's acceptance property: the same Fig. 5
// quick sweep at -jobs 1 and -jobs 8 must produce identical points —
// every world is independent, so parallelism may not change any result.
func TestDeterminism(t *testing.T) {
	run := func(jobs int) []bench.PrepostedPoint {
		return bench.RunPreposted(bench.PrepostedConfig{
			NIC:       bench.NICConfig(bench.ALPU128),
			QueueLens: []int{0, 50, 100, 200},
			Fracs:     []float64{0, 0.5, 1.0},
			Plan:      bench.Plan{Jobs: jobs},
		})
	}
	seq := run(1)
	par := run(8)
	if len(seq) != len(par) {
		t.Fatalf("jobs=1 produced %d points, jobs=8 produced %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("point %d differs: jobs=1 %+v, jobs=8 %+v", i, seq[i], par[i])
		}
	}
}

// TestPanicPropagation: a panicking point must fail the sweep on the
// caller's goroutine — after all workers drained — not deadlock the pool
// or kill the process.
func TestPanicPropagation(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("sweep with a panicking point did not panic")
		}
		if !strings.Contains(r.(string), "boom-point-3") {
			t.Fatalf("panic %q does not carry the point's panic value", r)
		}
	}()
	sweep.Map(4, 16, func(i int) int {
		if i == 3 {
			panic("boom-point-3")
		}
		return i
	})
}

// TestPanicFromWorld: a panic raised inside a co-simulated rank program —
// on the world's internal process goroutine — must surface through
// mpi.RunPrograms to the sweep worker and fail the sweep the same way.
func TestPanicFromWorld(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("sweep with a panicking world did not panic")
		}
		if !strings.Contains(r.(string), "rank-program-boom") {
			t.Fatalf("panic %q does not carry the rank program's panic value", r)
		}
	}()
	sweep.Map(4, 8, func(i int) int {
		progs := []mpi.Program{
			func(r *mpi.Rank) { r.Send(1, 7, 0) },
			func(r *mpi.Rank) {
				r.Recv(0, 7, 0)
				if i == 5 {
					panic("rank-program-boom")
				}
			},
		}
		mpi.RunPrograms(mpi.Config{Ranks: 2}, progs)
		return i
	})
}
