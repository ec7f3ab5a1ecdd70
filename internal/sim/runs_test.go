package sim

import (
	"math/rand"
	"reflect"
	"testing"

	"mikpoly/internal/hw"
)

// expand writes a run-length task list out tile by tile: one single-task
// entry per task, in hand-out order.
func expand(runs []Task) []Task {
	var out []Task
	for _, r := range runs {
		n := r.N()
		r.Count = 0
		for i := 0; i < n; i++ {
			out = append(out, r)
		}
	}
	return out
}

// randomRuns builds a program-like run list: a few regions with distinct
// task costs, launched reps times back to back (an op's Count), with the
// same regions' tags.
func randomRuns(rng *rand.Rand, reps int) []Task {
	var batch []Task
	for ri, n := 0, 1+rng.Intn(3); ri < n; ri++ {
		batch = append(batch, Task{
			ComputeCycles: 500 + float64(rng.Intn(4000)),
			MemBytes:      float64(rng.Intn(200_000)),
			StartupCycles: float64(rng.Intn(200)),
			Tag:           ri,
			Count:         1 + rng.Intn(40),
		})
	}
	return AppendRepeat(nil, batch, reps)
}

func smallHW(sched hw.Scheduler, pes int) hw.Hardware {
	h := hw.A100()
	h.NumPEs = pes
	h.Scheduler = sched
	return h
}

// TestRunsEqualExpandedRun: a run-length batch simulates bit for bit like
// the same batch written out tile by tile, under the GPU's dynamic queue and
// the NPU's static max-min allocation.
func TestRunsEqualExpandedRun(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, h := range []hw.Hardware{smallHW(hw.ScheduleDynamic, 8), smallHW(hw.ScheduleStaticMaxMin, 6), hw.A100(), hw.Ascend910()} {
		for trial := 0; trial < 20; trial++ {
			runs := randomRuns(rng, 1+rng.Intn(4))
			got, want := Run(h, runs), Run(h, expand(runs))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s trial %d: runs %+v\n got %+v\nwant %+v", h.Name, trial, runs, got, want)
			}
			if got.NumTasks != Total(runs) {
				t.Fatalf("%s: ran %d tasks, want %d", h.Name, got.NumTasks, Total(runs))
			}
		}
	}
}

// TestRunsEqualExpandedFaults: per-task fault ordinals keep their global
// index, and dead, dying, slow and sticky PEs plus brownouts see the same
// hand-out order, so RunWithFaults is bitwise equal on runs and tiles.
func TestRunsEqualExpandedFaults(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, sched := range []hw.Scheduler{hw.ScheduleDynamic, hw.ScheduleStaticMaxMin} {
		h := smallHW(sched, 6)
		for trial := 0; trial < 20; trial++ {
			runs := randomRuns(rng, 1+rng.Intn(3))
			f := Faults{
				Seed:          uint64(trial),
				Salt:          3,
				TaskFaultRate: 0.1,
				DropPEs:       []int{5},
				SlowPE:        map[int]float64{1: 1.5},
				PEDeathCycle:  map[int]float64{2: float64(2000 + rng.Intn(20_000))},
				StickyFaults:  map[int]int{3: 2},
				Brownout:      &Brownout{StartCycle: 1000, Duration: 30_000, Factor: 0.5},
			}
			got, err := RunWithFaults(h, runs, f)
			if err != nil {
				t.Fatal(err)
			}
			want, err := RunWithFaults(h, expand(runs), f)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("sched %v trial %d:\n got %+v\nwant %+v", sched, trial, got, want)
			}
			if got.NumTasks+got.StrandedTasks != Total(runs) {
				t.Fatalf("started %d + stranded %d != %d tasks", got.NumTasks, got.StrandedTasks, Total(runs))
			}
		}
	}
}

// TestRunsEqualExpandedTrace: the per-task trace of a run-length batch is
// event for event the trace of the written-out batch.
func TestRunsEqualExpandedTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, sched := range []hw.Scheduler{hw.ScheduleDynamic, hw.ScheduleStaticMaxMin} {
		h := smallHW(sched, 5)
		runs := randomRuns(rng, 3)
		gotRes, gotEv := RunTrace(h, runs)
		wantRes, wantEv := RunTrace(h, expand(runs))
		if !reflect.DeepEqual(gotRes, wantRes) || !reflect.DeepEqual(gotEv, wantEv) {
			t.Fatalf("sched %v: traces differ", sched)
		}
		if len(gotEv) != Total(runs) {
			t.Fatalf("%d events for %d tasks", len(gotEv), Total(runs))
		}
	}
}

// TestRunsEqualExpandedFastPath: the analytic path merges neighbouring runs
// of identical tasks exactly as it merged written-out tiles, including runs
// split across an op's repeated launches.
func TestRunsEqualExpandedFastPath(t *testing.T) {
	h := smallHW(hw.ScheduleDynamic, 4)
	big := fastPathMinWaves * h.NumPEs
	a := Task{ComputeCycles: 1000, MemBytes: 5000, StartupCycles: 20, Count: big + 3}
	b := Task{ComputeCycles: 700, MemBytes: 90_000, StartupCycles: 20, Tag: 1, Count: big / 2}
	for _, runs := range [][]Task{
		{a},
		{a, b, b},                       // b's halves merge into one large run
		AppendRepeat(nil, []Task{a}, 3), // one run of three launches
	} {
		got, ok := analyticFastPath(h, runs)
		want, wantOK := analyticFastPath(h, expand(runs))
		if ok != wantOK || !reflect.DeepEqual(got, want) {
			t.Fatalf("runs %+v: fast path %v/%v\n got %+v\nwant %+v", runs, ok, wantOK, got, want)
		}
		if !ok {
			t.Fatalf("runs %+v: fast path not taken", runs)
		}
		if res := Run(h, runs); !reflect.DeepEqual(res, got) {
			t.Fatalf("Run did not take the fast path: %+v", res)
		}
	}
	// A small run anywhere keeps the whole batch on the event loop.
	if _, ok := analyticFastPath(h, []Task{a, {ComputeCycles: 1, Count: 3}}); ok {
		t.Fatal("fast path taken with a small run")
	}
}

func TestAppendRepeat(t *testing.T) {
	a := Task{ComputeCycles: 1, Count: 3}
	b := Task{ComputeCycles: 2, Tag: 1}
	if got := AppendRepeat(nil, []Task{a}, 4); len(got) != 1 || got[0].Count != 12 {
		t.Fatalf("single run x4 = %+v, want one run of 12", got)
	}
	got := AppendRepeat(nil, []Task{a, b}, 2)
	want := []Task{a, {ComputeCycles: 2, Tag: 1, Count: 1}, a, {ComputeCycles: 2, Tag: 1, Count: 1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("two runs x2 = %+v, want %+v", got, want)
	}
	// Equal neighbours across the append boundary merge.
	if got := AppendRepeat([]Task{{ComputeCycles: 1, Count: 2}}, []Task{a}, 1); len(got) != 1 || got[0].Count != 5 {
		t.Fatalf("merge across append = %+v", got)
	}
	if got := AppendRepeat(nil, []Task{a}, 0); len(got) != 0 {
		t.Fatalf("zero launches = %+v", got)
	}
	if Total(want) != 8 {
		t.Fatalf("Total = %d, want 8", Total(want))
	}
}
