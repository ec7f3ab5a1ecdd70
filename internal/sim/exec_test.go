package sim

import (
	"reflect"
	"testing"

	"mikpoly/internal/hw"
)

func execTasks() []Task {
	return []Task{
		{ComputeCycles: 900, MemBytes: 40_000, StartupCycles: 30, Count: 17},
		{ComputeCycles: 400, MemBytes: 90_000, StartupCycles: 30, Tag: 1, Count: 9},
	}
}

func mustFaults(t *testing.T, h hw.Hardware, tasks []Task, f Faults) Result {
	t.Helper()
	res, err := RunWithFaults(h, tasks, f)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestExecuteHealthy: an environment injecting nothing is a plain Run, fast
// path included.
func TestExecuteHealthy(t *testing.T) {
	for _, h := range []hw.Hardware{smallHW(hw.ScheduleDynamic, 4), hw.A100(), hw.Ascend910()} {
		for _, tasks := range [][]Task{execTasks(), {{ComputeCycles: 100, MemBytes: 10, Count: 64 * h.NumPEs}}} {
			if got, want := Execute(h, tasks, Env{}), Run(h, tasks); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Execute %+v, Run %+v", h.Name, got, want)
			}
		}
	}
}

// TestExecuteFaultsSalted: a configured fault schedule runs through
// RunWithFaults with the attempt's salt added to the configured one, so
// retries draw fresh transient faults.
func TestExecuteFaultsSalted(t *testing.T) {
	h := smallHW(hw.ScheduleDynamic, 4)
	f := Faults{Seed: 9, Salt: 2, TaskFaultRate: 0.3}
	want := f
	want.Salt = 7
	got := Execute(h, execTasks(), Env{Faults: &f, BasePEs: 4, Salt: 5})
	if !reflect.DeepEqual(got, mustFaults(t, h, execTasks(), want)) {
		t.Fatalf("salted run differs: %+v", got)
	}
	if got.FaultedTasks == 0 {
		t.Fatal("no transient faults at rate 0.3")
	}
	if f.Salt != 2 {
		t.Fatalf("Execute mutated the caller's config: salt %d", f.Salt)
	}
	// An empty config still takes the exact (fault-aware) path.
	empty := Faults{}
	if got := Execute(h, execTasks(), Env{Faults: &empty}); !reflect.DeepEqual(got, mustFaults(t, h, execTasks(), empty)) {
		t.Fatalf("empty config: %+v", got)
	}
}

// TestExecuteRemapsOntoSurvivors: per-PE fault entries in base ids follow
// their PEs onto the survivor numbering of the shrunken hardware, and
// entries on quarantined PEs die with them.
func TestExecuteRemapsOntoSurvivors(t *testing.T) {
	base := Faults{
		DropPEs:      []int{1, 4},
		SlowPE:       map[int]float64{1: 3, 5: 2},
		StickyFaults: map[int]int{0: 2, 1: 9},
		PEDeathCycle: map[int]float64{1: 10},
	}
	h := smallHW(hw.ScheduleStaticMaxMin, 5) // base 6 PEs, PE 1 quarantined
	got := Execute(h, execTasks(), Env{Faults: &base, BasePEs: 6, Quarantined: []int{1}})
	want := mustFaults(t, h, execTasks(), Faults{
		DropPEs:      []int{3},
		SlowPE:       map[int]float64{4: 2},
		StickyFaults: map[int]int{0: 2},
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("remapped run differs:\n got %+v\nwant %+v", got, want)
	}
	if r := base.Remap(6, nil); !reflect.DeepEqual(r, base) {
		t.Fatalf("Remap without quarantine changed the config: %+v", r)
	}
}

// TestExecuteInvalidFaultsRunHealthy: a fault config the device rejects
// degrades to the healthy run instead of failing the operation.
func TestExecuteInvalidFaultsRunHealthy(t *testing.T) {
	h := smallHW(hw.ScheduleDynamic, 4)
	bad := Faults{TaskFaultRate: 2, DropPEs: []int{9}}
	if got, want := Execute(h, execTasks(), Env{Faults: &bad, BasePEs: 4}), Run(h, execTasks()); !reflect.DeepEqual(got, want) {
		t.Fatalf("invalid config: %+v, want healthy %+v", got, want)
	}
}

// TestExecuteDeviceBrownout: an op inside the device's brownout window runs
// under a whole-run brownout; ops outside it run healthy; a PE-level
// brownout in the fault config takes precedence.
func TestExecuteDeviceBrownout(t *testing.T) {
	h := smallHW(hw.ScheduleDynamic, 4)
	dev := DeviceFaults{BrownoutFromOp: 2, BrownoutToOp: 4, BrownoutFactor: 0.5}
	whole := mustFaults(t, h, execTasks(), Faults{Brownout: &Brownout{Duration: BrownoutAllRun, Factor: 0.5}})
	for op, want := range map[int64]Result{1: Run(h, execTasks()), 2: whole, 3: whole, 4: Run(h, execTasks())} {
		if got := Execute(h, execTasks(), Env{Device: dev, Op: op}); !reflect.DeepEqual(got, want) {
			t.Fatalf("op %d: %+v, want %+v", op, got, want)
		}
	}
	if whole.Cycles <= Run(h, execTasks()).Cycles {
		t.Fatal("brownout did not slow the run")
	}

	own := Faults{Brownout: &Brownout{StartCycle: 100, Duration: 500, Factor: 0.9}}
	got := Execute(h, execTasks(), Env{Faults: &own, Device: dev, Op: 2})
	if !reflect.DeepEqual(got, mustFaults(t, h, execTasks(), own)) {
		t.Fatalf("PE-level brownout overridden: %+v", got)
	}
	if own.Brownout.Factor != 0.9 {
		t.Fatal("Execute mutated the caller's brownout")
	}
}

// TestExecuteDeviceSlowdown: a slow replica stretches the makespan and every
// busy counter by its factor, on healthy and faulted runs alike.
func TestExecuteDeviceSlowdown(t *testing.T) {
	h := smallHW(hw.ScheduleDynamic, 4)
	f := Faults{Seed: 1, TaskFaultRate: 0.2}
	for _, env := range []Env{{}, {Faults: &f, BasePEs: 4}} {
		plain := Execute(h, execTasks(), env)
		env.Device = DeviceFaults{SlowFactor: 2.5}
		slow := Execute(h, execTasks(), env)
		if slow.Cycles != plain.Cycles*2.5 || slow.BusyPECycles != plain.BusyPECycles*2.5 {
			t.Fatalf("slowdown: %g/%g cycles, %g/%g busy", slow.Cycles, plain.Cycles, slow.BusyPECycles, plain.BusyPECycles)
		}
		for i := range plain.PEBusy {
			if slow.PEBusy[i] != plain.PEBusy[i]*2.5 {
				t.Fatalf("PE %d busy %g, want %g", i, slow.PEBusy[i], plain.PEBusy[i]*2.5)
			}
		}
		if slow.FaultedTasks != plain.FaultedTasks || slow.NumTasks != plain.NumTasks {
			t.Fatal("slowdown changed the fault outcome")
		}
	}
}
