package graphrt

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"mikpoly/internal/health"
	"mikpoly/internal/hw"
	"mikpoly/internal/nn"
	"mikpoly/internal/poly"
	"mikpoly/internal/sim"
	"mikpoly/internal/tensor"
)

// TestStageMemoKeysOnKernels: the plan-timeout fallback and an optimized
// Pattern-I plan of one shape agree on shape, pattern, region count and task
// count while using different kernels. The stage memo must tell them apart:
// the optimized run is simulated afresh instead of replaying the fallback's
// cycles.
func TestStageMemoKeysOnKernels(t *testing.T) {
	rt := testRuntime(t, Config{})
	shape := tensor.GemmShape{M: 64, N: 294, K: 4096}
	fb, err := poly.FallbackProgram(rt.comp.Library(), shape)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := rt.comp.Plan(shape)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Pattern != fb.Pattern || len(opt.Regions) != 1 || len(fb.Regions) != 1 ||
		opt.NumTasks() != fb.NumTasks() || opt.Regions[0].Kern == fb.Regions[0].Kern {
		t.Fatalf("shape no longer pairs look-alike programs:\n%v\n%v", fb, opt)
	}
	calls := 0
	rt.SetSimulator(func(h hw.Hardware, _ health.View, tasks []sim.Task, _ uint64) sim.Result {
		calls++
		return sim.Run(h, tasks)
	})
	g := nn.Graph{Name: "one", Ops: []nn.Op{{Name: "gemm", Kind: nn.OpGemm, Gemm: shape, Count: 1}}}
	var cycles []float64
	for i, prog := range []*poly.Program{fb, opt} {
		rt.planFn = func(context.Context, tensor.GemmShape) (*poly.Program, bool, error) {
			return prog, prog == fb, nil
		}
		rep, err := rt.Execute(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		if calls != i+1 {
			t.Fatalf("run %d: %d simulator calls, want %d (memo replayed a look-alike program)", i, calls, i+1)
		}
		if want := prog.Simulate(rt.Hardware()).Cycles; rep.GemmCycles != want {
			t.Fatalf("run %d: %g cycles, want %g", i, rep.GemmCycles, want)
		}
		cycles = append(cycles, rep.GemmCycles)
	}
	if cycles[0] == cycles[1] {
		t.Fatalf("fallback and optimized programs cost the same %g cycles", cycles[0])
	}
}

// TestMemoHitAllocsIndependentOfTiles: a memo-hit execution of a Llama
// decode step never lowers its programs, so its allocations do not grow with
// the programs' tile counts or the ops' instance counts.
func TestMemoHitAllocsIndependentOfTiles(t *testing.T) {
	rt := testRuntime(t, Config{})
	counted := func(g nn.Graph, count int) nn.Graph {
		g.Ops = append([]nn.Op(nil), g.Ops...)
		for i := range g.Ops {
			if g.Ops[i].Kind != nn.OpOther {
				g.Ops[i].Count = count
			}
		}
		return g
	}
	base := nn.Llama2Decode(1, 128)
	graphs := map[string]nn.Graph{
		"b1":         base,
		"b8":         nn.Llama2Decode(8, 128),
		"b64":        nn.Llama2Decode(64, 128),
		"b1 count16": counted(base, 16),
	}
	allocs := map[string]float64{}
	for name, g := range graphs {
		if _, err := rt.Execute(context.Background(), g); err != nil {
			t.Fatal(err)
		}
		allocs[name] = testing.AllocsPerRun(20, func() {
			if _, err := rt.Execute(context.Background(), g); err != nil {
				t.Fatal(err)
			}
		})
	}
	t.Logf("allocs per memo-hit execute: %v", allocs)
	for name, n := range allocs {
		if n != allocs["b1"] {
			t.Fatalf("%s: %g allocs per memo-hit execute, b1: %g", name, n, allocs["b1"])
		}
	}
}

// doneCounter counts calls to Done. Deriving a context from it —
// context.WithCancel for the plan-ahead pipeline, context.WithTimeout for a
// per-op plan deadline — calls its Done to wire up cancellation, and the
// pipeline's goroutines start only under such a derived context, so an
// execution that never calls Done derived no context and started no
// goroutine.
type doneCounter struct {
	context.Context
	n atomic.Int64
}

func (c *doneCounter) Done() <-chan struct{} {
	c.n.Add(1)
	return c.Context.Done()
}

// TestCachedDecodeStepIsCheap: once every program of a Llama decode step is
// cached and every stage memoized, an execution allocates at most 32 times,
// derives no context and starts no goroutine — both sequentially and under
// the serving layer's configuration (plan-ahead 2, a 2 s plan deadline and a
// health registry).
func TestCachedDecodeStepIsCheap(t *testing.T) {
	configs := map[string]func() Config{
		"zero": func() Config { return Config{} },
		"serve": func() Config {
			return Config{PlanAhead: 2, PlanTimeout: 2 * time.Second,
				Health: health.NewRegistry(hw.A100().NumPEs, health.Config{})}
		},
	}
	for name, cfg := range configs {
		rt := testRuntime(t, cfg())
		g := nn.Llama2Decode(8, 256)
		if _, err := rt.Execute(context.Background(), g); err != nil {
			t.Fatal(err)
		}
		ctx := &doneCounter{Context: context.Background()}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := rt.Execute(ctx, g); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 32 {
			t.Errorf("%s: %g allocs per cached decode step, want <= 32", name, allocs)
		}
		if n := ctx.n.Load(); n != 0 {
			t.Errorf("%s: cached decode step derived contexts (%d Done calls): a pipeline or plan deadline was set up", name, n)
		}
	}
}
