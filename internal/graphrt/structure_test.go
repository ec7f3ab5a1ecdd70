package graphrt

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"mikpoly/internal/nn"
	"mikpoly/internal/obs"
	"mikpoly/internal/tensor"
)

// structGraph is a small graph exercising every field the structure key
// reads: GEMMs with default and explicit edges, and bandwidth-bound work.
func structGraph() nn.Graph {
	s := tensor.GemmShape{M: 64, N: 96, K: 128}
	return nn.Graph{Name: "structs", Ops: []nn.Op{
		{Name: "a", Kind: nn.OpGemm, Gemm: s, Count: 1},
		{Name: "b", Kind: nn.OpGemm, Gemm: s, Count: 1},
		{Name: "c", Kind: nn.OpOther, OtherBytes: 4096, Count: 1},
		{Name: "d", Kind: nn.OpGemm, Gemm: s, Count: 1, Inputs: []int{1}},
	}}
}

// cloneGraph deep-copies g so a variant's edits never reach the original.
func cloneGraph(g nn.Graph) nn.Graph {
	g.Ops = append([]nn.Op(nil), g.Ops...)
	for i := range g.Ops {
		if in := g.Ops[i].Inputs; in != nil {
			g.Ops[i].Inputs = append([]int{}, in...)
		}
	}
	return g
}

// wantStructure derives g's structure from scratch, bypassing the cache.
func wantStructure(t *testing.T, rt *Runtime, g nn.Graph) *structure {
	t.Helper()
	stages, err := g.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	return newStructure(stages, planMemory(g, stages, rt.h))
}

// TestStructureCacheKeysOnContent: graphs differing in one edge (nil vs
// explicit empty vs another index), a count, a traffic size or a dtype each
// get their own cached schedule and memory plan; a renamed copy reuses its
// original's; an invalid graph errors on every call and is never cached.
func TestStructureCacheKeysOnContent(t *testing.T) {
	rt := fastRuntime(t, Config{})
	ctx := context.Background()
	variants := map[string]func(*nn.Graph){
		"base":           func(*nn.Graph) {},
		"source edge":    func(g *nn.Graph) { g.Ops[1].Inputs = []int{} },
		"first op empty": func(g *nn.Graph) { g.Ops[0].Inputs = []int{} },
		"other edge":     func(g *nn.Graph) { g.Ops[3].Inputs = []int{0} },
		"default edge":   func(g *nn.Graph) { g.Ops[3].Inputs = nil },
		"count":          func(g *nn.Graph) { g.Ops[1].Count = 2 },
		"other bytes":    func(g *nn.Graph) { g.Ops[2].OtherBytes = 8192 },
		"dtype":          func(g *nn.Graph) { g.Ops[1].DType = "f16" },
	}
	seen := map[*structure]string{}
	for name, edit := range variants {
		g := cloneGraph(structGraph())
		edit(&g)
		st, err := rt.structureOf(ctx, g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if other, dup := seen[st]; dup {
			t.Fatalf("%s shares its cached structure with %s", name, other)
		}
		seen[st] = name
		if want := wantStructure(t, rt, g); !reflect.DeepEqual(st, want) {
			t.Fatalf("%s: cached structure %+v, derived %+v", name, st, want)
		}
		again, err := rt.structureOf(ctx, g)
		if err != nil || again != st {
			t.Fatalf("%s: second lookup returned %p (%v), want the cached %p", name, again, err, st)
		}
	}
	if len(rt.structs) != len(variants) {
		t.Fatalf("%d cached structures for %d distinct graphs", len(rt.structs), len(variants))
	}

	renamed := cloneGraph(structGraph())
	renamed.Name = "renamed"
	for i := range renamed.Ops {
		renamed.Ops[i].Name += "-copy"
	}
	base, _ := rt.structureOf(ctx, structGraph())
	if st, err := rt.structureOf(ctx, renamed); err != nil || st != base {
		t.Fatalf("renamed copy got %p (%v), want the original's %p", st, err, base)
	}

	cycle := cloneGraph(structGraph())
	cycle.Ops[0].Inputs = []int{3}
	outOfRange := cloneGraph(structGraph())
	outOfRange.Ops[3].Inputs = []int{7}
	cached := len(rt.structs)
	for name, g := range map[string]nn.Graph{"cycle": cycle, "out-of-range edge": outOfRange} {
		want := g.Validate()
		if want == nil {
			t.Fatalf("%s: graph validates", name)
		}
		for call := 0; call < 3; call++ {
			if _, err := rt.Execute(ctx, g); err == nil || err.Error() != want.Error() {
				t.Fatalf("%s call %d: err %v, want %v", name, call, err, want)
			}
		}
	}
	if len(rt.structs) != cached {
		t.Fatalf("invalid graphs were cached: %d structures, want %d", len(rt.structs), cached)
	}
}

// TestStructureCacheBounded: the cache never holds more than structCacheCap
// structures, and an evicted structure is derived again on its next use.
func TestStructureCacheBounded(t *testing.T) {
	rt := fastRuntime(t, Config{})
	ctx := context.Background()
	for n := 1; n <= 3*structCacheCap; n++ {
		g := cloneGraph(structGraph())
		g.Ops[0].Gemm.N = n
		rep, err := rt.Execute(ctx, g)
		if err != nil {
			t.Fatal(err)
		}
		if want := wantStructure(t, rt, g); rep.Stages != want.numStages() || rep.Mem != want.mem {
			t.Fatalf("n=%d: report stages %d mem %+v, want %d %+v", n, rep.Stages, rep.Mem, want.numStages(), want.mem)
		}
		if len(rt.structs) > structCacheCap {
			t.Fatalf("%d cached structures, cap %d", len(rt.structs), structCacheCap)
		}
	}
}

// TestExecuteSchedulesOncePerStructure: repeated executions of one graph
// structure — renamed or not — derive its schedule and memory plan once.
func TestExecuteSchedulesOncePerStructure(t *testing.T) {
	rt := fastRuntime(t, Config{})
	ctx := context.Background()
	g := nn.Llama2Decode(2, 128)
	first, err := rt.Execute(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	e := rt.structs[string(appendStructureKey(nil, g))]
	if e == nil {
		t.Fatal("executed graph's structure is not cached")
	}
	for i := 0; i < 3; i++ {
		h := cloneGraph(g)
		h.Name = "renamed"
		rep, err := rt.Execute(ctx, h)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Cycles != first.Cycles || rep.Mem != first.Mem || rep.Stages != first.Stages {
			t.Fatalf("replay %d diverged: %+v vs %+v", i, rep, first)
		}
	}
	if len(rt.structs) != 1 || rt.structs[string(appendStructureKey(nil, g))] != e {
		t.Fatalf("structure re-derived: %d entries", len(rt.structs))
	}
}

// TestStructureCacheEvictsLRU: a full cache evicts its least recently used
// structure, so a structure reused every execution survives any number of
// one-off structures passing through.
func TestStructureCacheEvictsLRU(t *testing.T) {
	rt := fastRuntime(t, Config{})
	ctx := context.Background()
	variant := func(n int) nn.Graph {
		g := cloneGraph(structGraph())
		g.Ops[0].Gemm.N = n
		return g
	}
	hot, err := rt.structureOf(ctx, variant(1))
	if err != nil {
		t.Fatal(err)
	}
	for n := 2; n <= 3*structCacheCap; n++ {
		if _, err := rt.structureOf(ctx, variant(n)); err != nil {
			t.Fatal(err)
		}
		if st, err := rt.structureOf(ctx, variant(1)); err != nil || st != hot {
			t.Fatalf("after %d one-off structures the hot one was evicted", n-1)
		}
	}
	// The oldest one-off went first: only the last cap-1 remain.
	for n := 2; n <= 3*structCacheCap; n++ {
		_, cached := rt.structs[string(appendStructureKey(nil, variant(n)))]
		if want := n > 2*structCacheCap+1; cached != want {
			t.Fatalf("structure %d cached %v, want %v", n, cached, want)
		}
	}
}

// TestStructureCacheConcurrent rotates more structures than the cache holds
// through one runtime from several goroutines at once (run with -race):
// every report must match the graph's sequential execution while entries are
// inserted and evicted underneath.
func TestStructureCacheConcurrent(t *testing.T) {
	const graphs = 2 * structCacheCap
	gs := make([]nn.Graph, graphs)
	want := make([]Report, graphs)
	ref := fastRuntime(t, Config{})
	for i := range gs {
		gs[i] = cloneGraph(structGraph())
		gs[i].Ops[0].Gemm.N = 32 + i
		var err error
		if want[i], err = ref.Execute(context.Background(), gs[i]); err != nil {
			t.Fatal(err)
		}
	}
	rt := fastRuntime(t, Config{PlanAhead: 2})
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < 3*graphs; k++ {
				i := (k*(w+1) + w) % graphs
				rep, err := rt.Execute(context.Background(), gs[i])
				if err == nil && (rep.Cycles != want[i].Cycles || rep.Mem != want[i].Mem || rep.Stages != want[i].Stages) {
					err = fmt.Errorf("graph %d: report %+v, sequential %+v", i, rep, want[i])
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestMemplanSpanOnStructureMiss: the memory plan's span nests under the
// execution's span and appears only on the execution that derives the
// structure; a warm execution emits none.
func TestMemplanSpanOnStructureMiss(t *testing.T) {
	o := obs.New(0)
	rt := fastRuntime(t, Config{Obs: o})
	g := structGraph()
	for run, want := range []int{1, 0} {
		o.T().Reset()
		if _, err := rt.Execute(context.Background(), g); err != nil {
			t.Fatal(err)
		}
		spans := o.T().Snapshot()
		var exec uint64
		for _, s := range spans {
			if s.Name == "graphrt.execute" {
				exec = s.ID
			}
		}
		memplans := 0
		for _, s := range spans {
			if s.Name != "graphrt.memplan" {
				continue
			}
			memplans++
			if s.Parent != exec || exec == 0 {
				t.Fatalf("run %d: memplan parent %d, execute span %d", run, s.Parent, exec)
			}
		}
		if memplans != want {
			t.Fatalf("run %d: %d memplan spans, want %d", run, memplans, want)
		}
	}
}
