package graphrt

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"mikpoly/internal/core"
	"mikpoly/internal/health"
	"mikpoly/internal/hw"
	"mikpoly/internal/nn"
	"mikpoly/internal/tune"
)

// parityRuntime builds a runtime over its own compiler and health registry.
// perOp injects the compiler planner through the planFn seam, which is never
// bypassed, so every op takes the per-op planning path — the reference the
// inline cache-hit path must book identically to. One pipeline worker keeps
// the compiler's hit/miss split deterministic when a graph repeats a shape.
func parityRuntime(t *testing.T, ahead int, perOp bool) (*Runtime, *health.Registry) {
	t.Helper()
	lib, err := core.SharedLibrary(hw.A100(), tune.Options{NGen: 6, NSyn: 9, NMik: 10, NPred: 256})
	if err != nil {
		t.Fatal(err)
	}
	reg := health.NewRegistry(hw.A100().NumPEs, health.Config{})
	rt := New(core.NewCompilerFromLibrary(lib), Config{
		PlanAhead: ahead, Workers: 1, PlanTimeout: 2 * time.Second, Health: reg,
	})
	if perOp {
		rt.planFn = rt.planCompiler
	}
	return rt, reg
}

// TestInlineHitCounterParity runs one graph cold, then warm, through the
// inline cache-hit path and through the per-op path, sequentially and with
// the plan-ahead pipeline, and requires the same compiler hits and misses,
// traffic-tracker order, Plans, Degraded, health counters and cycles. Stalls
// match exactly in sequential mode, where every plan is one. With the
// pipeline a stall depends on goroutine timing: the per-op path may count
// any number of its warm tickets, while inline hits never wait.
func TestInlineHitCounterParity(t *testing.T) {
	g := nn.Llama2Decode(2, 128) // 160 GEMMs over 4 distinct shapes
	for _, ahead := range []int{0, 2} {
		inline, inlineReg := parityRuntime(t, ahead, false)
		perOp, perOpReg := parityRuntime(t, ahead, true)
		for _, phase := range []string{"cold", "warm"} {
			got, err := inline.Execute(context.Background(), g)
			if err != nil {
				t.Fatal(err)
			}
			want, err := perOp.Execute(context.Background(), g)
			if err != nil {
				t.Fatal(err)
			}
			at := fmt.Sprintf("%s run, PlanAhead %d", phase, ahead)
			if got.Plans != want.Plans || got.Degraded != want.Degraded || got.Cycles != want.Cycles {
				t.Errorf("%s: plans %d degraded %d cycles %g, per-op %d %d %g", at,
					got.Plans, got.Degraded, got.Cycles, want.Plans, want.Degraded, want.Cycles)
			}
			switch {
			case ahead == 0 && got.Stalls != want.Stalls:
				t.Errorf("%s: %d stalls, per-op %d", at, got.Stalls, want.Stalls)
			case ahead > 0 && phase == "warm" && got.Stalls != 0:
				t.Errorf("%s: %d stalls on cached programs", at, got.Stalls)
			}
			checkWallInvariants(t, got)
			if gs, ws := inline.comp.CacheStats(), perOp.comp.CacheStats(); gs.Hits != ws.Hits || gs.Misses != ws.Misses {
				t.Errorf("%s: cache hits/misses %d/%d, per-op %d/%d", at, gs.Hits, gs.Misses, ws.Hits, ws.Misses)
			}
			if gp, wp := inline.comp.PlanCache(), perOp.comp.PlanCache(); gp.Observations != wp.Observations ||
				gp.TrackedShapes != wp.TrackedShapes {
				t.Errorf("%s: tracker %+v, per-op %+v", at, gp, wp)
			}
			if gh, wh := inline.comp.HotShapes(16), perOp.comp.HotShapes(16); !reflect.DeepEqual(gh, wh) {
				t.Errorf("%s: hot shapes %v, per-op %v", at, gh, wh)
			}
			if gs, ws := inlineReg.Stats(), perOpReg.Stats(); gs != ws {
				t.Errorf("%s: health stats %+v, per-op %+v", at, gs, ws)
			}
		}
	}
}
