package health

import (
	"math/rand"
	"reflect"
	"testing"

	"mikpoly/internal/sim"
)

// refRegistry is the registry's observation logic as it stood before clean
// stages skipped the per-PE walk: every observation walks every PE of the
// result. The fast path must leave the real registry in exactly the state
// this reference reaches.
type refRegistry struct {
	n                 int
	cfg               Config
	streak            []int
	quarantined       []bool
	nQuar             int
	bwStreak, bwClear int
	bwFactor, bwSeen  float64
	gen               uint64
	stats             Stats
}

func newRef(n int, cfg Config) *refRegistry {
	return &refRegistry{n: n, cfg: cfg.withDefaults(), streak: make([]int, n),
		quarantined: make([]bool, n), bwFactor: 1}
}

func (r *refRegistry) survivors(v View) []int {
	if len(v.Quarantined) == 0 {
		return nil
	}
	quar := make(map[int]bool)
	for _, pe := range v.Quarantined {
		quar[pe] = true
	}
	var out []int
	for pe := 0; pe < r.n; pe++ {
		if !quar[pe] {
			out = append(out, pe)
		}
	}
	return out
}

func (r *refRegistry) quarantine(base int) bool {
	if r.quarantined[base] || r.nQuar >= r.n-1 {
		return false
	}
	r.quarantined[base] = true
	r.nQuar++
	r.stats.Quarantines++
	return true
}

func (r *refRegistry) observe(v View, res sim.Result) Classification {
	r.stats.Observations++
	survivors := r.survivors(v)
	changed, persistent := false, false
	for _, pe := range res.DeadPEs {
		base, ok := mapPE(survivors, pe)
		if !ok {
			continue
		}
		persistent = true
		if r.quarantine(base) {
			changed = true
		}
	}
	faulty := 0
	for _, n := range res.PEFaults {
		if n > 0 {
			faulty++
		}
	}
	concentrated := faulty > 0 && faulty <= maxInt(1, (r.n-r.nQuar)/4)
	nPE := len(res.PEBusy)
	if len(res.PEFaults) > nPE {
		nPE = len(res.PEFaults)
	}
	for pe := 0; pe < nPE; pe++ {
		base, ok := mapPE(survivors, pe)
		if !ok || r.quarantined[base] {
			continue
		}
		nFaults := 0
		if pe < len(res.PEFaults) {
			nFaults = res.PEFaults[pe]
		}
		switch {
		case nFaults == 0:
			if pe < len(res.PEBusy) && res.PEBusy[pe] > 0 {
				r.streak[base] = 0
			}
		case concentrated:
			r.streak[base]++
			if r.streak[base] >= r.cfg.StreakThreshold {
				persistent = true
				if r.quarantine(base) {
					changed = true
				}
			}
		}
	}
	if res.BandwidthDerate > 0 && res.BandwidthDerate < 1 {
		r.bwStreak++
		r.bwClear = 0
		r.bwSeen = res.BandwidthDerate
		if r.bwStreak >= r.cfg.BandwidthStreak && r.bwFactor != r.bwSeen {
			r.bwFactor = r.bwSeen
			r.stats.BWAdoptions++
			persistent, changed = true, true
		}
	} else {
		r.bwClear++
		r.bwStreak = 0
		if r.bwClear >= r.cfg.BandwidthStreak && r.bwFactor != 1 {
			r.bwFactor = 1
			changed = true
		}
	}
	if changed {
		r.gen++
		r.stats.Generation = r.gen
	}
	switch {
	case persistent:
		r.stats.Persistents++
		return Persistent
	case !res.Clean():
		r.stats.Transients++
		return Transient
	default:
		return Healthy
	}
}

func (r *refRegistry) view() View {
	v := View{NumPEs: r.n, BandwidthFactor: r.bwFactor, Generation: r.gen}
	for pe, q := range r.quarantined {
		if q {
			v.Quarantined = append(v.Quarantined, pe)
		}
	}
	return v
}

func (r *refRegistry) reset() {
	for i := range r.streak {
		r.streak[i] = 0
		r.quarantined[i] = false
	}
	if r.nQuar > 0 || r.bwFactor != 1 {
		r.gen++
		r.stats.Generation = r.gen
	}
	r.nQuar = 0
	r.bwStreak, r.bwClear = 0, 0
	r.bwFactor, r.bwSeen = 1, 0
}

// randomResult draws one stage outcome over the live PEs of view v: mostly
// clean, sometimes faults concentrated on one or two PEs, sometimes a storm,
// now and then a death or a bandwidth derate.
func randomResult(rng *rand.Rand, v View) sim.Result {
	live := v.NumPEs - len(v.Quarantined)
	res := sim.Result{NumTasks: live, PEBusy: make([]float64, live)}
	for i := range res.PEBusy {
		if rng.Intn(8) != 0 { // some PEs sit idle
			res.PEBusy[i] = 100
		}
	}
	switch k := rng.Intn(10); {
	case k < 5: // clean
	case k < 8: // concentrated on one or two PEs
		res.PEFaults = make([]int, live)
		for j := 0; j < 1+rng.Intn(2); j++ {
			res.PEFaults[rng.Intn(live)]++
			res.FaultedTasks++
		}
	case k < 9: // storm over many PEs
		res.PEFaults = make([]int, live)
		for pe := range res.PEFaults {
			if rng.Intn(2) == 0 {
				res.PEFaults[pe]++
				res.FaultedTasks++
			}
		}
	default: // a death
		res.DeadPEs = []int{rng.Intn(live)}
		res.FaultedTasks++
	}
	if rng.Intn(6) == 0 {
		res.BandwidthDerate = []float64{0.5, 0.75}[rng.Intn(2)]
	}
	return res
}

// TestObserveFastPathMatchesPerPEWalk drives the registry and the
// walk-every-PE reference through identical faulted-then-clean sequences —
// streaks opened, cleared and crossing the threshold, quarantines, stale
// views, derates and resets — and requires identical classifications,
// counters, views and per-PE state after every observation.
func TestObserveFastPathMatchesPerPEWalk(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const n = 16
		reg := NewRegistry(n, Config{StreakThreshold: 2 + int(seed%3)})
		ref := newRef(n, Config{StreakThreshold: 2 + int(seed%3)})
		stale := reg.View()
		for step := 0; step < 400; step++ {
			v := reg.View()
			if rv := ref.view(); !reflect.DeepEqual(v, rv) {
				t.Fatalf("seed %d step %d: view %+v, reference %+v", seed, step, v, rv)
			}
			if rng.Intn(10) == 0 {
				v = stale // a stage that ran under an older view
			}
			stale = reg.View()
			if rng.Intn(100) == 0 {
				reg.Reset()
				ref.reset()
				continue
			}
			// Long clean runs after faults exercise the fast path with
			// and without open streaks.
			res := randomResult(rng, v)
			if step%50 >= 25 {
				res = sim.Result{NumTasks: len(res.PEBusy), PEBusy: res.PEBusy}
			}
			if got, want := reg.ObserveResult(v, res), ref.observe(v, res); got != want {
				t.Fatalf("seed %d step %d: classified %v, reference %v", seed, step, got, want)
			}
			if got, want := reg.Stats(), ref.stats; got.Quarantined != ref.nQuar ||
				got.Observations != want.Observations || got.Transients != want.Transients ||
				got.Persistents != want.Persistents || got.Quarantines != want.Quarantines ||
				got.BWAdoptions != want.BWAdoptions || got.Generation != want.Generation {
				t.Fatalf("seed %d step %d: stats %+v, reference %+v (quarantined %d)", seed, step, got, want, ref.nQuar)
			}
			if !reflect.DeepEqual(reg.streak, ref.streak) || !reflect.DeepEqual(reg.quarantined, ref.quarantined) ||
				reg.bwStreak != ref.bwStreak || reg.bwClear != ref.bwClear ||
				reg.bwFactor != ref.bwFactor || reg.bwSeen != ref.bwSeen {
				t.Fatalf("seed %d step %d: per-PE state diverged:\nstreak %v\nref    %v", seed, step, reg.streak, ref.streak)
			}
			open := 0
			for pe, s := range reg.streak {
				if s > 0 && !reg.quarantined[pe] {
					open++
				}
			}
			if reg.open != open {
				t.Fatalf("seed %d step %d: open streak count %d, want %d", seed, step, reg.open, open)
			}
		}
	}
}

// TestViewSnapshotPerGeneration: views of one generation are one snapshot,
// and a generation bump rebuilds it.
func TestViewSnapshotPerGeneration(t *testing.T) {
	reg := NewRegistry(8, Config{StreakThreshold: 1})
	a, b := reg.View(), reg.View()
	if !reflect.DeepEqual(a, b) || a.Generation != 0 || !a.Healthy() {
		t.Fatalf("pristine views differ: %+v %+v", a, b)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = reg.View() }); allocs != 0 {
		t.Fatalf("View allocates %g per call within a generation", allocs)
	}
	reg.ObserveResult(a, res(8, 3))
	c := reg.View()
	if c.Generation != 1 || !reflect.DeepEqual(c.Quarantined, []int{3}) {
		t.Fatalf("view after quarantine: %+v", c)
	}
	if d := reg.View(); &d.Quarantined[0] != &c.Quarantined[0] {
		t.Fatal("views of one generation do not share their snapshot")
	}
	reg.Reset()
	if e := reg.View(); e.Generation != 2 || !e.Healthy() {
		t.Fatalf("view after reset: %+v", e)
	}
}
