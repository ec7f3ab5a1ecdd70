package sim

import (
	"math"
	"sort"

	"mikpoly/internal/hw"
)

const eps = 1e-9

// memEps is the residual-stream threshold in bytes below which a transfer
// counts as drained; absolute because bytes have a natural scale.
const memEps = 1e-3

// timeEps is the time-comparison tolerance at clock value now. It must be
// relative: an absolute epsilon is absorbed by float64 rounding once now
// reaches ~1e9 cycles, stalling event progress on long simulations.
func timeEps(now float64) float64 { return 1e-9 * (now + 1) }

// perTaskBandwidthCap returns the most global bandwidth a single task can
// consume: one PE's load/store unit cannot saturate HBM by itself, so a lone
// task is capped well below the device total (1/16th) but never below the
// fair share.
func perTaskBandwidthCap(h hw.Hardware) float64 {
	return math.Max(h.FairShareBandwidth(), h.GlobalBytesPerCycle/16)
}

// running tracks one in-flight task on a PE.
type running struct {
	task          Task
	pe            int
	start         float64 // dispatch time (for tracing)
	memStartAt    float64 // startup completes, streaming may begin
	computeDoneAt float64 // startup + compute fully elapsed
	memLeft       float64 // bytes still to stream
	faulted       bool    // injected fault: output must be discarded
}

func (r *running) done(now float64) bool {
	return now+timeEps(now) >= r.computeDoneAt && r.memLeft <= memEps
}

// Run executes the run-length task list on hardware h and returns the
// makespan and per-PE utilization. Placement follows h.Scheduler: GPUs hand
// each ready task to the first idle PE (hardware dynamic scheduling, so
// regions of a polymerized program overlap and tail waves shrink); NPUs
// pre-assign tasks with the max-min static allocation of §4 and each core
// drains its own list.
func Run(h hw.Hardware, tasks []Task) Result {
	if err := h.Validate(); err != nil {
		panic(err)
	}
	if len(tasks) == 0 {
		return Result{PEBusy: make([]float64, h.NumPEs)}
	}
	if res, ok := analyticFastPath(h, tasks); ok {
		return res
	}
	switch h.Scheduler {
	case hw.ScheduleStaticMaxMin:
		return runEventLoop(h, staticAssign(h, tasks, nil))
	default:
		return runEventLoop(h, dynamicQueue(tasks))
	}
}

// fastPathMinWaves gates the analytic path: only programs whose identical
// task runs each span many waves take it, where the boundary-wave
// approximation error is negligible.
const fastPathMinWaves = 64

// analyticFastPath computes the makespan of very large programs in closed
// form. For a run of identical tasks the event loop is exactly wave-lockstep
// — every wave of |P| tasks starts and finishes together with an equal
// bandwidth share — so the analytic result matches the event loop except at
// region boundaries, where the dynamic scheduler would overlap one partial
// wave with the next region's first wave (a ≤1/waves relative error at the
// gated sizes).
func analyticFastPath(h hw.Hardware, tasks []Task) (Result, bool) {
	total := Total(tasks)
	if total < fastPathMinWaves*h.NumPEs {
		return Result{}, false
	}
	// Merge neighbouring runs of identical tasks; every merged run must
	// itself be large.
	runs := make([]Task, 0, len(tasks))
	for _, t := range tasks {
		runs = appendRun(runs, t)
	}
	for _, r := range runs {
		if r.Count < fastPathMinWaves*h.NumPEs {
			return Result{}, false
		}
	}

	bwCap := perTaskBandwidthCap(h)
	duration := func(t Task, active int) float64 {
		share := math.Min(bwCap, h.GlobalBytesPerCycle/float64(active))
		return t.StartupCycles + math.Max(t.ComputeCycles, t.MemBytes/share)
	}
	var makespan, busy, streamed float64
	for _, r := range runs {
		streamed += float64(r.Count) * r.MemBytes
		full := r.Count / h.NumPEs
		rem := r.Count % h.NumPEs
		dFull := duration(r, h.NumPEs)
		makespan += float64(full) * dFull
		busy += float64(full*h.NumPEs) * dFull
		if rem > 0 {
			dRem := duration(r, rem)
			makespan += dRem
			busy += float64(rem) * dRem
		}
	}
	peBusy := make([]float64, h.NumPEs)
	for i := range peBusy {
		peBusy[i] = busy / float64(h.NumPEs)
	}
	return Result{Cycles: makespan, BusyPECycles: busy, NumTasks: total, MemBytesStreamed: streamed, PEBusy: peBusy}, true
}

// feeder abstracts task placement: next returns the task a freed PE should
// run, or false when that PE has no more work. drain discards work only the
// given PE could ever run (a statically assigned list when the PE dies
// mid-run), returning the count; abandon discards everything left, for the
// degenerate case where no live PE remains.
type feeder interface {
	next(pe int) (Task, bool)
	remaining() int
	drain(pe int) int
	abandon() int
}

// dynQueue models the GPU hardware scheduler: a single FIFO shared by all
// PEs, handing out the runs' tasks in list order.
type dynQueue struct {
	runs []Task
	head int // current run
	used int // tasks of runs[head] already handed out
	left int
}

func dynamicQueue(tasks []Task) *dynQueue { return &dynQueue{runs: tasks, left: Total(tasks)} }

func (q *dynQueue) next(pe int) (Task, bool) {
	if q.left == 0 {
		return Task{}, false
	}
	t := q.runs[q.head]
	if q.used++; q.used == t.N() {
		q.head, q.used = q.head+1, 0
	}
	q.left--
	return t, true
}

func (q *dynQueue) remaining() int { return q.left }

// drain is a no-op for the shared queue: any surviving PE can run the work.
func (q *dynQueue) drain(pe int) int { return 0 }

func (q *dynQueue) abandon() int {
	n := q.left
	q.head, q.used, q.left = len(q.runs), 0, 0
	return n
}

// staticFeeder holds the per-PE run lists computed by the max-min allocator.
type staticFeeder struct {
	perPE [][]Task
	left  int
}

func (f *staticFeeder) next(pe int) (Task, bool) {
	l := f.perPE[pe]
	if len(l) == 0 {
		return Task{}, false
	}
	t := l[0]
	if l[0].Count--; l[0].Count == 0 {
		f.perPE[pe] = l[1:]
	}
	f.left--
	return t, true
}

func (f *staticFeeder) remaining() int { return f.left }

func (f *staticFeeder) drain(pe int) int {
	n := Total(f.perPE[pe])
	f.perPE[pe] = nil
	f.left -= n
	return n
}

func (f *staticFeeder) abandon() int {
	n := 0
	for pe := range f.perPE {
		n += f.drain(pe)
	}
	return n
}

// staticAssign implements the max-min static allocation used on the NPU
// platform (§4): tasks are ordered by decreasing estimated duration (with the
// fair-share bandwidth) and each is placed on the currently least-loaded
// core, maximizing the minimum slack — classic LPT scheduling. dead marks PEs
// excluded from placement (fault injection); nil means all PEs are live.
func staticAssign(h hw.Hardware, tasks []Task, dead []bool) *staticFeeder {
	// Sorting the runs stably orders their tasks exactly as a stable sort
	// of the written-out list would: a run's tasks share one cost.
	type est struct {
		idx  int
		cost float64
	}
	ests := make([]est, len(tasks))
	bw := h.FairShareBandwidth()
	for i, t := range tasks {
		ests[i] = est{idx: i, cost: PipelinedTaskCycles(t, bw)}
	}
	sort.SliceStable(ests, func(a, b int) bool { return ests[a].cost > ests[b].cost })

	live := make([]int, 0, h.NumPEs)
	for pe := 0; pe < h.NumPEs; pe++ {
		if dead == nil || !dead[pe] {
			live = append(live, pe)
		}
	}
	if len(live) == 0 {
		panic("sim: static assignment with no live PEs")
	}
	load := make([]float64, h.NumPEs)
	perPE := make([][]Task, h.NumPEs)
	total := 0
	for _, e := range ests {
		t := tasks[e.idx]
		n := t.N()
		total += n
		t.Count = 1
		for i := 0; i < n; i++ {
			best := live[0]
			for _, pe := range live[1:] {
				if load[pe] < load[best]-eps {
					best = pe
				}
			}
			load[best] += e.cost
			perPE[best] = appendRun(perPE[best], t)
		}
	}
	return &staticFeeder{perPE: perPE, left: total}
}

// runEventLoop is the event-driven core without tracing.
func runEventLoop(h hw.Hardware, f feeder) Result {
	return runEventLoopInner(h, f, nil, nil)
}

// runEventLoopInner is the event-driven core. At every event boundary it
// recomputes the equal bandwidth share among streaming tasks (capped per
// task), advances streaming progress, retires finished tasks (reporting them
// to collect when tracing), and starts new ones on idle PEs. fs, when
// non-nil, injects deterministic hardware faults (dead PEs, per-PE compute
// slowdown, mid-run PE death, brownout windows, transient and sticky task
// faults); run-long bandwidth degradation is applied by the caller through h.
func runEventLoopInner(h hw.Hardware, f feeder, collect func(TraceEvent), fs *faultState) Result {
	var (
		now      float64
		active   []*running
		peBusy   = make([]float64, h.NumPEs)
		peFree   = make([]bool, h.NumPEs)
		nTasks   int
		faulted  int
		streamed float64
	)
	for i := range peFree {
		peFree[i] = fs == nil || !fs.dead[i]
	}

	start := func(pe int, t Task) {
		compute := t.ComputeCycles
		fault := false
		if fs != nil {
			compute *= fs.slow[pe]
			if fs.sticky[pe] > 0 {
				fs.sticky[pe]--
				fault = true
			} else if fs.taskFault(nTasks) {
				fault = true
			}
		}
		nTasks++
		streamed += t.MemBytes
		active = append(active, &running{
			task:          t,
			pe:            pe,
			start:         now,
			memStartAt:    now + t.StartupCycles,
			computeDoneAt: now + t.StartupCycles + compute,
			memLeft:       t.MemBytes,
			faulted:       fault,
		})
		peFree[pe] = false
		peBusy[pe] -= now // completed at retire time below
	}

	retire := func(r *running) {
		peBusy[r.pe] += now
		if r.faulted {
			faulted++
			if fs != nil {
				fs.peFaults[r.pe]++
			}
		}
		if collect != nil {
			collect(TraceEvent{PE: r.pe, Tag: r.task.Tag, Start: r.start, End: now})
		}
	}

	for {
		// Retire finished tasks.
		keep := active[:0]
		for _, r := range active {
			if r.done(now) {
				peFree[r.pe] = true
				retire(r)
			} else {
				keep = append(keep, r)
			}
		}
		active = keep

		// Process PE deaths due by now: the in-flight task (if any) is
		// lost, the PE accepts no further work, and statically assigned
		// residual work strands. Runs after retirement so a task finishing
		// exactly at the death cycle still completes.
		if fs != nil {
			for pe := 0; pe < h.NumPEs; pe++ {
				if fs.dead[pe] || now+timeEps(now) < fs.deathAt[pe] {
					continue
				}
				fs.dead[pe] = true
				fs.diedMid[pe] = true
				peFree[pe] = false
				keep := active[:0]
				for _, r := range active {
					if r.pe == pe {
						r.faulted = true
						retire(r)
					} else {
						keep = append(keep, r)
					}
				}
				active = keep
				fs.stranded += f.drain(pe)
			}
		}

		// Fill idle PEs.
		for pe := 0; pe < h.NumPEs; pe++ {
			if !peFree[pe] {
				continue
			}
			t, ok := f.next(pe)
			if !ok {
				continue
			}
			start(pe, t)
		}

		if len(active) == 0 {
			if f.remaining() == 0 {
				break
			}
			// Remaining work with nothing runnable: either every PE died
			// mid-run (the shared queue's leftovers strand), or the
			// static feeder misassigned — the latter cannot happen, so
			// any free PE here means a bug.
			for pe := 0; pe < h.NumPEs; pe++ {
				if peFree[pe] {
					panic("sim: no runnable tasks but work remains")
				}
			}
			if fs == nil {
				panic("sim: no runnable tasks but work remains")
			}
			fs.stranded += f.abandon()
			break
		}

		// Current bandwidth: the caller-scaled device total, derated by an
		// active brownout window, shared equally among streaming tasks and
		// capped per task.
		hNow := h
		if fs != nil {
			hNow.GlobalBytesPerCycle *= fs.bwFactor(now)
		}
		bwCap := perTaskBandwidthCap(hNow)
		tEps := timeEps(now)
		streaming := 0
		for _, r := range active {
			if now+tEps >= r.memStartAt && r.memLeft > memEps {
				streaming++
			}
		}
		share := bwCap
		if streaming > 0 {
			share = math.Min(bwCap, hNow.GlobalBytesPerCycle/float64(streaming))
		}

		// Next event: a startup completing, a compute finishing, a stream
		// draining, a PE death killing an in-flight task, or a brownout
		// boundary changing the bandwidth share. Streaming steps never
		// cross any of these boundaries.
		next := math.Inf(1)
		for _, r := range active {
			if r.memStartAt > now+tEps {
				next = math.Min(next, r.memStartAt)
			} else if r.memLeft > memEps {
				next = math.Min(next, now+r.memLeft/share)
			}
			if r.computeDoneAt > now+tEps {
				next = math.Min(next, r.computeDoneAt)
			}
			if fs != nil && !math.IsInf(fs.deathAt[r.pe], 1) && fs.deathAt[r.pe] > now+tEps {
				next = math.Min(next, fs.deathAt[r.pe])
			}
		}
		if fs != nil && fs.brown != nil {
			for _, b := range []float64{fs.brown.StartCycle, fs.brown.StartCycle + fs.brown.Duration} {
				if b > now+tEps {
					next = math.Min(next, b)
				}
			}
		}
		if math.IsInf(next, 1) {
			// Every active task is already finishable; loop retires them.
			continue
		}
		if next < now+tEps {
			// Force progress past float rounding.
			next = now + tEps
		}

		// Advance streaming progress to the event time.
		dt := next - now
		for _, r := range active {
			if now+tEps >= r.memStartAt && r.memLeft > memEps {
				r.memLeft = math.Max(0, r.memLeft-share*dt)
			}
		}
		now = next
	}

	var busy float64
	for _, b := range peBusy {
		busy += b
	}
	res := Result{Cycles: now, BusyPECycles: busy, NumTasks: nTasks, FaultedTasks: faulted, MemBytesStreamed: streamed, PEBusy: peBusy}
	if fs != nil {
		res.StrandedTasks = fs.stranded
		res.DeadPEs = fs.deadPEs()
		for _, n := range fs.peFaults {
			if n > 0 {
				res.PEFaults = append([]int(nil), fs.peFaults...)
				break
			}
		}
		if fs.brown != nil && fs.brown.StartCycle < now {
			res.BandwidthDerate = fs.brown.Factor
		}
	}
	return res
}

// TransferCycles returns the M_global cycles needed to stream n bytes at
// the device's full aggregate bandwidth — the cost model for KV page-copy
// (copy-on-write) and spill traffic charged by the serving scheduler.
func TransferCycles(h hw.Hardware, bytes float64) float64 {
	if bytes <= 0 {
		return 0
	}
	return bytes / h.GlobalBytesPerCycle
}
