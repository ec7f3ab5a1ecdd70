package graphrt

import (
	"context"
	"encoding/binary"
	"time"

	"mikpoly/internal/health"
	"mikpoly/internal/hw"
	"mikpoly/internal/nn"
	"mikpoly/internal/poly"
	"mikpoly/internal/sim"
	"mikpoly/internal/tensor"
)

// pipeline is one execution's asynchronous plan-ahead state: a ticket per op
// that must plan online (nil for the rest), filled by a bounded worker pool
// that runs at most PlanAhead ops past the executor's consumption point.
type pipeline struct {
	tickets []*ticket
	// ahead holds one token per dispatched-but-unconsumed plan; the
	// dispatcher acquires before handing a job to the pool, the executor
	// releases on consumption, bounding the lookahead to cap(ahead).
	ahead chan struct{}
	// stop cancels the pipeline's context, ending every goroutine.
	stop context.CancelFunc
}

// ticket is one op's plan, produced by the pipeline.
type ticket struct {
	done     chan struct{}
	prog     *poly.Program
	degraded bool
	err      error
	wall     time.Duration
}

// startPipeline launches the plan-ahead pipeline for the ops in `order` (the
// flattened stage schedule) that must plan online. Ops whose program the
// compiler already caches under fingerprint fp get no ticket: the executor
// resolves them inline (planOp). So do ops covered by a fusion plan: heads
// already hold their fused program and members never execute standalone, so
// a ticket would hold a lookahead token that is never released. Returns nil —
// starting no goroutine, channel or context — when PlanAhead is 0 (the
// sequential mode: the executor plans inline, on its critical path) or when
// no op needs planning. The goroutines exit once close cancels their
// context, so an aborted execution leaks nothing.
func (r *Runtime) startPipeline(ctx context.Context, g nn.Graph, order []int32, fusion *fusionPlan, fp string) *pipeline {
	if r.cfg.PlanAhead <= 0 {
		return nil
	}
	var p *pipeline
	var planned []int
	for _, i32 := range order {
		i := int(i32)
		op := g.Ops[i]
		if op.Kind == nn.OpOther || fusion.covered(i) ||
			(r.planFn == nil && r.comp.Cached(op.Gemm, fp)) {
			continue
		}
		if p == nil {
			p = &pipeline{tickets: make([]*ticket, len(g.Ops))}
		}
		p.tickets[i] = &ticket{done: make(chan struct{})}
		planned = append(planned, i)
	}
	if p == nil {
		return nil
	}
	ctx, p.stop = context.WithCancel(ctx)
	p.ahead = make(chan struct{}, r.cfg.PlanAhead)

	jobs := make(chan int)
	go func() { // dispatcher: feeds jobs in schedule order, k-bounded
		defer close(jobs)
		for _, i := range planned {
			select {
			case p.ahead <- struct{}{}:
			case <-ctx.Done():
				return
			}
			select {
			case jobs <- i:
			case <-ctx.Done():
				return
			}
		}
	}()
	for w := 0; w < r.cfg.Workers; w++ {
		go func() {
			for i := range jobs {
				t := p.tickets[i]
				start := time.Now()
				t.prog, t.degraded, t.err = r.plan(ctx, g.Ops[i].Gemm)
				t.wall = time.Since(start)
				close(t.done)
			}
		}()
	}
	return p
}

// close stops the pipeline's goroutines; a nil pipeline is a no-op.
func (p *pipeline) close() {
	if p != nil {
		p.stop()
	}
}

// planOp hands the executor op i's program: from the pipeline when the op
// holds a ticket (accounting stall vs hidden wall time), else the compiler's
// cached program resolved inline, else an inline plan on the critical path.
// Sequential mode counts every plan as a stall; with the pipeline, only the
// plans the executor waited for or planned itself.
func (r *Runtime) planOp(ctx context.Context, pipe *pipeline, i int, shape tensor.GemmShape, rep *Report) (*poly.Program, error) {
	if pipe != nil && pipe.tickets[i] != nil {
		return r.consumeTicket(ctx, pipe, pipe.tickets[i], rep)
	}
	if r.planFn == nil {
		if prog, ok := r.comp.Lookup(shape); ok {
			// A cache hit takes no measurable planning wall.
			rep.Plans++
			if r.cfg.PlanAhead <= 0 {
				rep.Stalls++
			}
			return prog, nil
		}
	}
	start := time.Now()
	prog, degraded, err := r.plan(ctx, shape)
	wall := time.Since(start)
	rep.Plans++
	rep.Stalls++
	rep.PlanWall += wall
	rep.StallWall += wall
	if degraded {
		rep.Degraded++
	}
	return prog, err
}

// consumeTicket waits for a pipeline ticket, accounting the wait as stall
// and the rest of its planning wall as hidden.
func (r *Runtime) consumeTicket(ctx context.Context, pipe *pipeline, t *ticket, rep *Report) (*poly.Program, error) {
	var stall time.Duration
	select {
	case <-t.done:
	default:
		// Plan not ready: the executor stalls until the pipeline
		// delivers — the planning time the pipeline failed to hide.
		waitStart := time.Now()
		select {
		case <-t.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		stall = time.Since(waitStart)
		rep.Stalls++
	}
	<-pipe.ahead // release the lookahead token
	rep.Plans++
	rep.PlanWall += t.wall
	rep.StallWall += stall
	if hidden := t.wall - stall; hidden > 0 {
		rep.HiddenWall += hidden
	}
	if t.degraded {
		rep.Degraded++
	}
	return t.prog, t.err
}

// stageKey identifies one stage execution in the stage-simulation memo: the
// stage's ops — each one's count and program identity
// (poly.Program.AppendIdentity), binary-encoded in launch order — the health
// fingerprint it ran under and the fault-injection salt. Identity is by
// content, not pointer, so a recycled allocation can never alias a stale
// entry, and two programs that share a shape, pattern and task count but not
// their kernels never share an entry.
type stageKey struct {
	ops  string
	fp   string
	salt uint64
}

// appendStageOps appends the ops part of a stage's memo key to b.
func appendStageOps(b []byte, ops []stageOp) []byte {
	for _, op := range ops {
		b = binary.AppendUvarint(b, uint64(op.count))
		b = op.prog.AppendIdentity(b)
	}
	return b
}

// lowerStage lowers a stage's ops to one run-length task batch on h: each
// op's program runs, launched op.count times.
func lowerStage(ops []stageOp, h hw.Hardware) []sim.Task {
	var tasks []sim.Task
	for _, op := range ops {
		tasks = sim.AppendRepeat(tasks, op.prog.Tasks(h), op.count)
	}
	return tasks
}

// runStage executes one stage's co-scheduled ops, memoizing by stageKey:
// model graphs repeat the same operator stack across layers, and the
// simulator is deterministic, so identical stages under the same device view
// cost identical cycles. The memo is probed before the stage is lowered, so
// a hit costs one key encoding and one map lookup. The fingerprint in the
// key keeps healthy and degraded executions strictly separated (no
// cross-contamination), and recovery attempts always miss because their
// salts differ. Only the memo miss — the stage that actually hits the
// simulator — earns a span; replays are aggregated into the parent
// graphrt.execute span's counters.
func (r *Runtime) runStage(ctx context.Context, stage int, ops []stageOp, fp string, h hw.Hardware, v health.View, salt uint64) sim.Result {
	var scratch [256]byte // typical stages encode in well under 256 bytes
	buf := appendStageOps(scratch[:0], ops)
	r.mu.Lock()
	if res, ok := r.simCache[stageKey{ops: string(buf), fp: fp, salt: salt}]; ok {
		r.accumulateStageLocked(res)
		r.mu.Unlock()
		return res
	}
	r.mu.Unlock()

	_, sp := r.o.T().Start(ctx, "graphrt.stage")
	tasks := lowerStage(ops, h)
	var res sim.Result
	if r.simFn != nil {
		res = r.simFn(h, v, tasks, salt)
	} else {
		res = sim.Run(h, tasks)
	}
	sp.Attr("stage", float64(stage)).Attr("tasks", float64(sim.Total(tasks))).
		Attr("cycles", res.Cycles).End()

	r.mu.Lock()
	if len(r.simCache) >= simCacheCap {
		// The cache is per-process scratch, not a correctness structure:
		// dropping it wholesale keeps memory flat under shape churn.
		r.simCache = make(map[stageKey]sim.Result)
	}
	r.simCache[stageKey{ops: string(buf), fp: fp, salt: salt}] = res
	r.accumulateStageLocked(res)
	r.mu.Unlock()
	return res
}

// accumulateStageLocked folds one executed (or memo-replayed) stage into the
// cumulative utilization counters. Callers hold r.mu. The cached PEBusy
// slice is only read, never aliased into agg.PEBusy. Degraded stages report
// fewer PEs than healthy ones; the shorter series folds into the prefix, so
// cumulative utilization reflects survivor positions — an accepted
// approximation while quarantines are live.
func (r *Runtime) accumulateStageLocked(res sim.Result) {
	r.agg.GemmStageCycles += res.Cycles
	if len(res.PEBusy) == 0 {
		return
	}
	if len(r.agg.PEBusy) < len(res.PEBusy) {
		grown := make([]float64, len(res.PEBusy))
		copy(grown, r.agg.PEBusy)
		r.agg.PEBusy = grown
	}
	for i, b := range res.PEBusy {
		r.agg.PEBusy[i] += b
	}
}

// simCacheCap bounds the stage-simulation memo.
const simCacheCap = 4096
