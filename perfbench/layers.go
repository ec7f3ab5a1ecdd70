package main

import (
	"time"
)

// spanIndex groups the traced replay's spans for the per-layer metrics.
type spanIndex struct {
	spans  []span
	byName map[string][]int
	kids   map[int][]int
}

func indexSpans(spans []span) spanIndex {
	ix := spanIndex{spans: spans, byName: map[string][]int{}, kids: map[int][]int{}}
	for i, s := range spans {
		ix.byName[s.Name] = append(ix.byName[s.Name], i)
		if s.Parent >= 0 {
			ix.kids[s.Parent] = append(ix.kids[s.Parent], i)
		}
	}
	return ix
}

// durations returns the durations in unit of the named spans that pass
// keep (nil keeps all).
func (ix spanIndex) durations(name string, unit time.Duration, keep func(span) bool) samples {
	var out samples
	for _, i := range ix.byName[name] {
		if s := ix.spans[i]; keep == nil || keep(s) {
			out = append(out, s.ns()/float64(unit))
		}
	}
	return out
}

// childNs sums the durations of span i's children with the given name.
func (ix spanIndex) childNs(i int, name string) (ns float64, n int) {
	for _, k := range ix.kids[i] {
		if ix.spans[k].Name == name {
			ns += ix.spans[k].ns()
			n++
		}
	}
	return ns, n
}

const mib = 1 << 20

// layerMetrics derives the per-layer metrics. Counts come from /stats
// deltas over the measured HTTP phases; times come from the traced replay.
func layerMetrics(h *httpRun, d *direct, spans []span, probeNs, probeTasks float64, probeErr samples,
	plainWall, tracedWall time.Duration, nReq int) []metric {
	ix := indexSpans(spans)
	b, a := h.before, h.after
	served := h.timed()

	// serve: HTTP service time minus the traced time below serve.
	below := map[int]float64{}
	for _, i := range ix.byName["req"] {
		below[spans[i].Req] = spans[i].ns() / 1e6
	}
	// /generate requests share scheduler waves, so no per-request time
	// below serve exists and the metric stays empty on that workload.
	var self samples
	for _, r := range h.closed {
		if v, ok := below[r.idx]; ok {
			self = append(self, float64(r.end-r.start)/1e6-v)
		}
	}
	errorsN, bytes := 0, 0
	for _, r := range served {
		if r.status != 200 {
			errorsN++
		}
		bytes += r.bytes
	}

	corePlan := ix.durations("core.plan", time.Millisecond, nil)
	polyPlan := ix.durations("core.plan", time.Microsecond, func(s span) bool { return s.Miss })
	plans := float64(a.Plans - b.Plans)
	nPlans, ps := d.c.PlanStats()
	replayPlans := float64(nPlans - d.plansBefore.n)
	pruned := float64(ps.PrunedAnchors - d.plansBefore.pruned)

	lowerNs, lowerTasks := 0.0, 0.0
	for _, i := range ix.byName["poly.lower"] {
		lowerNs += spans[i].ns()
		lowerTasks += float64(spans[i].Tasks)
	}
	costErr := d.costErr
	if lowerTasks == 0 {
		lowerNs, lowerTasks, costErr = probeNs, probeTasks, probeErr
	}

	var simTasks samples
	simNs := 0.0
	for _, i := range ix.byName["sim.run"] {
		simTasks = append(simTasks, float64(spans[i].Tasks))
		simNs += spans[i].ns()
	}
	devCycles := 0.0
	for _, c := range d.cycles {
		devCycles += c
	}
	graphCycles := 0.0
	for _, i := range ix.byName["graphrt.execute"] {
		graphCycles += spans[i].Cycles
	}
	if devCycles == 0 {
		devCycles = graphCycles
	}

	var gExec, gSelf samples
	simCalls := 0
	for _, i := range ix.byName["graphrt.execute"] {
		s := spans[i]
		simIn, n := ix.childNs(i, "sim.run")
		simCalls += n
		gExec = append(gExec, s.ns()/1e6)
		gSelf = append(gSelf, (s.ns()-simIn-float64(s.Stall))/1e6)
	}
	graphs := float64(a.Graph.Graphs - b.Graph.Graphs)

	eng := ix.durations("engine.execute", time.Millisecond, nil)
	flops := 0.0
	for _, i := range ix.byName["engine.execute"] {
		flops += spans[i].FLOPs
	}

	waves := float64(d.sc.Stats().Waves - d.wavesBefore)
	replayNs := ix.durations("sched.replay", time.Nanosecond, nil).sum()
	waveExecNs := 0.0
	for _, i := range ix.byName["graphrt.execute"] {
		if spans[i].Req < 0 {
			waveExecNs += spans[i].ns()
		}
	}
	sb, sa := b.Sched, a.Sched
	httpWaves := float64(sa.Waves - sb.Waves)
	leaked := h.leakedPages
	if d.leaked > leaked {
		leaked = d.leaked
	}
	reused := float64(sa.ReusedTokens - sb.ReusedTokens)
	prefilled := float64(sa.PrefillTokens - sb.PrefillTokens)

	var late samples
	for _, r := range h.open {
		late = append(late, float64(r.late())/1e6)
	}
	sent := len(h.open) + len(h.closed)

	return []metric{
		{name: "serve.self_ms_p50", unit: "ms", value: self.pct(0.5), n: len(self)},
		{name: "serve.rejected", unit: "count", value: float64(a.Rejected - b.Rejected + sa.TokenRejected - sb.TokenRejected)},
		{name: "serve.errors", unit: "count", value: float64(errorsN)},
		{name: "serve.resp_bytes_per_req", unit: "B", value: ratio(float64(bytes), float64(len(served))), n: len(served)},

		{name: "core.cache_hit_ratio", unit: "ratio", value: ratio(float64(a.Cache.Hits-b.Cache.Hits), float64(a.Cache.Hits-b.Cache.Hits+a.Cache.Misses-b.Cache.Misses))},
		{name: "core.evictions", unit: "count", value: float64(a.Cache.Evictions - b.Cache.Evictions)},
		{name: "core.plan_ms_p50", unit: "ms", value: corePlan.pct(0.5), n: len(corePlan)},
		{name: "core.plan_ms_p99", unit: "ms", value: corePlan.pct(0.99), n: len(corePlan), note: tailNote(len(corePlan), 0.99)},
		{name: "core.fallbacks", unit: "count", value: float64(a.Fallbacks - b.Fallbacks)},

		{name: "poly.online_plans", unit: "count", value: plans},
		{name: "poly.candidates_per_plan", unit: "count", value: ratio(float64(a.PlanCandidates-b.PlanCandidates), plans)},
		{name: "poly.pruned_anchors_per_plan", unit: "count", value: ratio(pruned, replayPlans)},
		{name: "poly.plan_us_p50", unit: "us", value: polyPlan.pct(0.5), n: len(polyPlan)},
		{name: "poly.plan_us_p99", unit: "us", value: polyPlan.pct(0.99), n: len(polyPlan), note: tailNote(len(polyPlan), 0.99)},
		{name: "poly.lower_ns_per_task", unit: "ns", value: ratio(lowerNs, lowerTasks), n: int(lowerTasks)},
		{name: "poly.costmodel_err_p50", unit: "ratio", value: costErr.pct(0.5), n: len(costErr)},
		{name: "poly.costmodel_err_p99", unit: "ratio", value: costErr.pct(0.99), n: len(costErr), note: tailNote(len(costErr), 0.99)},

		{name: "sim.runs", unit: "count", value: float64(len(simTasks))},
		{name: "sim.tasks_per_run_p50", unit: "count", value: simTasks.pct(0.5), n: len(simTasks)},
		{name: "sim.ns_per_task", unit: "ns", value: ratio(simNs, simTasks.sum()), n: int(simTasks.sum())},
		{name: "sim.busy_ms_per_req", unit: "ms", value: ratio(simNs/1e6, float64(nReq)), n: nReq},
		{name: "sim.cycles_per_req", unit: "cycles", value: ratio(devCycles, float64(nReq)), n: nReq},

		{name: "graphrt.execute_ms_p50", unit: "ms", value: gExec.pct(0.5), n: len(gExec)},
		{name: "graphrt.execute_ms_p99", unit: "ms", value: gExec.pct(0.99), n: len(gExec), note: tailNote(len(gExec), 0.99)},
		{name: "graphrt.self_ms_p50", unit: "ms", value: gSelf.pct(0.5), n: len(gSelf)},
		{name: "graphrt.stall_ms_per_graph", unit: "ms", value: ratio(a.Graph.StallMs-b.Graph.StallMs, graphs)},
		{name: "graphrt.hidden_frac", unit: "ratio", value: ratio(a.Graph.HiddenMs-b.Graph.HiddenMs, a.Graph.PlanMs-b.Graph.PlanMs)},
		{name: "graphrt.sim_calls_per_graph", unit: "count", value: ratio(float64(simCalls), float64(len(gExec)))},
		{name: "graphrt.peak_mem_mb", unit: "MiB", value: float64(d.peakMem) / mib},
		{name: "graphrt.spill_mb", unit: "MiB", value: ratio(d.spill/mib, float64(d.nGraphs)), note: "per graph"},

		{name: "engine.exec_ms_p50", unit: "ms", value: eng.pct(0.5), n: len(eng)},
		{name: "engine.gflop_s", unit: "GFLOP/s", value: ratio(flops/1e9, eng.sum()/1e3)},

		{name: "sched.waves", unit: "count", value: httpWaves},
		{name: "sched.exec_ms_per_wave", unit: "ms", value: ratio(waveExecNs/1e6, waves)},
		{name: "sched.self_ms_per_wave", unit: "ms", value: ratio((replayNs-waveExecNs)/1e6, waves)},
		{name: "sched.decode_batch_mean", unit: "count", value: ratio(float64(sa.DecodeSteps-sb.DecodeSteps), httpWaves)},
		{name: "sched.prefill_chunks", unit: "count", value: float64(sa.PrefillChunks - sb.PrefillChunks)},
		{name: "sched.step_violations", unit: "count", value: float64(sa.StepViolations - sb.StepViolations)},
		{name: "sched.token_rejects", unit: "count", value: float64(sa.TokenRejected - sb.TokenRejected)},

		{name: "kvcache.prefix_hit_token_frac", unit: "ratio", value: ratio(reused, reused+prefilled)},
		{name: "kvcache.cow_copies", unit: "count", value: float64(a.KV.COWCopies - b.KV.COWCopies)},
		{name: "kvcache.evictions", unit: "count", value: float64(a.KV.Evictions - b.KV.Evictions)},
		{name: "kvcache.failed_allocs", unit: "count", value: float64(a.KV.FailedAllocs - b.KV.FailedAllocs)},
		{name: "kvcache.leaked_pages", unit: "count", value: float64(leaked)},

		{name: "tune.generate_s", unit: "s", value: median(h.tuneS), n: len(h.tuneS)},

		{name: "go.gc_cycles_per_kreq", unit: "count", value: ratio(float64(h.memEnd.NumGC-h.memOpen.NumGC)*1000, float64(sent))},
		{name: "go.gc_pause_ms_total", unit: "ms", value: float64(h.memEnd.PauseTotalNs-h.memOpen.PauseTotalNs) / 1e6},

		{name: "loadgen.late_ms_p99", unit: "ms", value: late.pct(0.99), n: len(late), note: tailNote(len(late), 0.99)},
		{name: "loadgen.sent", unit: "count", value: float64(sent)},
		{name: "trace.overhead_frac", unit: "ratio", value: tracedWall.Seconds()/plainWall.Seconds() - 1},
	}
}
