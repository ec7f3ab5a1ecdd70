// Command perfbench is the repository benchmark. It starts the real
// serve.Server in-process, configured as `mikserve -sched` runs by default,
// and drives it over loopback HTTP with one of three seeded workloads:
//
//	ops-coldshape  /plan (and 1 in 16 /execute) on a GEMM shape pool larger
//	               than the program cache
//	model-dynseq   /model over the paper's models with dynamic dimensions
//	llm-generate   /generate from a shared-prefix multi-tenant trace
//
// Each run sets the server up several times (set-up time is a metric), warms
// it on the start of the seeded request stream, then measures an open-loop
// phase (Poisson arrivals at a fixed rate, latency from due time) and a
// closed-loop phase (one client per CPU, capacity). Every response is
// verified. With --trace 1 the run then replays the same requests through
// the layers' public functions, composed as serve.SetCompiler composes
// them, times each call from this package, checks that the replay's device
// cycles equal the served ones bit for bit, and reports per-layer metrics.
//
//	go run . --workload ops-coldshape --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and the metrics named in BENCHMARK.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// metric is one reported number. n is the sample count behind a
// percentile or mean (0 for counts and ratios of counters).
type metric struct {
	name  string
	unit  string
	value float64
	n     int
	note  string
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	spans    string
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", fmt.Sprintf("workload to run: %v", workloadNames))
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 30, "measured seconds (open-loop plus closed-loop phase)")
	flag.IntVar(&traceFlag, "trace", 0, "1 = also run the traced direct replay and report per-layer metrics")
	flag.StringVar(&o.spans, "spans", "", "file the traced run writes its spans to (default .bench_build/spans-<workload>-<seed>.json)")
	flag.Parse()
	o.trace = traceFlag == 1
	if o.seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1")
		os.Exit(2)
	}
	if o.spans == "" {
		o.spans = fmt.Sprintf(".bench_build/spans-%s-%d.json", o.workload, o.seed)
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out := map[string]any{
		"correct":   res.correct,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   map[string]any{},
	}
	ms := out["metrics"].(map[string]any)
	for _, m := range res.metrics {
		ms[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// result is what a run reports.
type result struct {
	correct           bool
	attempted, failed int
	metrics           []metric // the JSON line: end-to-end or per-layer
}

// setupReps is how many times a run sets the server up; setup_s is the
// median.
const setupReps = 7

// resendSample is how many /generate requests are re-sent at the end of a
// run to check their digests.
const resendSample = 16

// httpRun is everything the HTTP phases produced.
type httpRun struct {
	st     stream
	warm   []record
	open   []record
	closed []record
	resend []record

	openDur, closedDur time.Duration

	setupS, tuneS   []float64
	before, after   serverStats
	memOpen, memEnd runtime.MemStats
	cpuOpen, cpuEnd time.Duration // process CPU time around the timed phases
	rssMB           float64
	leakedPages     int // KV pages still held once every request has returned
}

// timed is every request of the two timed phases.
func (h *httpRun) timed() []record { return append(append([]record(nil), h.open...), h.closed...) }

// measured is every request sent after warm-up.
func (h *httpRun) measured() []record { return append(h.timed(), h.resend...) }

// sent is every request the run sent.
func (h *httpRun) sent() []record { return append(append([]record(nil), h.warm...), h.measured()...) }

// verdict is the run's correctness: every request returned a verified 200,
// and the KV cache holds no page once every request has returned, in the
// server and, when traced, in the replay. It returns the reasons it failed.
func verdict(failed, servedLeak, replayLeak int) (bool, []string) {
	var why []string
	if failed > 0 {
		why = append(why, fmt.Sprintf("%d requests did not return a verified 200", failed))
	}
	if servedLeak != 0 {
		why = append(why, fmt.Sprintf("the server leaked %d KV pages", servedLeak))
	}
	if replayLeak != 0 {
		why = append(why, fmt.Sprintf("the traced replay leaked %d KV pages", replayLeak))
	}
	return len(why) == 0, why
}

func run(o options) (result, error) {
	st, err := newStream(o.workload, o.seed)
	if err != nil {
		return result{}, err
	}
	h := &httpRun{st: st}
	ls, err := h.setUp()
	if err != nil {
		return result{}, err
	}
	defer ls.close()
	if err := h.drive(o, ls); err != nil {
		return result{}, err
	}
	sent := h.sent()
	res := result{attempted: len(sent)}
	for i := range sent {
		if !sent[i].ok() {
			res.failed++
		}
	}
	e2e := endToEnd(h)
	printMetrics("end-to-end", e2e)
	reportFailures(h)
	replayLeak, valid := 0, true
	if !o.trace {
		res.metrics = pick(e2e, endToEndNames)
	} else {
		layers, d, ok, err := perLayer(o, h, ls.lib)
		if err != nil {
			return result{}, err
		}
		valid, replayLeak = ok, d.leaked
		if valid {
			printMetrics("per-layer", layers)
			res.metrics = layers
		} else {
			fmt.Println("INVALID: the traced replay's device results differ from the served ones; per-layer numbers withheld")
		}
	}
	var why []string
	res.correct, why = verdict(res.failed, h.leakedPages, replayLeak)
	for _, w := range why {
		fmt.Println("INCORRECT:", w)
	}
	res.correct = res.correct && valid
	return res, nil
}

// setUp starts the server setupReps times, recording each set-up, and
// returns the last one.
func (h *httpRun) setUp() (*liveServer, error) {
	var ls *liveServer
	for i := 0; i < setupReps; i++ {
		if ls != nil {
			ls.close()
		}
		s, setupS, tuneS, err := startServer()
		if err != nil {
			return nil, err
		}
		h.setupS = append(h.setupS, setupS)
		h.tuneS = append(h.tuneS, tuneS)
		ls = s
	}
	return ls, nil
}

// drive warms the server, runs the open- and closed-loop phases, verifying
// every response as it arrives, and reads the server's state at the end.
func (h *httpRun) drive(o options, ls *liveServer) error {
	st := h.st
	conns := runtime.NumCPU()
	hs := newHTTPSender(ls.base, conns, newVerifier())
	defer hs.close()

	idx := 0
	next := func(limit int) func() *request {
		return func() *request {
			if limit >= 0 && idx >= limit {
				return nil
			}
			r := st.request(idx)
			if r != nil {
				idx++
			}
			return r
		}
	}
	h.warm = closedLoop(time.Hour, conns, next(st.warmup()), hs.send)

	var err error
	if h.before, err = ls.stats(); err != nil {
		return err
	}
	h.openDur = time.Duration(o.seconds) * time.Second / 2
	h.closedDur = time.Duration(o.seconds)*time.Second - h.openDur
	// Each timed phase starts from a collected heap, so garbage from
	// set-up and warm-up is not charged to it, and the peak RSS is taken
	// over the timed phases only.
	runtime.GC()
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return err
	}
	runtime.ReadMemStats(&h.memOpen)
	h.cpuOpen = cpuTime()
	due := st.schedule(idx, h.openDur)
	h.open = openLoop(idx, due, conns, st.request, hs.send)
	idx += len(due)
	h.closed = closedLoop(h.closedDur, conns, next(-1), hs.send)
	h.cpuEnd = cpuTime()
	runtime.ReadMemStats(&h.memEnd)
	if h.rssMB, err = peakRSSMB(); err != nil {
		return err
	}
	if h.after, err = ls.stats(); err != nil {
		return err
	}
	sort.Slice(h.closed, func(i, j int) bool { return h.closed[i].idx < h.closed[j].idx })

	if _, ok := st.(*genStream); ok {
		// Re-send a seeded sample: each must return its first digest bit
		// for bit, whether it now hits the prefix cache or not.
		timed := h.timed()
		for k, j := range permutation(o.seed^0x5e, len(timed)) {
			if k == resendSample {
				break
			}
			req := st.request(timed[j].idx)
			rec := record{idx: req.idx, path: req.path}
			hs.send(req, &rec)
			h.resend = append(h.resend, rec)
		}
	}
	end, err := ls.stats()
	if err != nil {
		return err
	}
	h.leakedPages = end.KV.ActivePages
	return nil
}

// endToEndNames are the metrics BENCHMARK.json lists as end_to_end; every
// workload reports all of them. The others are printed but not gated: on a
// shared 2-core host their spread from run to run is too wide to bound
// (NOTES.md).
var endToEndNames = []string{
	"setup_s", "capacity_rps", "cpu_ms_per_req", "device_ms_mean", "good_frac", "alloc_kb_per_req", "peak_rss_mb",
}

func endToEnd(h *httpRun) []metric {
	var lat, dev samples
	for i := range h.open {
		lat = append(lat, float64(h.open[i].latency())/1e6)
	}
	// Device time is independent of host load, so both timed phases
	// contribute samples.
	timed := h.timed()
	for i := range timed {
		if r := &timed[i]; r.ok() {
			if v, ok := h.st.deviceMs(r); ok {
				dev = append(dev, v)
			}
		}
	}
	done := 0
	for i := range h.closed {
		if r := &h.closed[i]; r.ok() && r.end <= h.closedDur {
			done++
		}
	}
	measured := h.measured()
	good, sloGood := 0, 0
	_, isGen := h.st.(*genStream)
	for i := range measured {
		r := &measured[i]
		if !r.ok() {
			continue
		}
		g := true
		if isGen {
			g = r.sloGood
			if g {
				sloGood++
			}
		}
		if g {
			good++
		}
	}
	ls, ds := lat.sorted(), dev.sorted()
	devNote := "sim_cycles at the modelled clock"
	if isGen {
		devNote = "time to first token on the scheduler's device clock"
	}
	ms := []metric{
		{name: "setup_s", unit: "s", value: median(h.setupS), n: len(h.setupS), note: "tune.Generate to first 200 from /healthz, median"},
		{name: "latency_p50_ms", unit: "ms", value: nearestRank(ls, 0.5), n: len(ls), note: "open loop, due time to last byte"},
		{name: "latency_p90_ms", unit: "ms", value: nearestRank(ls, 0.9), n: len(ls), note: tailNote(len(ls), 0.9)},
		{name: "latency_p99_ms", unit: "ms", value: nearestRank(ls, 0.99), n: len(ls), note: tailNote(len(ls), 0.99)},
		{name: "capacity_rps", unit: "1/s", value: float64(done) / h.closedDur.Seconds(), n: done, note: fmt.Sprintf("verified completions in the closed loop, %d clients", runtime.NumCPU())},
		{name: "cpu_ms_per_req", unit: "ms", value: ratio(float64(h.cpuEnd-h.cpuOpen)/1e6, float64(len(timed))), n: len(timed), note: "process CPU time per timed request, server and client"},
		{name: "device_ms_mean", unit: "ms", value: dev.mean(), n: len(ds), note: devNote},
		{name: "device_ms_p50", unit: "ms", value: nearestRank(ds, 0.5), n: len(ds)},
		{name: "device_ms_p90", unit: "ms", value: nearestRank(ds, 0.9), n: len(ds), note: tailNote(len(ds), 0.9)},
		{name: "device_ms_p99", unit: "ms", value: nearestRank(ds, 0.99), n: len(ds), note: tailNote(len(ds), 0.99)},
		{name: "good_frac", unit: "ratio", value: ratio(float64(good), float64(len(measured))), n: len(measured), note: "verified 200 (and slo_good on /generate) per sent request"},
		{name: "failed_frac", unit: "ratio", value: failedFrac(measured), n: len(measured), note: "not a verified 200: transport errors, 4xx, 5xx, wrong outputs"},
		{name: "alloc_kb_per_req", unit: "KiB", value: ratio(float64(h.memEnd.TotalAlloc-h.memOpen.TotalAlloc)/1024, float64(len(timed))), n: len(timed), note: "Go heap allocated per timed request, server and client"},
		{name: "peak_rss_mb", unit: "MiB", value: h.rssMB, note: "VmHWM over the timed phases"},
	}
	if isGen {
		ms = append(ms,
			metric{name: "ttft_ms_p90", unit: "ms", value: nearestRank(ds, 0.9), n: len(ds), note: tailNote(len(ds), 0.9)},
			metric{name: "slo_good_frac", unit: "ratio", value: ratio(float64(sloGood), float64(len(measured))), n: len(measured)})
	}
	return ms
}

func tailNote(n int, q float64) string {
	if supported(n, q) {
		return ""
	}
	return fmt.Sprintf("unsupported: %d samples beyond, need %d", beyond(n, q), minTail)
}

// pick returns the named metrics in order.
func pick(ms []metric, names []string) []metric {
	by := map[string]metric{}
	for _, m := range ms {
		by[m.name] = m
	}
	out := make([]metric, 0, len(names))
	for _, n := range names {
		out = append(out, by[n])
	}
	return out
}

func printMetrics(title string, ms []metric) {
	fmt.Printf("# %s\n", title)
	for _, m := range ms {
		line := fmt.Sprintf("%-34s %14.6g %-6s", m.name, m.value, m.unit)
		if m.n > 0 {
			line += fmt.Sprintf(" n=%d", m.n)
		}
		if m.note != "" {
			line += "  (" + m.note + ")"
		}
		fmt.Println(line)
	}
}

// reportFailures prints the first few failed requests to standard error.
func reportFailures(h *httpRun) {
	shown := 0
	for _, r := range h.sent() {
		if r.ok() {
			continue
		}
		if shown < 5 {
			fmt.Fprintf(os.Stderr, "perfbench: failed %s #%d: status %d: %v\n", r.path, r.idx, r.status, r.err)
		}
		shown++
	}
}
