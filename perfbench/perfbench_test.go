package main

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"mikpoly/internal/serve"
	"mikpoly/internal/tensor"
	"mikpoly/internal/workload"
)

func TestNearestRank(t *testing.T) {
	xs := samples{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.1, 1}, {0.5, 5}, {0.55, 6}, {0.9, 9}, {0.99, 10}, {1, 10}} {
		if got := nearestRank(xs, c.q); got != c.want {
			t.Errorf("nearestRank(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := nearestRank(nil, 0.5); got != 0 {
		t.Errorf("empty bag: %v, want 0", got)
	}
	if got := (samples{3, 1, 2}).pct(0.5); got != 2 {
		t.Errorf("unsorted pct(0.5) = %v, want 2", got)
	}
}

// A percentile is reported as supported only with at least ten samples
// beyond it.
func TestTailSupport(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{100, 0.9, true}, {99, 0.9, false},
		{1000, 0.99, true}, {999, 0.99, false},
		{20, 0.5, true}, {19, 0.5, false}, {0, 0.5, false},
	} {
		if got := supported(c.n, c.q); got != c.want {
			t.Errorf("supported(%d, %v) = %v (beyond %d), want %v", c.n, c.q, got, beyond(c.n, c.q), c.want)
		}
	}
	if note := tailNote(999, 0.99); note == "" {
		t.Error("tailNote(999, 0.99) should flag the percentile as unsupported")
	}
}

// A server that stalls on one request delays every request queued behind
// it; open-loop accounting charges that delay to them, from their due time.
func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	const stall = 120 * time.Millisecond
	due := make([]time.Duration, 8)
	for i := range due {
		due[i] = time.Duration(i) * 10 * time.Millisecond
	}
	mk := func(i int) *request { return &request{idx: i, path: "/plan"} }
	send := func(req *request, rec *record) {
		if req.idx == 0 {
			time.Sleep(stall)
		}
		rec.status = http.StatusOK
	}
	recs := openLoop(0, due, 1, mk, send)
	for k, r := range recs[1:] {
		k++
		// Request k came due at 10k ms but could start only after the
		// stall ended at 120 ms.
		if min := stall - due[k]; r.latency() < min {
			t.Errorf("request %d: latency %v, want at least the %v it waited", k, r.latency(), min)
		}
		if r.late() < stall-due[k] {
			t.Errorf("request %d: late %v, want at least %v", k, r.late(), stall-due[k])
		}
		// Timed from its own send, the request looks fast: the stall
		// would be invisible to closed-loop accounting.
		if svc := r.end - r.start; svc > stall/2 {
			t.Errorf("request %d: service time %v should not include the stall", k, svc)
		}
	}
}

func TestClosedLoopStopsAtDeadline(t *testing.T) {
	n := 0
	next := func() *request { n++; return &request{idx: n} }
	send := func(_ *request, rec *record) { time.Sleep(time.Millisecond); rec.status = http.StatusOK }
	recs := closedLoop(30*time.Millisecond, 2, next, send)
	if len(recs) == 0 {
		t.Fatal("closed loop sent nothing")
	}
	for _, r := range recs {
		if r.due != r.start {
			t.Fatalf("closed-loop request %d: due %v != start %v", r.idx, r.due, r.start)
		}
	}
}

// A 429, a 5xx and a wrong digest each count in failed_frac.
func TestFailedFracCountsRejectionsErrorsAndWrongOutputs(t *testing.T) {
	status := map[string]int{"/a": http.StatusTooManyRequests, "/b": http.StatusServiceUnavailable}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(status[r.URL.Path])
	}))
	defer srv.Close()
	v := newVerifier()
	hs := newHTTPSender(srv.URL, 1, v)
	defer hs.close()
	rejected := record{path: "/a"}
	hs.send(&request{path: "/a"}, &rejected)
	unavailable := record{path: "/b"}
	hs.send(&request{path: "/b"}, &unavailable)

	gen := &request{idx: 7, path: "/generate", gen: &workload.TraceRequest{DecodeTokens: 4, Fanout: 2}}
	first := record{idx: 7, path: "/generate", status: http.StatusOK}
	v.check(gen, &reply{DecodeTokens: 8, Digest: "00000000000000aa", SLOGood: true}, &first)
	resent := record{idx: 7, path: "/generate", status: http.StatusOK}
	v.check(gen, &reply{DecodeTokens: 8, Digest: "00000000000000ab", SLOGood: true}, &resent)

	recs := []record{first, rejected, unavailable, resent}
	for _, r := range recs[1:] {
		if r.ok() {
			t.Errorf("%s status %d counted as ok (err %v)", r.path, r.status, r.err)
		}
	}
	if !first.ok() {
		t.Fatalf("first answer rejected: %v", first.err)
	}
	if got := failedFrac(recs); got != 0.75 {
		t.Errorf("failedFrac = %v, want 0.75", got)
	}
}

// Leaked KV pages make a run incorrect even when every request succeeded,
// whether the server or the traced replay leaked them.
func TestVerdictRejectsLeakedPages(t *testing.T) {
	if ok, why := verdict(0, 0, 0); !ok || len(why) != 0 {
		t.Errorf("clean run judged incorrect: %v", why)
	}
	for _, c := range []struct{ failed, served, replay int }{{0, 3, 0}, {0, 0, 2}, {1, 0, 0}} {
		if ok, why := verdict(c.failed, c.served, c.replay); ok || len(why) != 1 {
			t.Errorf("verdict(%d failed, %d served leak, %d replay leak) = %v %v, want incorrect with one reason",
				c.failed, c.served, c.replay, ok, why)
		}
	}
}

// Capacity counts only verified closed-loop completions within the phase.
func TestCapacityCountsVerifiedCompletionsInPhase(t *testing.T) {
	h := &httpRun{st: newOpsStream(1), closedDur: 2 * time.Second, setupS: []float64{1}}
	h.closed = []record{
		{status: http.StatusOK, end: time.Second},
		{status: http.StatusOK, end: 2 * time.Second},
		{status: http.StatusOK, end: 3 * time.Second}, // after the phase
		{status: http.StatusTooManyRequests, end: time.Second},
	}
	for _, m := range endToEnd(h) {
		if m.name == "capacity_rps" && m.value != 1 {
			t.Errorf("capacity_rps = %v, want 2 completions / 2 s = 1", m.value)
		}
	}
}

func TestGenerateDecodeTokensChecked(t *testing.T) {
	gen := &request{idx: 1, path: "/generate", gen: &workload.TraceRequest{DecodeTokens: 4, Fanout: 2}}
	rec := record{idx: 1, path: "/generate", status: http.StatusOK}
	newVerifier().check(gen, &reply{DecodeTokens: 4, Digest: "01"}, &rec)
	if rec.ok() {
		t.Error("decode_tokens != steps × fanout was accepted")
	}
}

func TestExecuteChecksumChecked(t *testing.T) {
	shape := tensor.GemmShape{M: 5, N: 7, K: 3}
	c := tensor.Gemm(tensor.RandomMatrix(5, 3, 3), tensor.RandomMatrix(3, 7, 4))
	sum := 0.0
	for _, x := range c.Data {
		sum += float64(x)
	}
	body := func(checksum float64) *reply {
		return &reply{SimCycles: 10, Checksum: checksum, Sample: []float32{c.At(0, 0), c.At(0, 6), c.At(4, 0), c.At(4, 6)}}
	}
	req := &request{path: "/execute", shape: shape, seedA: 3, seedB: 4}
	good := record{path: "/execute", status: http.StatusOK}
	bad := record{path: "/execute", status: http.StatusOK}
	v := newVerifier()
	v.check(req, body(sum), &good)
	v.check(req, body(sum+1), &bad)
	if !good.ok() {
		t.Errorf("reference checksum rejected: %v", good.err)
	}
	if bad.ok() {
		t.Error("checksum off by 1 accepted")
	}
}

// The same seed gives the same requests and schedule; another seed differs.
func TestStreamsDeterministic(t *testing.T) {
	for _, name := range workloadNames {
		a, err := newStream(name, 3)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newStream(name, 3)
		c, _ := newStream(name, 4)
		differs := false
		for i := 0; i < 64; i++ {
			ra, rb, rc := a.request(i), b.request(i), c.request(i)
			if string(ra.body) != string(rb.body) || ra.path != rb.path {
				t.Fatalf("%s request %d: %s vs %s", name, i, ra.body, rb.body)
			}
			differs = differs || string(ra.body) != string(rc.body)
		}
		if !differs {
			t.Errorf("%s: seeds 3 and 4 gave identical requests", name)
		}
		sa, sb := a.schedule(0, 5*time.Second), b.schedule(0, 5*time.Second)
		if len(sa) == 0 || len(sa) != len(sb) || sa[len(sa)-1] != sb[len(sb)-1] {
			t.Errorf("%s: schedules differ: %d vs %d arrivals", name, len(sa), len(sb))
		}
	}
}

// Shapes the server would refuse by design never reach the generator.
func TestOpsPoolStaysAdmitted(t *testing.T) {
	o := newOpsStream(1)
	lim := serve.DefaultConfig().MaxPlanElems
	refused := 0
	for _, c := range workload.Table3Suite() {
		if int64(c.Shape.M)*int64(c.Shape.N)*int64(c.Shape.K) > lim {
			refused++
		}
	}
	if refused != 10 {
		t.Errorf("%d Table 3 shapes exceed the plan limit, NOTES.md says 10", refused)
	}
	for _, s := range o.pool {
		if int64(s.M)*int64(s.N)*int64(s.K) > lim {
			t.Fatalf("pool shape %v exceeds the plan limit", s)
		}
	}
	maxExec := serve.DefaultConfig().MaxExecElems
	for _, s := range o.exec {
		for _, e := range []int64{int64(s.M) * int64(s.K), int64(s.K) * int64(s.N), int64(s.M) * int64(s.N)} {
			if e > maxExec {
				t.Fatalf("execute shape %v exceeds MaxExecElems", s)
			}
		}
	}
	if len(o.pool) <= 1024 {
		t.Errorf("pool of %d shapes fits the 1,024-entry program cache", len(o.pool))
	}
}
