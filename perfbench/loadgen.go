package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// record is what the run keeps of one sent request: the fields the
// metrics, the replay comparison and the failure report read. The request
// itself is rebuilt from idx when needed and the response body is verified
// and dropped as it arrives, so a record is small: beyond a /generate
// digest or a rare error it points at nothing on the heap. Times are offsets from the start of
// the record's phase; due is the open-loop schedule slot (the send time for
// closed-loop requests).
type record struct {
	idx  int
	path string

	due, start, end time.Duration

	status  int
	bytes   int
	cycles  float64 // sim_cycles: /plan, /execute, /model
	ttftMs  float64 // /generate
	digest  string  // /generate
	err     error   // transport error, or the verifier's verdict
	skipped bool    // sim_skipped: /plan
	sloGood bool    // /generate
}

// latency is due time to last byte read: a request that waited for a busy
// connection is charged the wait.
func (r *record) latency() time.Duration { return r.end - r.due }

// late is how far behind schedule the generator sent the request.
func (r *record) late() time.Duration { return r.start - r.due }

// ok reports a 200 whose body passed verification.
func (r *record) ok() bool { return r.status == http.StatusOK && r.err == nil }

// sendFunc issues req and fills rec's status, bytes, reply fields and err.
type sendFunc func(req *request, rec *record)

// openLoop sends requests first, first+1, … at the given due offsets over
// conns connections. A worker takes the next request in due order as soon
// as it is free, sleeping until the request is due; a request that comes
// due while every worker is busy waits, and its latency still counts from
// its due time.
func openLoop(first int, due []time.Duration, conns int, mk func(i int) *request, send sendFunc) []record {
	recs := make([]record, len(due))
	var next atomic.Int64
	t0 := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(due) {
					return
				}
				if d := due[k] - time.Since(t0); d > 0 {
					time.Sleep(d)
				}
				req := mk(first + k)
				rec := &recs[k]
				rec.idx, rec.path, rec.due, rec.start = req.idx, req.path, due[k], time.Since(t0)
				send(req, rec)
				rec.end = time.Since(t0)
			}
		}()
	}
	wg.Wait()
	return recs
}

// closedLoop runs conns clients for d, each sending its next request when
// the last one returns. Requests are drawn in order from next.
func closedLoop(d time.Duration, conns int, next func() *request, send sendFunc) []record {
	var mu sync.Mutex
	var recs []record
	t0 := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(t0) < d {
				mu.Lock()
				req := next()
				mu.Unlock()
				if req == nil {
					return
				}
				start := time.Since(t0)
				rec := record{idx: req.idx, path: req.path, due: start, start: start}
				send(req, &rec)
				rec.end = time.Since(t0)
				mu.Lock()
				recs = append(recs, rec)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return recs
}

// poissonSchedule returns the due offsets of a Poisson arrival process at
// rate per second over d, drawn from a seeded stream.
func poissonSchedule(seed uint64, rate float64, d time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for i := uint64(0); ; i++ {
		t += -math.Log(1-unit(seed, i)) / rate
		if t >= d.Seconds() {
			return out
		}
		out = append(out, time.Duration(t*float64(time.Second)))
	}
}

// httpSender posts requests to one server over a bounded connection pool
// and verifies each response as it arrives.
type httpSender struct {
	base string
	hc   *http.Client
	ver  *verifier
}

func newHTTPSender(base string, conns int, ver *verifier) *httpSender {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &httpSender{base: base, hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, ver: ver}
}

func (h *httpSender) send(req *request, rec *record) {
	hr, err := http.NewRequest(http.MethodPost, h.base+req.path, bytes.NewReader(req.body))
	if err != nil {
		rec.err = err
		return
	}
	hr.Header.Set("Content-Type", "application/json")
	if req.tenant != "" {
		hr.Header.Set("X-Tenant", req.tenant)
	}
	resp, err := h.hc.Do(hr)
	if err != nil {
		rec.err = err
		return
	}
	defer resp.Body.Close()
	rec.status = resp.StatusCode
	body, err := io.ReadAll(resp.Body)
	rec.bytes = len(body)
	var rp reply
	switch {
	case err != nil:
		rec.err = err
	case rec.status != http.StatusOK:
		rec.err = fmt.Errorf("status %d: %s", rec.status, bytes.TrimSpace(body))
	default:
		if rec.err = json.Unmarshal(body, &rp); rec.err == nil {
			h.ver.check(req, &rp, rec)
		}
	}
}

func (h *httpSender) close() { h.hc.CloseIdleConnections() }

// failedFrac is the share of records that did not return a verified 200.
func failedFrac(recs []record) float64 {
	failed := 0
	for i := range recs {
		r := &recs[i]
		if !r.ok() {
			failed++
		}
	}
	return ratio(float64(failed), float64(len(recs)))
}
