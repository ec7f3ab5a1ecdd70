package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mikpoly/internal/core"
	"mikpoly/internal/kvcache"
	"mikpoly/internal/obs"
	"mikpoly/internal/sched"
	"mikpoly/internal/serve"
	"mikpoly/internal/tune"
)

// serverConfig is the serve.Config `mikserve -sched` builds with every
// other flag at its default: tracing on, plan-ahead 2, decode batching on,
// fusion off, the generation scheduler with its default KV arena.
func serverConfig(o *obs.Obs) serve.Config {
	return serve.Config{
		DecodeBatch: true,
		PlanAhead:   2,
		SchedDecode: true,
		Obs:         o,
	}
}

// newObs is mikserve's observability default: a tracer of the default
// capacity, enabled.
func newObs() *obs.Obs {
	o := obs.New(obs.DefaultTraceCapacity)
	o.T().SetEnabled(true)
	return o
}

// compilerOptions are mikserve's defaults for the compiler it binds.
func compilerOptions(o *obs.Obs) []core.Option {
	return []core.Option{core.WithCacheCapacity(core.DefaultCacheCapacity), core.WithObs(o), core.WithPlannerWorkers(0)}
}

// liveServer is one in-process server on a loopback port.
type liveServer struct {
	srv  *serve.Server
	hs   *http.Server
	done chan error
	base string
	lib  *tune.Library
}

// startServer binds the socket and serves immediately, as mikserve does;
// work endpoints answer 503 until a compiler is bound. It returns the
// set-up time (tune.Generate to the first 200 from /healthz) and the
// tune.Generate time.
func startServer() (*liveServer, float64, float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, 0, fmt.Errorf("listen: %w", err)
	}
	o := newObs()
	ls := &liveServer{srv: serve.New(nil, serverConfig(o)), done: make(chan error, 1), base: "http://" + ln.Addr().String()}
	ls.hs = &http.Server{Handler: ls.srv.Handler(), ReadTimeout: 15 * time.Second, WriteTimeout: 30 * time.Second, IdleTimeout: 2 * time.Minute}
	go func() { ls.done <- ls.hs.Serve(ln) }()

	t0 := time.Now()
	lib, err := tune.Generate(a100, tune.DefaultOptions())
	if err != nil {
		ls.close()
		return nil, 0, 0, fmt.Errorf("tune.Generate: %w", err)
	}
	tuneS := time.Since(t0).Seconds()
	ls.lib = lib
	ls.srv.SetCompiler(core.NewCompilerFromLibrary(lib, compilerOptions(o)...))
	hc := &http.Client{Timeout: 5 * time.Second}
	defer hc.CloseIdleConnections()
	for {
		resp, err := hc.Get(ls.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(t0) > 60*time.Second {
			ls.close()
			return nil, 0, 0, fmt.Errorf("/healthz not ready after 60s")
		}
		time.Sleep(time.Millisecond)
	}
	return ls, time.Since(t0).Seconds(), tuneS, nil
}

// close shuts the HTTP server down and stops the serving layer's
// background loops, waiting for both.
func (ls *liveServer) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = ls.hs.Shutdown(ctx) // a timeout leaves nothing to undo: Close follows
	_ = ls.hs.Close()
	<-ls.done
	ls.srv.Close()
}

// serverStats is the part of /stats the benchmark reads.
type serverStats struct {
	Rejected       int64           `json:"rejected"`
	Plans          int             `json:"plans"`
	PlanCandidates int             `json:"plan_candidates"`
	Cache          core.CacheStats `json:"cache"`
	Fallbacks      int64           `json:"fallbacks"`
	Graph          struct {
		Graphs   int64   `json:"graphs"`
		PlanMs   float64 `json:"plan_ms"`
		StallMs  float64 `json:"stall_ms"`
		HiddenMs float64 `json:"hidden_ms"`
	} `json:"graph"`
	Sched struct {
		sched.Stats
		TokenRejected int64 `json:"token_rejected"`
	} `json:"sched"`
	KV kvcache.Stats `json:"kv"`
}

func (ls *liveServer) stats() (serverStats, error) {
	var st serverStats
	resp, err := http.Get(ls.base + "/stats")
	if err != nil {
		return st, fmt.Errorf("GET /stats: %w", err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("decode /stats: %w", err)
	}
	return st, nil
}

// resetPeakRSS resets the process's resident-set high-water mark to its
// current resident set, so a later peakRSSMB covers only what follows.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset VmHWM: %w", err)
	}
	return nil
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// cpuTime is the process's user plus system CPU time. Unlike wall time it
// does not grow when the host takes the CPU away from the process.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
