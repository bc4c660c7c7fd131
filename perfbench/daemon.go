package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"mperf/pkg/mperf"
	"mperf/pkg/mperfd"
	"mperf/pkg/mperfd/client"
)

// daemonWorkload serves tiny profile requests from mperfd in the same
// process over loopback HTTP: an open loop at a fixed offered rate,
// then a closed loop with one client per CPU.
type daemonWorkload struct {
	cache    *mperf.ProgramCache
	srv      *mperfd.Server
	http     *http.Server
	served   chan struct{} // closed when the HTTP server's Serve returns
	client   *client.Client
	expected map[daemonRequest][]byte
}

// daemonRequest is one request shape; the workload alternates
// platforms and draws the collector set from the seed.
type daemonRequest struct {
	platform string
	topdown  bool
}

const (
	// openLoopRate is the open loop's fixed offered load in requests
	// per second, about 40% of what the closed loop completes on a
	// 2-CPU host. It is a constant so that every commit sees the same
	// load.
	openLoopRate = 400
	// openLoopShare is the share of the measured time spent in the open
	// loop; the closed loop gets the rest.
	openLoopShare = 0.6
	// daemonElems sizes the dot kernel of every request.
	daemonElems = 256
	// warmupRequests is the set-up's warm-up wave: the first wave runs
	// markedly slower than later ones.
	warmupRequests = 800
	// waveRequests is one closed-loop pass.
	waveRequests = 128
)

var daemonShapes = []daemonRequest{{"x60", false}, {"x60", true}, {"i5", false}, {"i5", true}}

func (q daemonRequest) wire() mperfd.ProfileRequest {
	cols := []string{"stat"}
	if q.topdown {
		cols = append(cols, "topdown")
	}
	return mperfd.ProfileRequest{Platform: q.platform, Workload: "dot", Collectors: cols,
		Sizing: mperfd.Sizing{Elems: daemonElems}}
}

// clients is the number of connections and concurrent requests.
func clients() int { return runtime.NumCPU() }

// daemonKeys lists the one program every request shape runs: stat and
// topdown both profile the raw build.
func daemonKeys(cache *mperf.ProgramCache) ([]buildKey, error) {
	sess, err := mperf.Open("x60", "dot", mperf.WithElems(daemonElems), mperf.WithProgramCache(cache))
	if err != nil {
		return nil, err
	}
	return []buildKey{{sess, false, false}}, nil
}

func (w *daemonWorkload) setup(r *run) error {
	w.cache = mperf.NewProgramCache()
	keys, err := daemonKeys(w.cache)
	if err != nil {
		return err
	}
	// The key compiles in under a millisecond, so the cycle repeats.
	if err := r.fill(w.cache, keys, 200); err != nil {
		return err
	}
	private := mperf.NewProgramCache()
	if keys, err = daemonKeys(private); err != nil {
		return err
	}
	r.measureColdWarm(private, keys, 1)
	w.expected = map[daemonRequest][]byte{}
	for _, q := range daemonShapes {
		b, err := inProcessProfile(w.cache, q)
		if err != nil {
			return err
		}
		w.expected[q] = b
	}

	w.srv = mperfd.New(mperfd.Config{Workers: clients(), Cache: w.cache})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.http = &http.Server{Handler: w.srv.Handler()}
	w.served = make(chan struct{})
	go func() {
		defer close(w.served)
		_ = w.http.Serve(ln) // returns ErrServerClosed on close
	}()
	w.client = client.New(ln.Addr().String())
	// Refused requests count as failed, so nothing is retried.
	w.client.Retry = client.RetryPolicy{MaxAttempts: 1}

	_, _, err = w.closedLoop(r, r.newRand(4), warmupRequests)
	return err
}

// inProcessProfile is the reference a daemon response must equal.
func inProcessProfile(cache *mperf.ProgramCache, q daemonRequest) ([]byte, error) {
	req := q.wire()
	sess, err := mperf.Open(req.Platform, req.Workload, append(req.Options(), mperf.WithProgramCache(cache))...)
	if err != nil {
		return nil, err
	}
	cols, err := mperf.Collectors(req.Collectors...)
	if err != nil {
		return nil, err
	}
	prof, err := sess.Run(cols...)
	if err != nil {
		return nil, err
	}
	if err := prof.Err(); err != nil {
		return nil, err
	}
	return profileBytes(prof)
}

func (w *daemonWorkload) close() {
	if w.http == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = w.http.Shutdown(ctx) // closes the listener and idle connections
	<-w.served
	_ = w.srv.Shutdown(ctx) // every request has returned; nothing is queued
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	w.http = nil
}

// request sends one request and checks the response.
func (w *daemonWorkload) request(q daemonRequest) error {
	prof, err := w.client.Profile(context.Background(), q.wire(), nil)
	if err != nil {
		return err
	}
	return checkResponse(prof, w.expected[q])
}

func (w *daemonWorkload) measure(r *run, budget time.Duration) error {
	open := time.Duration(float64(budget) * openLoopShare)
	lags, err := w.openLoop(r, open)
	if err != nil {
		return err
	}
	r.extra["daemon.generator_lag_ms"] = median(lags) * 1e3
	if label, v, ok := tailPercentile(r.requests); ok {
		r.extra["request_"+label+"_ms"] = v * 1e3
	}

	rng := r.newRand(5)
	var done int
	var busy time.Duration
	err = r.repeat(budget-open, 3, func() error {
		n, d, err := w.closedLoop(r, rng, waveRequests)
		done += n
		busy += d
		return err
	})
	if busy > 0 {
		r.extra["requests_per_s"] = float64(done) / busy.Seconds()
	}
	st := w.srv.Stats()
	r.extra["mperfd.rejected"] = float64(st.Rejected + st.Limited)
	r.extra["mperfd.deadline_misses"] = float64(st.DeadlineMisses)
	return err
}

// shapes draws n request shapes: platforms alternate, the collector
// set comes from rng.
func shapes(rng *rand.Rand, n int) []daemonRequest {
	out := make([]daemonRequest, n)
	for i := range out {
		out[i] = daemonRequest{platform: []string{"x60", "i5"}[i%2], topdown: rng.IntN(2) == 1}
	}
	return out
}

// openLoop offers requests at openLoopRate with seeded exponential
// gaps for the given duration, on at most clients() connections.
// Each latency is timed from the request's due time, so a stall also
// counts against the requests that queued behind it. It returns how
// late the generator woke for each request.
func (w *daemonWorkload) openLoop(r *run, d time.Duration) (lags []float64, err error) {
	rng := r.newRand(6)
	n := int(d.Seconds() * openLoopRate)
	qs := shapes(rng, n)
	offsets := make([]time.Duration, n)
	var t float64
	for i := range offsets {
		t += rng.ExpFloat64() / openLoopRate
		offsets[i] = time.Duration(t * float64(time.Second))
	}

	type job struct {
		due time.Time
		q   daemonRequest
	}
	jobs := make(chan job)
	lat := make([][]float64, clients())
	errs := make([][]error, clients())
	var wg sync.WaitGroup
	for c := 0; c < clients(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				err := w.request(j.q)
				lat[c] = append(lat[c], time.Since(j.due).Seconds())
				errs[c] = append(errs[c], err)
			}
		}()
	}
	start := time.Now()
	for i, off := range offsets {
		due := start.Add(off)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		lags = append(lags, time.Since(due).Seconds())
		jobs <- job{due: due, q: qs[i]}
	}
	close(jobs)
	wg.Wait()
	for c := range lat {
		r.requests = append(r.requests, lat[c]...)
		for _, e := range errs[c] {
			r.op(e)
		}
	}
	if len(lags) == 0 {
		return nil, errors.New("open loop offered no requests")
	}
	return lags, nil
}

// closedLoop sends n requests from clients() clients, each waiting for
// its reply before sending the next, and returns how many completed
// and the wall time of the wave.
func (w *daemonWorkload) closedLoop(r *run, rng *rand.Rand, n int) (int, time.Duration, error) {
	qs := shapes(rng, n)
	next := make(chan daemonRequest, n) // holds the whole wave
	for _, q := range qs {
		next <- q
	}
	close(next)
	errs := make([][]error, clients())
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := range next {
				errs[c] = append(errs[c], w.request(q))
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	failed := 0
	for c := range errs {
		for _, e := range errs[c] {
			r.op(e)
			if e != nil {
				failed++
			}
		}
	}
	if failed == n {
		return 0, elapsed, fmt.Errorf("every request of a %d-request wave failed", n)
	}
	return n - failed, elapsed, nil
}
