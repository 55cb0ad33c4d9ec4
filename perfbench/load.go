package main

import (
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// client issues the benchmark's HTTP requests over at most conns
// connections and counts what it sends.
type client struct {
	hc    *http.Client
	base  string
	reqID atomic.Uint64
	bytes atomic.Int64
}

func newClient(base string, conns int) *client {
	return &client{base: base, hc: &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// get fetches one URL and returns its body. The request id header lets
// a traced run pair the client's latency with the handler's span.
func (c *client) get(path string) (id uint64, body []byte, err error) {
	id = c.reqID.Add(1)
	req, err := http.NewRequest(http.MethodGet, c.base+path, nil)
	if err != nil {
		return id, nil, err
	}
	req.Header.Set(reqHeader, strconv.FormatUint(id, 10))
	resp, err := c.hc.Do(req)
	if err != nil {
		return id, nil, err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	c.bytes.Add(int64(len(body)))
	if err != nil {
		return id, nil, err
	}
	if resp.StatusCode/100 != 2 {
		return id, nil, fmt.Errorf("GET %s: status %d: %.200s", path, resp.StatusCode, body)
	}
	return id, body, nil
}

// checker validates one response body for URL k of the workload's URL
// set, for a request sent at sent; a non-nil error is an oracle
// mismatch.
type checker func(k int, sent time.Time, body []byte) error

// phaseResult is what one load phase measured.
type phaseResult struct {
	lat       []float64 // ms, from due time (open loop) or send time (closed loop)
	urls      []int     // URL index of each lat sample
	late      []float64 // ms the open-loop dispatcher ran behind schedule
	clientLat map[uint64]float64
	attempted int
	failed    int
	errs      []string
	elapsed   time.Duration
}

func (r *phaseResult) fail(err error) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err.Error())
	}
}

// record bookkeeping shared by both loops, under mu.
type recorder struct {
	mu  sync.Mutex
	res phaseResult
	ids bool
}

func (rec *recorder) done(id uint64, k int, lat time.Duration, err error) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.res.attempted++
	if err != nil {
		rec.res.fail(err)
		return
	}
	ms := float64(lat) / 1e6
	rec.res.lat = append(rec.res.lat, ms)
	rec.res.urls = append(rec.res.urls, k)
	if rec.ids {
		rec.res.clientLat[id] = ms
	}
}

// do fetches URL k and checks the answer. It returns when the response
// arrived, so latencies exclude the client's own checking.
func (c *client) do(urls []string, k int, check checker) (uint64, time.Time, error) {
	sent := time.Now()
	id, body, err := c.get(urls[k])
	arrived := time.Now()
	if err == nil && check != nil {
		err = check(k, sent, body)
	}
	return id, arrived, err
}

// openLoop offers requests at a fixed rate for d: request n is due at
// n/rate, is timed from that moment, and waits for a free connection
// if all are busy — so a stall shows up in the latency of every request
// it delays. seq yields the n-th request's URL index.
func (c *client) openLoop(urls []string, seq func(n int) int, rate float64, d time.Duration, workers int, check checker, keepIDs bool) phaseResult {
	type job struct {
		k   int
		due time.Time
	}
	total := int(rate * d.Seconds())
	// Sized to the whole schedule so the dispatcher never blocks on
	// busy workers: backlog waits here, inside the measured latency.
	jobs := make(chan job, total)
	rec := &recorder{ids: keepIDs}
	if keepIDs {
		rec.res.clientLat = map[uint64]float64{}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				id, arrived, err := c.do(urls, j.k, check)
				rec.done(id, j.k, arrived.Sub(j.due), err)
			}
		}()
	}
	start := time.Now()
	late := make([]float64, 0, total)
	for n := 0; n < total; n++ {
		due := start.Add(time.Duration(float64(n) / rate * 1e9))
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		late = append(late, float64(time.Since(due))/1e6)
		jobs <- job{seq(n), due}
	}
	close(jobs)
	wg.Wait()
	rec.res.late = late
	rec.res.elapsed = time.Since(start)
	return rec.res
}

// closedLoop runs conns clients back to back for d: each sends its next
// request as soon as the previous answer arrives.
func (c *client) closedLoop(urls []string, seq func(n int) int, d time.Duration, conns int, check checker, keepIDs bool) phaseResult {
	rec := &recorder{ids: keepIDs}
	if keepIDs {
		rec.res.clientLat = map[uint64]float64{}
	}
	var next atomic.Int64
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				k := seq(int(next.Add(1) - 1))
				t0 := time.Now()
				id, arrived, err := c.do(urls, k, check)
				rec.done(id, k, arrived.Sub(t0), err)
			}
		}()
	}
	wg.Wait()
	rec.res.elapsed = time.Since(start)
	return rec.res
}

// quantile returns the q-quantile of xs by the nearest-rank method.
// Zero samples give 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = slices.Clone(xs)
	slices.Sort(xs)
	i := int(q*float64(len(xs))+0.999999) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

// byPath returns p50 and p99 latency per URL path (endpoint), over the
// samples of the given phases, for the report.
func byPath(urls []string, phases ...phaseResult) map[string][2]float64 {
	lat := map[string][]float64{}
	for _, p := range phases {
		for i, k := range p.urls {
			path, _, _ := strings.Cut(urls[k], "?")
			lat[path] = append(lat[path], p.lat[i])
		}
	}
	out := map[string][2]float64{}
	for path, xs := range lat {
		out[path] = [2]float64{quantile(xs, 0.5), quantile(xs, 0.99)}
	}
	return out
}
