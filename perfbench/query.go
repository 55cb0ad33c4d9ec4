package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"maps"
	"net"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"time"

	"doscope/internal/attack"
	"doscope/internal/federation"
	"doscope/internal/httpapi"
	"doscope/internal/netx"
)

const numSites = 3

// siteOf splits the corpus by target /24, so a plan with a /24 or
// longer prefix touches one site's data while every site sees every
// counting plan.
func siteOf(a netx.Addr) int { return int(mix(uint64(a>>8)) % numSites) }

// apiServer is the HTTP listener in front of httpapi.Server.
type apiServer struct {
	hs   *http.Server
	base string
	done chan struct{}
}

func startAPI(backends []attack.Queryable, t *tracer) (*apiServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	api := httpapi.NewServer(backends)
	var h http.Handler = api
	if t != nil {
		h = t.traceHandler(api)
	}
	s := &apiServer{hs: &http.Server{Handler: h}, base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed after stop
	}()
	return s, nil
}

func (s *apiServer) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.hs.Shutdown(ctx); err != nil {
		s.hs.Close()
	}
	<-s.done
}

// site is one in-process federation site.
type site struct {
	srv  *federation.Server
	ln   net.Listener
	done chan struct{}
}

// deployment is one set-up of a query workload.
type deployment struct {
	stores  []*attack.Store // local store, or each site's store
	sites   []*site
	remotes []*federation.RemoteStore
	api     *apiServer
}

func (d *deployment) stop() {
	d.api.stop()
	for _, r := range d.remotes {
		r.Close()
	}
	for _, s := range d.sites {
		s.ln.Close()
		s.srv.Shutdown()
		<-s.done
	}
}

// warm builds the lazy indexes the API's plans use: the count index
// and the by-target permutations.
func warm(st *attack.Store, probe netx.Addr) {
	_, _ = st.PlanCount(attack.PlanAll()) // local stores never fail
	p := attack.PlanAll()
	p.HasPrefix, p.PrefixBits, p.Prefix = true, 16, probe.Mask(16)
	_, _ = st.PlanCount(p)
}

// verifier checks responses against the oracle. While load runs it
// only hashes each body: later bodies of a URL must be byte-identical
// to the first, which it keeps. verify then decodes the kept bodies and
// compares them in full, so the oracle's cost stays out of the
// measured phases.
type verifier struct {
	reqs  []request
	want  []any
	mu    sync.Mutex
	good  map[int]uint64 // hash of the first body of each URL
	first map[int][]byte // first bodies not yet verified
}

func newVerifier(o *oracle, reqs []request) *verifier {
	v := &verifier{reqs: reqs, want: make([]any, len(reqs)), good: map[int]uint64{}, first: map[int][]byte{}}
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := w; k < len(reqs); k += workers {
				v.want[k] = o.expect(reqs[k])
			}
		}()
	}
	wg.Wait()
	return v
}

func (v *verifier) check(k int, _ time.Time, body []byte) error {
	h := fnv.New64a()
	h.Write(body)
	sum := h.Sum64()
	v.mu.Lock()
	defer v.mu.Unlock()
	if g, seen := v.good[k]; seen {
		if g != sum {
			return fmt.Errorf("%s: body differs from an earlier answer to the same URL", v.reqs[k].url)
		}
		return nil
	}
	v.good[k] = sum
	v.first[k] = body
	return nil
}

// verify compares every first body kept since the last call with the
// oracle. Each mismatch is a failure of a request already attempted.
func (v *verifier) verify() phaseResult {
	v.mu.Lock()
	defer v.mu.Unlock()
	var r phaseResult
	for _, k := range slices.Sorted(maps.Keys(v.first)) {
		got, err := decode(v.reqs[k].kind, v.first[k])
		if err == nil {
			err = sameAnswer(got, v.want[k])
		}
		if err != nil {
			r.fail(fmt.Errorf("%s: %v", v.reqs[k].url, err))
		}
	}
	clear(v.first)
	return r
}

// runQuery runs query-local (one segment-opened store) or federated
// (the same corpus split across three sites behind DOSFED01 clients).
func runQuery(cfg config, fed bool) (*outcome, error) {
	sc := cfg.sc
	prov := provenance(cfg)

	// Inputs: the corpus, its oracle, the URL set and the schedule.
	began := time.Now()
	c := newCorpus(cfg.seed, sc.corpusEvents, 0, sc.corpusDays)
	o := newOracle(sc.corpusEvents)
	o.full = c.event
	h := fnv.New64a()
	var e attack.Event
	for i := 0; i < sc.corpusEvents; i++ {
		c.event(i, &e)
		hashEvent(h, &e)
		o.add(&e)
	}
	o.finish()
	var segs [][]byte
	parts := 1
	if fed {
		parts = numSites
	}
	for part := 0; part < parts; part++ {
		keep := func(e *attack.Event) bool { return !fed || siteOf(e.Target) == part }
		st := attack.NewStore(c.events(0, sc.corpusEvents, keep))
		var buf bytes.Buffer
		if err := st.WriteSegment(&buf); err != nil {
			return nil, fmt.Errorf("write segment: %w", err)
		}
		segs = append(segs, buf.Bytes())
	}
	progress(began, "corpus and segments ready")
	u := buildUniverse(cfg.seed, o, sc.corpusDays, sc.mix)
	sched := u.schedule(cfg.seed, sc.schedLen)
	ver := newVerifier(o, u.reqs)
	urls := make([]string, len(u.reqs))
	for k, q := range u.reqs {
		urls[k] = q.url
	}
	segBytes := 0
	for _, s := range segs {
		segBytes += len(s)
	}
	rate := sc.queryRate
	if fed {
		rate = sc.fedRate
	}
	prov["corpus_events"] = sc.corpusEvents
	prov["distinct_targets"] = o.distinct
	prov["distinct_urls"] = len(u.reqs)
	prov["offered_rps"] = rate
	prov["connections"] = runtime.NumCPU()
	prov["inputs_hash"] = fmt.Sprintf("%016x", h.Sum64()^u.hash(sched))

	var t *tracer
	if cfg.trace {
		t = newTracer()
	}
	probe := netx.Addr(o.tgt[0])
	setup := func() (*deployment, error) {
		d := &deployment{}
		var backends []attack.Queryable
		for _, seg := range segs {
			var st *attack.Store
			var err error
			t.timed("attack.segment.open", 1, func() { st, err = attack.OpenSegment(seg) })
			if err != nil {
				return nil, fmt.Errorf("open segment: %w", err)
			}
			t.timed("attack.exec.warm", 1, func() { warm(st, probe) })
			d.stores = append(d.stores, st)
			if !fed {
				if t != nil {
					backends = append(backends, localStore{st, t})
				} else {
					backends = append(backends, st)
				}
				continue
			}
			ln, err := federation.Listen("127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			s := &site{srv: federation.NewServer(st), ln: ln, done: make(chan struct{})}
			go func() {
				defer close(s.done)
				_ = s.srv.Serve(ln) // returns nil once the listener closes
			}()
			d.sites = append(d.sites, s)
			rs := federation.Dial(ln.Addr().String())
			if _, err := rs.Version(); err != nil {
				return nil, fmt.Errorf("dial site: %w", err)
			}
			d.remotes = append(d.remotes, rs)
			if t != nil {
				backends = append(backends, remoteStore{rs, t})
			} else {
				backends = append(backends, rs)
			}
		}
		api, err := startAPI(backends, t)
		if err != nil {
			return nil, err
		}
		d.api = api
		return d, nil
	}
	progress(began, "oracle answers ready")
	d, setupS, heapMB, err := setupRuns(sc.setups, nil, setup, (*deployment).stop)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	progress(began, "set-ups done")

	cl := newClient(d.api.base, runtime.NumCPU())
	defer cl.close()
	// Phase i reads the schedule from its own offset, so every phase's
	// request sequence depends on the seed alone.
	phase := 0
	phaseSeq := func() func(int) int {
		base := phase * len(sched) / 16
		phase++
		return func(n int) int { return int(sched[(base+n)%len(sched)]) }
	}

	out := &outcome{metrics: map[string]float64{}, provenance: prov}
	S := time.Duration(cfg.seconds * float64(time.Second))
	conns := runtime.NumCPU()
	out.add(cl.closedLoop(urls, phaseSeq(), S*10/100, conns, ver.check, false)) // fill the cache
	out.add(ver.verify())

	m := out.metrics
	m["setup_s"], m["heap_mb"] = setupS, heapMB
	if !cfg.trace {
		// Rounds of open then closed loop. Latency percentiles pool the
		// open-loop samples of all rounds; the rate is the median round,
		// so a spell of host CPU steal moves one round, not the result.
		var lat, late, sats []float64
		var opens []phaseResult
		for r := 0; r < rounds; r++ {
			open := cl.openLoop(urls, phaseSeq(), rate, S*65/100/rounds, conns, ver.check, false)
			closed := cl.closedLoop(urls, phaseSeq(), S*25/100/rounds, conns, ver.check, false)
			out.add(open)
			out.add(closed)
			opens = append(opens, open)
			lat, late = append(lat, open.lat...), append(late, open.late...)
			sats = append(sats, float64(len(closed.lat))/closed.elapsed.Seconds())
		}
		out.add(ver.verify())
		m["req_p50_ms"], m["req_p99_ms"], m["sat_rps"] = quantile(lat, 0.5), quantile(lat, 0.99), median(sats)
		prov["open_samples"] = len(lat)
		prov["sat_rps_by_round"] = sats
		prov["late_p99_ms"] = quantile(late, 0.99)
		prov["open_p50_p99_ms_by_endpoint"] = byPath(urls, opens...)
		return out, nil
	}

	base := cl.openLoop(urls, phaseSeq(), rate, S*30/100, conns, ver.check, false)
	out.add(base)
	stats0 := fetchStats(cl)
	exec0 := execStats(d.stores)
	wire0 := wireBytes(d.remotes)
	bytes0 := cl.bytes.Load()
	snap0 := takeSnapshot()
	t.on.Store(true)
	traced := cl.openLoop(urls, phaseSeq(), rate, S*30/100, conns, ver.check, true)
	stats1 := fetchStats(cl)
	closed := cl.closedLoop(urls, phaseSeq(), S*25/100, conns, ver.check, false)
	t.on.Store(false)
	snap1 := takeSnapshot()
	out.add(traced)
	out.add(closed)
	out.add(ver.verify())
	reqs := traced.attempted + closed.attempted
	exec1 := execStats(d.stores)

	layerHTTP(m, t, traced, stats0, stats1, float64(cl.bytes.Load()-bytes0)/float64(reqs))
	layerExec(m, t, exec0, exec1, reqs)
	m["attack.segment.open_ms"] = median(t.byName("attack.segment.open")) * float64(len(segs))
	m["attack.exec.warm_ms"] = median(t.byName("attack.exec.warm")) * float64(len(segs))
	m["attack.segment.bytes_per_event"] = float64(segBytes) / float64(sc.corpusEvents)
	if fed {
		cnt := t.byName("federation.count")
		m["federation.count_rtt.p50_us"] = quantile(cnt, 0.5) * 1000
		m["federation.count_rtt.p99_us"] = quantile(cnt, 0.99) * 1000
		st := t.byName("federation.store")
		m["federation.store_rtt.p50_ms"], m["federation.store_rtt.p99_ms"] = quantile(st, 0.5), quantile(st, 0.99)
		m["federation.wire_kb_per_req"] = float64(wireBytes(d.remotes)-wire0) / 1024 / float64(reqs)
	}
	runtimeMetrics(m, snap0, snap1, reqs)
	m["harness.late_p99_ms"] = quantile(traced.late, 0.99)
	m["harness.trace_overhead"] = quantile(traced.lat, 0.5) / quantile(base.lat, 0.5)
	prov["cache_lookups"] = (stats1.CacheHits + stats1.CacheMisses) - (stats0.CacheHits + stats0.CacheMisses)
	prov["traced_samples"] = len(traced.lat)
	if cfg.traceDir != "" {
		path := fmt.Sprintf("%s/%s-seed%d.ndjson", cfg.traceDir, cfg.workload, cfg.seed)
		if err := t.write(path); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		prov["spans"] = path
	}
	return out, nil
}
