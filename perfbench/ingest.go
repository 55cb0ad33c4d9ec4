package main

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"maps"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"doscope/internal/amppot"
	"doscope/internal/attack"
	"doscope/internal/netx"
)

// obs is one scheduled honeypot request of the ingest-live replay.
type obs struct {
	ts     int64
	victim netx.Addr
	vec    attack.Vector
	inst   uint8
}

// requestPayload is a valid request for each emulated protocol, so
// every scheduled observation is logged.
var requestPayload = map[attack.Vector][]byte{
	attack.VectorNTP:     {0x17, 0x00, 0x03, 0x2a, 0, 0, 0, 0},
	attack.VectorDNS:     append([]byte{0x12, 0x34, 0x01, 0x00, 0, 1, 0, 0, 0, 0, 0, 0}, "\x03isc\x03org\x00\x00\xff\x00\x01"...),
	attack.VectorCharGen: {0x0a},
	attack.VectorSSDP:    []byte("M-SEARCH * HTTP/1.1\r\nHOST: 239.255.255.250:1900\r\nMAN: \"ssdp:discover\"\r\nMX: 1\r\nST: ssdp:all\r\n\r\n"),
	attack.VectorRIPv1:   {1, 1, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 16},
	attack.VectorQOTD:    {0x0a},
	attack.VectorMSSQL:   {0x02},
	attack.VectorTFTP:    []byte("\x00\x01file\x00octet\x00"),
}

// replaySchedule generates attack flows against Zipf-skewed victims and
// returns their observations in time order, at least want of them.
// Flows start every ~5 minutes of logical time from day0 on; a fifth of
// them stay below the 100-request event threshold. Request gaps stay
// far below the collector's gap timeout, so each flow is one event
// unless it merges with a concurrent flow on the same key.
func replaySchedule(seed uint64, space targetSpace, want, day0 int) []obs {
	r := newRNG(seed, 20, 0)
	var out []obs
	t := attack.DayStart(day0)
	for f := 0; len(out) < want; f++ {
		t += int64(1 + r.intn(600))
		victim := space.target(&r)
		vec := honeypotVectors[r.pick(honeypotWeights)]
		n := 101 + r.intn(300)
		if r.float() < 0.2 {
			n = 10 + r.intn(90)
		}
		ts := t
		for k := 0; k < n; k++ {
			out = append(out, obs{ts: ts, victim: victim, vec: vec, inst: uint8(r.intn(amppot.FleetSize))})
			ts += int64(1 + r.intn(20))
		}
	}
	slices.SortStableFunc(out, func(a, b obs) int { return cmp.Compare(a.ts, b.ts) })
	return out
}

// producer replays the schedule into a fleet and publishes its replay
// watermark: every observation still due has a timestamp at or after
// it, so a drain at the watermark never splits a flow that is still
// receiving requests.
type producer struct {
	fleet *amppot.Fleet
	sched []obs
	pos   int // next observation; producer goroutine only
	wm    atomic.Int64
	t     *tracer
}

// handle replays the next n observations (fewer at the schedule's end)
// and returns how many it replayed.
func (p *producer) handle(n int) int {
	n = min(n, len(p.sched)-p.pos)
	if n <= 0 {
		return 0
	}
	run := func() {
		for _, o := range p.sched[p.pos : p.pos+n] {
			p.fleet.HandleRequest(int(o.inst), o.ts, o.victim, o.vec, requestPayload[o.vec])
		}
	}
	if p.t != nil && p.t.on.Load() {
		p.t.timed("amppot.handle", n, run)
	} else {
		run()
	}
	p.pos += n
	p.wm.Store(p.sched[p.pos-1].ts)
	return n
}

// run replays at rate observations/s (flat out when rate <= 0) until
// stop closes or the schedule ends. It returns the count replayed and,
// if the schedule ran out, when it did.
func (p *producer) run(rate float64, stop <-chan struct{}) (done int, ranOut time.Time) {
	const chunk = 64
	start := time.Now()
	for {
		select {
		case <-stop:
			return done, time.Time{}
		default:
		}
		n := chunk
		if rate > 0 {
			// Replay in chunks, as a capture loop drains its socket
			// buffers: sleep until a whole chunk is due.
			due := int(rate * time.Since(start).Seconds())
			if due-done < chunk {
				time.Sleep(time.Duration(float64(chunk-(due-done)) / rate * 1e9))
				continue
			}
			n = chunk
		}
		k := p.handle(n)
		if k == 0 {
			ranOut = time.Now()
			<-stop
			return done, ranOut
		}
		done += k
	}
}

// drainRec is one Fleet.DrainTo call that extracted events.
type drainRec struct {
	start  time.Time
	events int // extracted by this drain
	target int // events enqueued once the drain returned
}

// lenSample is a published length the watcher observed.
type lenSample struct {
	at time.Time
	n  int
}

// liveLoop drains the fleet at the producer's watermark and watches
// publication, recording what the lag and ingest metrics need.
type liveLoop struct {
	st       *attack.Store
	fleet    *amppot.Fleet
	prod     *producer
	t        *tracer
	mu       sync.Mutex
	drains   []drainRec
	samples  []lenSample
	queueMax int
	// watching switches the watcher to polling every 0.5 ms while lag is
	// being measured; otherwise it polls every few ms.
	watching atomic.Bool
	stop     chan struct{}
	wg       sync.WaitGroup
}

// enqueued returns the store's published length plus its queued
// events, read so that no drain published in between.
func enqueued(st *attack.Store) int {
	for {
		d1 := st.IngestStats().Drains
		l1 := st.Len()
		is := st.IngestStats()
		if st.Len() == l1 && is.Drains == d1 {
			return l1 + is.Queued
		}
	}
}

func (l *liveLoop) start() {
	l.stop = make(chan struct{})
	l.wg.Add(2)
	go func() { // drainer: the daemon's flush loop, at the watermark
		defer l.wg.Done()
		for {
			select {
			case <-l.stop:
				return
			case <-time.After(5 * time.Millisecond):
			}
			t0 := time.Now()
			var n int
			if l.t != nil && l.t.on.Load() {
				l.t.timed("amppot.drain", 1, func() { n = l.fleet.DrainTo(l.st, l.prod.wm.Load()) })
			} else {
				n = l.fleet.DrainTo(l.st, l.prod.wm.Load())
			}
			if n > 0 {
				target := enqueued(l.st)
				l.mu.Lock()
				l.drains = append(l.drains, drainRec{t0, n, target})
				l.mu.Unlock()
			}
		}
	}()
	go func() { // watcher: polls the published view at least every ms
		defer l.wg.Done()
		last := -1
		for {
			select {
			case <-l.stop:
				return
			default:
			}
			n := l.st.Len()
			q := l.st.IngestStats().Queued
			l.mu.Lock()
			if n != last {
				l.samples = append(l.samples, lenSample{time.Now(), n})
				last = n
			}
			l.queueMax = max(l.queueMax, q)
			l.mu.Unlock()
			if l.watching.Load() {
				time.Sleep(500 * time.Microsecond)
			} else {
				time.Sleep(5 * time.Millisecond)
			}
		}
	}()
}

func (l *liveLoop) halt() {
	close(l.stop)
	l.wg.Wait()
}

// lags returns, for each event drained in [from, to), the ms from the
// DrainTo call that extracted it to the first observed view holding
// everything that call enqueued.
func (l *liveLoop) lags(from, to time.Time) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []float64
	for _, d := range l.drains {
		if d.start.Before(from) || !d.start.Before(to) {
			continue
		}
		i := sort.Search(len(l.samples), func(k int) bool { return l.samples[k].n >= d.target })
		if i == len(l.samples) {
			continue // not yet published when the phase ended
		}
		lag := float64(max(l.samples[i].at.Sub(d.start), 0)) / 1e6
		for k := 0; k < d.events; k++ {
			out = append(out, lag)
		}
	}
	return out
}

// dashWindows is how many trailing day windows the dashboard polls.
const dashWindows = 32

// dashboard is the ingest-live request set: what an operator's screen
// polls while the sensors stream.
func dashboard(o *oracle, sched []obs, liveDay0, liveDays int) []request {
	// Watch the /16 of a victim under attack whose base history is
	// neither trivial nor huge, so every seed polls comparable work.
	hot := sched[len(sched)/2].victim
	for k := len(sched) / 2; k < len(sched); k += 997 {
		p := attack.PlanAll()
		p.HasPrefix, p.PrefixBits, p.Prefix = true, 16, sched[k].victim.Mask(16)
		if n := o.count(p); n >= 100 && n <= 2000 {
			hot = sched[k].victim
			break
		}
	}
	// Each panel is polled over dashWindows trailing windows, from the
	// live days alone to nearly the whole year: distinct plans, so that
	// with a publication every few ms the response cache rarely holds a
	// current answer and the reads run on the live views.
	var out []request
	last := int32(liveDay0 + liveDays - 1)
	for j := 0; j < dashWindows; j++ {
		days := attack.PlanAll()
		days.HasDays, days.DayLo, days.DayHi = true, int32(liveDay0-j*liveDay0/dashWindows), last
		hp := days
		hp.Source = int8(attack.SourceHoneypot)
		pfx := func(bits int) attack.Plan {
			p := days
			p.HasPrefix, p.PrefixBits, p.Prefix = true, uint8(bits), hot.Mask(bits)
			return p
		}
		out = append(out,
			newRequest(kCount, days, 0, 0, 0),
			newRequest(kCount, hp, 0, 0, 0),
			newRequest(kVector, hp, 0, 0, 0),
			newRequest(kDay, hp, 0, 0, 0),
			newRequest(kFig1, days, 0, 0, 0),
			newRequest(kCount, pfx(24), 0, 0, 0),
			newRequest(kFig7, pfx(16), 0, 0, 0),
			newRequest(kTargetPrefix, pfx(16), 24, 20, 0),
		)
	}
	return out
}

// liveChecker checks dashboard answers while the store grows: counting
// answers must never fall below the base corpus, nor below any answer
// to the same URL that completed before the request was sent (views
// only grow); other answers must decode, name the right plan and be
// whole. Once ingest has stopped, ceilings checks every counting answer
// against the final store, and the exact check runs.
type liveChecker struct {
	reqs []request
	base []any
	mu   sync.Mutex
	done map[int][]completion // recent completions per URL
	high map[int][]int        // highest cells seen per counting URL
}

type completion struct {
	at    time.Time
	cells []int
}

// counts flattens a counting answer into its cells.
func counts(v any) []int {
	switch b := v.(type) {
	case countBody:
		return []int{b.Count}
	case vectorBody:
		out := make([]int, len(b.Counts))
		for i, c := range b.Counts {
			out[i] = c.Count
		}
		return out
	case dayBody:
		return b.Days
	case fig1Body:
		return slices.Concat(b.Telescope, b.Honeypot, b.Combined)
	}
	return nil
}

func (c *liveChecker) check(k int, sent time.Time, body []byte) error {
	q := c.reqs[k]
	got, err := decode(q.kind, body)
	if err != nil {
		return fmt.Errorf("%s: decode: %v", q.url, err)
	}
	if !q.kind.counting() {
		switch b := got.(type) {
		case fig7Body:
			if b.Plan != q.plan.EncodeString() || len(b.Degraded) > 0 && string(b.Degraded) != "null" {
				return fmt.Errorf("%s: wrong plan or degraded answer", q.url)
			}
		case targetPrefixBody:
			if b.Plan != q.plan.EncodeString() || len(b.Degraded) > 0 && string(b.Degraded) != "null" {
				return fmt.Errorf("%s: wrong plan or degraded answer", q.url)
			}
		}
		return nil
	}
	cells := counts(got)
	c.mu.Lock()
	defer c.mu.Unlock()
	floors := []completion{{cells: counts(c.base[k])}}
	for _, d := range c.done[k] {
		if d.at.Before(sent) {
			floors = append(floors, d)
		}
	}
	for _, f := range floors {
		if len(cells) != len(f.cells) {
			return fmt.Errorf("%s: %d cells, want %d", q.url, len(cells), len(f.cells))
		}
		for i := range cells {
			if cells[i] < f.cells[i] {
				return fmt.Errorf("%s: cell %d went from %d to %d while ingest only adds", q.url, i, f.cells[i], cells[i])
			}
		}
	}
	// Answers to one URL complete nearly in order, so the last few
	// dominate every earlier one.
	recent := append(c.done[k], completion{time.Now(), cells})
	c.done[k] = recent[max(len(recent)-8, 0):]
	high := c.high[k]
	if high == nil {
		high = make([]int, len(cells))
		c.high[k] = high
	}
	for i := range cells {
		high[i] = max(high[i], cells[i])
	}
	return nil
}

// ceilings returns an error for each counting URL that answered a cell
// above the final store's: views only grow, so no answer during the
// run may exceed the answer after it.
func (c *liveChecker) ceilings(final *oracle) []error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var errs []error
	for _, k := range slices.Sorted(maps.Keys(c.high)) {
		want := counts(final.expect(c.reqs[k]))
		for i, n := range c.high[k] {
			if n > want[i] {
				errs = append(errs, fmt.Errorf("%s: cell %d reached %d during the run, above the final %d", c.reqs[k].url, i, n, want[i]))
				break
			}
		}
	}
	return errs
}

// eventHashes returns the sorted per-event hashes of a store's
// contents: equal slices mean equal event multisets.
func eventHashes(st *attack.Store) []uint64 {
	var out []uint64
	h := fnv.New64a()
	for e := range st.Query().Iter() {
		h.Reset()
		hashEvent(h, e)
		out = append(out, h.Sum64())
	}
	slices.Sort(out)
	return out
}

// ingestDeployment is one set-up of ingest-live.
type ingestDeployment struct {
	st    *attack.Store
	fleet *amppot.Fleet
	api   *apiServer
}

func (d *ingestDeployment) stop() {
	d.api.stop()
	d.st.Close()
}

// runIngest runs ingest-live: the amppot fleet streams closed flows
// into a store in continuous queued ingest, on top of a sealed base
// corpus, while a dashboard polls the HTTP API.
func runIngest(cfg config) (*outcome, error) {
	sc := cfg.sc
	prov := provenance(cfg)
	liveDay0 := sc.baseDays
	liveDays := sc.corpusDays - sc.baseDays

	began := time.Now()
	c := newCorpus(cfg.seed, sc.baseEvents, 0, sc.baseDays)
	baseOracle := newOracle(sc.baseEvents)
	h := fnv.New64a()
	var e attack.Event
	for i := 0; i < sc.baseEvents; i++ {
		c.event(i, &e)
		hashEvent(h, &e)
		baseOracle.add(&e)
	}
	baseOracle.finish()
	// Enough observations for every phase at the offered rate plus a
	// flat-out phase several times faster.
	want := int(sc.obsRate * cfg.seconds * 6)
	sched := replaySchedule(cfg.seed, c.space, want, liveDay0)
	for _, o := range sched {
		h.Write([]byte{byte(o.ts), byte(o.ts >> 8), byte(o.ts >> 16), byte(o.ts >> 24), byte(o.victim), byte(o.victim >> 8), byte(o.victim >> 16), byte(o.victim >> 24), byte(o.vec), o.inst})
	}
	reqs := dashboard(baseOracle, sched, liveDay0, liveDays)
	baseWant := make([]any, len(reqs))
	urls := make([]string, len(reqs))
	for k, q := range reqs {
		baseWant[k] = baseOracle.expect(q)
		urls[k] = q.url
	}
	prov["corpus_events"] = sc.baseEvents
	prov["distinct_targets"] = baseOracle.distinct
	prov["schedule_obs"] = len(sched)
	prov["offered_rps"] = sc.dashRate
	prov["offered_obs_per_s"] = sc.obsRate
	prov["connections"] = runtime.NumCPU()
	prov["inputs_hash"] = fmt.Sprintf("%016x", h.Sum64())

	var t *tracer
	if cfg.trace {
		t = newTracer()
	}
	// The base events exist only while a set-up needs them, so their
	// pointers do not add to every collection the measured phases pay.
	var baseEvents []attack.Event
	prepare := func() { baseEvents = c.events(0, sc.baseEvents, nil) }
	probe := netx.Addr(baseOracle.tgt[0])
	setup := func() (*ingestDeployment, error) {
		var st *attack.Store
		t.timed("attack.ingest.build", 1, func() { st = attack.NewStore(baseEvents) })
		st.StartIngest(attack.IngestConfig{Tick: 0})
		t.timed("attack.exec.warm", 1, func() { warm(st, probe) })
		fleet := amppot.NewFleet(amppot.DefaultConfig())
		fleet.StreamTo(st)
		var backend attack.Queryable = st
		if t != nil {
			backend = localStore{st, t}
		}
		api, err := startAPI([]attack.Queryable{backend}, t)
		if err != nil {
			st.Close()
			return nil, err
		}
		return &ingestDeployment{st: st, fleet: fleet, api: api}, nil
	}
	progress(began, "inputs ready")
	dep, setupS, heapMB, err := setupRuns(sc.setups, prepare, setup, (*ingestDeployment).stop)
	if err != nil {
		return nil, err
	}
	baseEvents = nil
	defer dep.stop()
	progress(began, "set-ups done")

	chk := &liveChecker{reqs: reqs, base: baseWant, done: map[int][]completion{}, high: map[int][]int{}}
	cl := newClient(dep.api.base, runtime.NumCPU())
	defer cl.close()
	prod := &producer{fleet: dep.fleet, sched: sched, t: t}
	prod.wm.Store(sched[0].ts - 1)
	loop := &liveLoop{st: dep.st, fleet: dep.fleet, prod: prod, t: t}
	loop.start()

	out := &outcome{metrics: map[string]float64{}, provenance: prov}
	// withProducer runs fn while the producer replays at rate, and
	// returns how many observations it replayed meanwhile and when the
	// schedule ran out, if it did. Running out is a failure: the
	// phases after it would measure no ingest.
	replayed := 0
	withProducer := func(rate float64, fn func()) (int, time.Time) {
		stop, done := make(chan struct{}), make(chan struct{})
		var n int
		var ranOut time.Time
		go func() {
			defer close(done)
			n, ranOut = prod.run(rate, stop)
		}()
		fn()
		close(stop)
		<-done
		replayed += n
		if !ranOut.IsZero() {
			out.attempted++
			out.failed++
			out.errs = append(out.errs, "replay schedule ran out: it is too short for the run")
		}
		return n, ranOut
	}
	dashSeq := func(n int) int { return n % len(reqs) }
	m := out.metrics
	m["setup_s"], m["heap_mb"] = setupS, heapMB
	S := time.Duration(cfg.seconds * float64(time.Second))
	conns := runtime.NumCPU()

	// flatOut replays flat out for d while the dashboard keeps polling
	// at its rate, and returns the observations per second that reached
	// a published view.
	flatOut := func(d time.Duration) float64 {
		var dash phaseResult
		t0 := time.Now()
		n, ranOut := withProducer(0, func() { dash = cl.openLoop(urls, dashSeq, sc.dashRate, d, 1, chk.check, false) })
		dep.fleet.DrainTo(dep.st, prod.wm.Load())
		dep.st.Flush()
		elapsed := time.Since(t0)
		if !ranOut.IsZero() {
			elapsed = ranOut.Sub(t0)
		}
		out.add(dash)
		return float64(n) / elapsed.Seconds()
	}

	if !cfg.trace {
		// Rounds of open loop, closed loop and flat-out replay. Latency
		// and lag percentiles pool the samples of all rounds; the rates
		// are the median round, so a spell of host CPU steal moves one
		// round, not the result.
		var lat, lags, sats, flats, hits []float64
		var opens []phaseResult
		for r := 0; r < rounds; r++ {
			from := time.Now()
			var open, closed phaseResult
			loop.watching.Store(true)
			withProducer(sc.obsRate, func() { open = cl.openLoop(urls, dashSeq, sc.dashRate, S*35/100/rounds, 1, chk.check, false) })
			// Drains issued before the phase ended may publish after it:
			// keep watching until they have.
			time.Sleep(20 * time.Millisecond)
			loop.watching.Store(false)
			lags = append(lags, loop.lags(from, time.Now().Add(-20*time.Millisecond))...)
			c0 := fetchStats(cl)
			withProducer(sc.obsRate, func() { closed = cl.closedLoop(urls, dashSeq, S*55/100/rounds, conns, chk.check, false) })
			c1 := fetchStats(cl)
			hits = append(hits, ratio(float64(c1.CacheHits-c0.CacheHits), float64(c1.CacheHits+c1.CacheMisses-c0.CacheHits-c0.CacheMisses)))
			out.add(open)
			out.add(closed)
			lat, opens = append(lat, open.lat...), append(opens, open)
			sats = append(sats, float64(len(closed.lat))/closed.elapsed.Seconds())
			flats = append(flats, flatOut(S*10/100/rounds))
		}
		loop.halt()
		m["req_p50_ms"], m["req_p99_ms"] = quantile(lat, 0.5), quantile(lat, 0.99)
		m["visible_lag_p50_ms"], m["visible_lag_p99_ms"] = quantile(lags, 0.5), quantile(lags, 0.99)
		m["sat_rps"], m["ingest_obs_per_s"] = median(sats), median(flats)
		prov["open_samples"], prov["lag_samples"] = len(lat), len(lags)
		prov["sat_rps_by_round"], prov["ingest_obs_per_s_by_round"] = sats, flats
		prov["closed_hit_ratio_by_round"] = hits
		prov["open_p50_p99_ms_by_endpoint"] = byPath(urls, opens...)
	} else {
		var base, open, closed phaseResult
		withProducer(sc.obsRate, func() { base = cl.openLoop(urls, dashSeq, sc.dashRate, S*25/100, 1, chk.check, false) })
		out.add(base)
		s0, e0, is0 := fetchStats(cl), execStats([]*attack.Store{dep.st}), dep.st.IngestStats()
		bytes0, snap0 := cl.bytes.Load(), takeSnapshot()
		t.on.Store(true)
		withProducer(sc.obsRate, func() { open = cl.openLoop(urls, dashSeq, sc.dashRate, S*25/100, 1, chk.check, true) })
		s1 := fetchStats(cl)
		withProducer(sc.obsRate, func() { closed = cl.closedLoop(urls, dashSeq, S*20/100, conns, chk.check, false) })
		before := out.attempted
		flatOut(S * 20 / 100)
		flatReqs := out.attempted - before
		t.on.Store(false)
		loop.halt()
		out.add(open)
		out.add(closed)
		snap1 := takeSnapshot()
		e1, is1 := execStats([]*attack.Store{dep.st}), dep.st.IngestStats()
		reqN := open.attempted + closed.attempted + flatReqs
		layerHTTP(m, t, open, s0, s1, float64(cl.bytes.Load()-bytes0)/float64(reqN))
		layerExec(m, t, e0, e1, reqN)
		runtimeMetrics(m, snap0, snap1, reqN)
		prov["cache_lookups"] = (s1.CacheHits + s1.CacheMisses) - (s0.CacheHits + s0.CacheMisses)
		m["harness.trace_overhead"] = ratio(quantile(open.lat, 0.5), quantile(base.lat, 0.5))
		m["harness.late_p99_ms"] = quantile(open.late, 0.99)
		m["attack.exec.warm_ms"] = median(t.byName("attack.exec.warm"))
		m["attack.ingest.build_ms"] = median(t.byName("attack.ingest.build"))
		m["attack.ingest.batches_per_drain"] = ratio(float64(is1.Coalesced-is0.Coalesced), float64(is1.Drains-is0.Drains))
		m["attack.ingest.queue_max"] = float64(loop.queueMax)
		hd, hn := t.total("amppot.handle")
		m["amppot.handle_ns_per_obs"] = ratio(float64(hd), float64(hn))
		dr := t.byName("amppot.drain")
		m["amppot.drain.p50_ms"], m["amppot.drain.p99_ms"] = quantile(dr, 0.5), quantile(dr, 0.99)
	}

	progress(began, "measurements done")
	// Final state: close every flow, publish, and compare with a
	// sequential replay of the same observations into a fresh fleet.
	dep.fleet.FlushTo(dep.st)
	dep.st.Flush()
	ref := amppot.NewFleet(amppot.DefaultConfig())
	for _, o := range sched[:replayed] {
		ref.HandleRequest(int(o.inst), o.ts, o.victim, o.vec, requestPayload[o.vec])
	}
	refStore := ref.FlushStore()
	m["amppot.events_per_kobs"] = float64(refStore.Len()) / float64(max(replayed, 1)) * 1000
	prov["replayed_obs"], prov["live_events"] = replayed, refStore.Len()
	var live []attack.Event
	for e := range refStore.Query().Iter() {
		live = append(live, *e.Clone())
	}
	all := slices.Concat(c.events(0, sc.baseEvents, nil), live)
	wantHashes := make([]uint64, len(all))
	for i := range all {
		h.Reset()
		hashEvent(h, &all[i])
		wantHashes[i] = h.Sum64()
	}
	slices.Sort(wantHashes)
	out.attempted++
	if got := eventHashes(dep.st); !slices.Equal(got, wantHashes) {
		out.failed++
		out.errs = append(out.errs, fmt.Sprintf("final store (%d events) differs from the sequential reference replay (%d events)", len(got), len(all)))
	}

	// Exact dashboard answers over the final corpus.
	slices.SortStableFunc(all, func(a, b attack.Event) int { return cmp.Compare(a.Start, b.Start) })
	final := newOracle(len(all))
	for i := range all {
		final.add(&all[i])
	}
	final.finish()
	for _, err := range chk.ceilings(final) {
		out.failed++
		out.errs = append(out.errs, err.Error())
	}
	for k, q := range reqs {
		out.attempted++
		_, body, err := cl.get(q.url)
		if err == nil {
			var got any
			if got, err = decode(q.kind, body); err == nil {
				err = sameAnswer(got, final.expect(q))
			}
		}
		if err != nil {
			out.failed++
			out.errs = append(out.errs, fmt.Sprintf("final %s: %v", urls[k], err))
		}
	}
	if cfg.trace && cfg.traceDir != "" {
		path := fmt.Sprintf("%s/%s-seed%d.ndjson", cfg.traceDir, cfg.workload, cfg.seed)
		if err := t.write(path); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		prov["spans"] = path
	}
	return out, nil
}
