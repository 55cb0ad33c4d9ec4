package main

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"slices"
	"strconv"

	"doscope/internal/attack"
	"doscope/internal/netx"
	"doscope/internal/stats"
)

// kind is an endpoint of the HTTP API.
type kind uint8

const (
	kCount kind = iota
	kVector
	kDay
	kFig1
	kTargetPrefix
	kFig5
	kFig6
	kFig7
	kEvents
)

var kindPath = [...]string{
	kCount:        "/v1/count",
	kVector:       "/v1/count/vector",
	kDay:          "/v1/count/day",
	kFig1:         "/v1/figures/1",
	kTargetPrefix: "/v1/count/target-prefix",
	kFig5:         "/v1/figures/5",
	kFig6:         "/v1/figures/6",
	kFig7:         "/v1/figures/7",
	kEvents:       "/v1/events",
}

// counting reports whether the endpoint answers from count indexes
// (the handler never iterates events).
func (k kind) counting() bool { return k <= kFig1 }

// request is one distinct URL of a workload.
type request struct {
	kind              kind
	plan              attack.Plan
	group, top, limit int
	url               string // path and query
}

func newRequest(k kind, p attack.Plan, group, top, limit int) request {
	v := p.Values()
	switch k {
	case kTargetPrefix:
		v.Set("group", strconv.Itoa(group))
		v.Set("top", strconv.Itoa(top))
	case kEvents:
		v.Set("limit", strconv.Itoa(limit))
	}
	u := kindPath[k]
	if len(v) > 0 {
		u += "?" + v.Encode()
	}
	return request{kind: k, plan: p, group: group, top: top, limit: limit, url: u}
}

// mixSpec sizes a request universe and its endpoint mix.
type mixSpec struct {
	counting, iterating, events int // distinct URLs per class
	// iterCap bounds the events an iterating or /v1/events plan may
	// match, keeping every request's work bounded.
	iterCap int
}

// Request classes and their shares of the request stream.
var classShare = cumulative(0.60, 0.25, 0.15)

// universe is a workload's distinct URLs, grouped by class so the
// schedule can draw a class first and a Zipf-ranked URL within it.
type universe struct {
	reqs    []request
	classes [3][]int // request ids per class: counting, iterating, events
}

// buildUniverse draws the query-workload URL set from the corpus: every
// prefix and day filter is taken from a real event, so plans match.
func buildUniverse(seed uint64, o *oracle, ndays int, spec mixSpec) *universe {
	u := &universe{}
	seen := map[string]bool{}
	r := newRNG(seed, 10, 0)
	add := func(class int, q request) bool {
		if seen[q.url] {
			return false
		}
		seen[q.url] = true
		u.classes[class] = append(u.classes[class], len(u.reqs))
		u.reqs = append(u.reqs, q)
		return true
	}
	n := len(o.start)
	countKinds := []kind{kCount, kCount, kCount, kVector, kVector, kDay, kDay, kFig1, kFig1, kFig1}
	for len(u.classes[0]) < spec.counting {
		k := countKinds[r.intn(len(countKinds))]
		p := attack.PlanAll()
		if k != kFig1 {
			switch x := r.float(); {
			case x < 0.25:
				p.Source = int8(attack.SourceTelescope)
			case x < 0.5:
				p.Source = int8(attack.SourceHoneypot)
			}
		}
		switch x := r.float(); {
		case x < 0.35:
			p.VecMask = 1 << r.intn(attack.NumVectors)
		case x < 0.5:
			p.VecMask = 1<<r.intn(attack.NumVectors) | 1<<r.intn(attack.NumVectors)
		}
		if r.float() < 0.7 {
			lo := r.intn(ndays)
			p.HasDays, p.DayLo, p.DayHi = true, int32(lo), int32(min(lo+r.intn(90), ndays-1))
		}
		if x := r.float(); x < 0.45 {
			bits := []int{8, 16, 24}[r.intn(3)]
			p.HasPrefix, p.PrefixBits, p.Prefix = true, uint8(bits), netx.Addr(o.tgt[r.intn(n)]).Mask(bits)
		}
		add(0, newRequest(k, p, 0, 0, 0))
	}
	iterKinds := []kind{kTargetPrefix, kTargetPrefix, kFig5, kFig6, kFig7}
	for class, want := range []int{1: spec.iterating, 2: spec.events} {
		for len(u.classes[class]) < want {
			i := r.intn(n)
			p := attack.PlanAll()
			bits := []int{16, 24}[r.intn(2)]
			p.HasPrefix, p.PrefixBits, p.Prefix = true, uint8(bits), netx.Addr(o.tgt[i]).Mask(bits)
			d := attack.DayOf(o.start[i])
			w := 64
			if class == 2 {
				// Event pages browse a month: IterByStart cost grows
				// with the shards a page's day range spans, so a fixed
				// span keeps every page comparable.
				w = 15
				p.HasDays, p.DayLo, p.DayHi = true, int32(max(d-w, 0)), int32(min(d+w, ndays-1))
			}
			for ; o.count(p) > spec.iterCap; w /= 2 {
				if w == 0 {
					p.PrefixBits, p.Prefix = 32, netx.Addr(o.tgt[i])
					break
				}
				p.HasDays, p.DayLo, p.DayHi = true, int32(max(d-w, 0)), int32(d+w)
			}
			if class == 2 {
				if r.float() < 0.5 {
					p.Source = int8(r.intn(attack.NumSources))
				}
				add(2, newRequest(kEvents, p, 0, 0, []int{50, 200}[r.intn(2)]))
				continue
			}
			k := iterKinds[r.intn(len(iterKinds))]
			add(1, newRequest(k, p, []int{24, 32}[r.intn(2)], []int{10, 100}[r.intn(2)], 0))
		}
	}
	return u
}

// count returns the plan's matching-event count.
func (o *oracle) count(p attack.Plan) int {
	byVec, _ := o.tally(p)
	n := 0
	for _, c := range byVec {
		n += c
	}
	return n
}

// schedule draws n request ids: classes in their exact shares within
// every block of 20 requests (shuffled), then a URL of the class by
// Zipf-skewed popularity. Fixed shares keep the work of a phase from
// varying with how many expensive classes one seed happened to draw.
func (u *universe) schedule(seed uint64, n int) []int32 {
	r := newRNG(seed, 11, 0)
	block := make([]int, 0, 20)
	for class, share := range classShare {
		lo := 0.0
		if class > 0 {
			lo = classShare[class-1]
		}
		for k := 0; k < int(math.Round((share-lo)*20)); k++ {
			block = append(block, class)
		}
	}
	out := make([]int32, n)
	for k := range out {
		if k%len(block) == 0 {
			for i := len(block) - 1; i > 0; i-- {
				j := r.intn(i + 1)
				block[i], block[j] = block[j], block[i]
			}
		}
		c := u.classes[block[k%len(block)]]
		out[k] = int32(c[r.zipfRank(len(c))])
	}
	return out
}

// hash is the provenance hash of the URL set and the schedule.
func (u *universe) hash(sched []int32) uint64 {
	h := fnv.New64a()
	for _, q := range u.reqs {
		h.Write([]byte(q.url))
		h.Write([]byte{0})
	}
	for _, id := range sched {
		h.Write([]byte(strconv.Itoa(int(id))))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// Response shapes, decoded from the wire. Each carries the degraded
// object so a partial answer counts as a failure.
type (
	countBody struct {
		Plan     string          `json:"plan"`
		Count    int             `json:"count"`
		Degraded json.RawMessage `json:"degraded"`
	}
	vectorBody struct {
		Plan   string `json:"plan"`
		Counts []struct {
			Vector string `json:"vector"`
			Count  int    `json:"count"`
		} `json:"counts"`
		Degraded json.RawMessage `json:"degraded"`
	}
	dayBody struct {
		Plan     string          `json:"plan"`
		Days     []int           `json:"days"`
		Degraded json.RawMessage `json:"degraded"`
	}
	fig1Body struct {
		Plan      string          `json:"plan"`
		Days      int             `json:"days"`
		Telescope []int           `json:"telescope"`
		Honeypot  []int           `json:"honeypot"`
		Combined  []int           `json:"combined"`
		Degraded  json.RawMessage `json:"degraded"`
	}
	prefixRow struct {
		Prefix  string `json:"prefix"`
		Events  int    `json:"events"`
		Targets int    `json:"targets"`
	}
	targetPrefixBody struct {
		Plan      string          `json:"plan"`
		GroupBits int             `json:"group_bits"`
		Total     int             `json:"total_groups"`
		Groups    []prefixRow     `json:"groups"`
		Degraded  json.RawMessage `json:"degraded"`
	}
	fig5Body struct {
		Plan          string             `json:"plan"`
		Days          int                `json:"days"`
		MediumPlus    []int              `json:"medium_plus"`
		MeanIntensity map[string]float64 `json:"mean_intensity"`
		Degraded      json.RawMessage    `json:"degraded"`
	}
	binRow struct {
		Bin   string `json:"bin"`
		Count int    `json:"count"`
	}
	fig6Body struct {
		Plan     string          `json:"plan"`
		Targets  int             `json:"targets"`
		Bins     []binRow        `json:"bins"`
		Degraded json.RawMessage `json:"degraded"`
	}
	fig7Body struct {
		Plan          string             `json:"plan"`
		Days          int                `json:"days"`
		DailyTargets  []int              `json:"daily_targets"`
		DailyMedium   []int              `json:"daily_medium"`
		PeakDays      []int              `json:"peak_days"`
		PeakValues    []int              `json:"peak_values"`
		MeanIntensity map[string]float64 `json:"mean_intensity"`
		Degraded      json.RawMessage    `json:"degraded"`
	}
	eventLine struct {
		Source  string   `json:"source"`
		Vector  string   `json:"vector"`
		Target  string   `json:"target"`
		Start   int64    `json:"start"`
		End     int64    `json:"end"`
		Packets uint64   `json:"packets"`
		Bytes   uint64   `json:"bytes"`
		MaxPPS  float64  `json:"max_pps,omitempty"`
		AvgRPS  float64  `json:"avg_rps,omitempty"`
		Ports   []uint16 `json:"ports,omitempty"`
	}
	eventsTrailer struct {
		Page     bool            `json:"page"`
		Count    int             `json:"count"`
		More     bool            `json:"more"`
		Next     string          `json:"next"`
		Degraded json.RawMessage `json:"degraded"`
	}
	eventsBody struct {
		Events  []eventLine
		Trailer eventsTrailer
	}
)

// expect computes the answer the request must get, from scratch over
// the oracle's events.
func (o *oracle) expect(q request) any {
	p := q.plan
	ps := p.EncodeString()
	switch q.kind {
	case kCount:
		return countBody{Plan: ps, Count: o.count(p)}
	case kVector:
		byVec, _ := o.tally(p)
		b := vectorBody{Plan: ps}
		b.Counts = make([]struct {
			Vector string `json:"vector"`
			Count  int    `json:"count"`
		}, attack.NumVectors)
		for v := range byVec {
			b.Counts[v].Vector, b.Counts[v].Count = attack.Vector(v).String(), byVec[v]
		}
		return b
	case kDay:
		_, byDay := o.tally(p)
		return dayBody{Plan: ps, Days: byDay}
	case kFig1:
		panel := func(src int8) []int {
			pp := p
			pp.Source = src
			_, d := o.tally(pp)
			return d
		}
		return fig1Body{Plan: ps, Days: attack.WindowDays,
			Telescope: panel(int8(attack.SourceTelescope)), Honeypot: panel(int8(attack.SourceHoneypot)), Combined: panel(-1)}
	case kTargetPrefix:
		type tally struct {
			events  int
			targets map[uint32]bool
		}
		groups := map[netx.Addr]*tally{}
		o.match(p, func(i int) {
			key := netx.Addr(o.tgt[i]).Mask(q.group)
			t := groups[key]
			if t == nil {
				t = &tally{targets: map[uint32]bool{}}
				groups[key] = t
			}
			t.events++
			t.targets[o.tgt[i]] = true
		})
		rows := make([]prefixRow, 0, len(groups))
		for a, t := range groups {
			rows = append(rows, prefixRow{Prefix: fmt.Sprintf("%s/%d", a, q.group), Events: t.events, Targets: len(t.targets)})
		}
		slices.SortFunc(rows, func(a, b prefixRow) int {
			if c := cmp.Compare(b.Events, a.Events); c != 0 {
				return c
			}
			return cmp.Compare(a.Prefix, b.Prefix)
		})
		b := targetPrefixBody{Plan: ps, GroupBits: q.group, Total: len(rows)}
		b.Groups = rows[:min(len(rows), q.top)]
		return b
	case kFig5:
		mean := o.mean(p)
		days := make([]int, attack.WindowDays)
		o.match(p, func(i int) {
			if o.inten[i] < mean[o.source(i)] {
				return
			}
			if d := attack.DayOf(o.start[i]); d >= 0 && d < attack.WindowDays {
				days[d]++
			}
		})
		return fig5Body{Plan: ps, Days: attack.WindowDays, MediumPlus: days, MeanIntensity: meanMap(mean)}
	case kFig6:
		per := map[uint32]int{}
		o.match(p, func(i int) { per[o.tgt[i]]++ })
		vals := make([]int, 0, len(per))
		for _, n := range per {
			vals = append(vals, n)
		}
		h := stats.NewLogHistogram(vals)
		b := fig6Body{Plan: ps, Targets: len(per), Bins: make([]binRow, len(h.Counts))}
		for k, n := range h.Counts {
			b.Bins[k] = binRow{Bin: h.BinLabel(k), Count: n}
		}
		return b
	case kFig7:
		mean := o.mean(p)
		all := make([]int, attack.WindowDays)
		med := make([]int, attack.WindowDays)
		seenAll, seenMed := map[uint64]bool{}, map[uint64]bool{}
		o.match(p, func(i int) {
			d := attack.DayOf(o.start[i])
			if d < 0 || d >= attack.WindowDays {
				return
			}
			key := uint64(d)<<32 | uint64(o.tgt[i])
			if !seenAll[key] {
				seenAll[key] = true
				all[d]++
			}
			if o.inten[i] >= mean[o.source(i)] && !seenMed[key] {
				seenMed[key] = true
				med[d]++
			}
		})
		order := make([]int, attack.WindowDays)
		for d := range order {
			order[d] = d
		}
		slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(all[b], all[a]) })
		b := fig7Body{Plan: ps, Days: attack.WindowDays, DailyTargets: all, DailyMedium: med, MeanIntensity: meanMap(mean)}
		for _, d := range order[:4] {
			b.PeakDays = append(b.PeakDays, d)
			b.PeakValues = append(b.PeakValues, all[d])
		}
		return b
	case kEvents:
		var b eventsBody
		var e attack.Event
		o.match(p, func(i int) {
			if len(b.Events) > q.limit {
				return
			}
			o.full(i, &e)
			b.Events = append(b.Events, eventLine{
				Source: e.Source.String(), Vector: e.Vector.String(), Target: e.Target.String(),
				Start: e.Start, End: e.End, Packets: e.Packets, Bytes: e.Bytes,
				MaxPPS: e.MaxPPS, AvgRPS: e.AvgRPS, Ports: e.Ports,
			})
		})
		b.Trailer = eventsTrailer{Page: true, Count: len(b.Events)}
		if len(b.Events) > q.limit {
			b.Events = b.Events[:q.limit]
			b.Trailer.Count, b.Trailer.More = q.limit, true
			// Starts are unique in generated corpora, so the cursor
			// always skips exactly the last emitted event.
			b.Trailer.Next = fmt.Sprintf("%d:1", b.Events[q.limit-1].Start)
		}
		return b
	}
	panic("unknown kind")
}

// mean returns the per-source mean intensity over the plan's matches —
// the medium-plus threshold of Figures 5 and 7.
func (o *oracle) mean(p attack.Plan) [attack.NumSources]float64 {
	var sum [attack.NumSources]float64
	var n [attack.NumSources]int
	o.match(p, func(i int) {
		sum[o.source(i)] += o.inten[i]
		n[o.source(i)]++
	})
	var m [attack.NumSources]float64
	for s := range m {
		if n[s] > 0 {
			m[s] = sum[s] / float64(n[s])
		}
	}
	return m
}

func meanMap(m [attack.NumSources]float64) map[string]float64 {
	return map[string]float64{
		attack.SourceTelescope.String(): m[attack.SourceTelescope],
		attack.SourceHoneypot.String():  m[attack.SourceHoneypot],
	}
}

// decode parses a response body into the endpoint's shape.
func decode(k kind, body []byte) (any, error) {
	switch k {
	case kCount:
		return decodeAs[countBody](body)
	case kVector:
		return decodeAs[vectorBody](body)
	case kDay:
		return decodeAs[dayBody](body)
	case kFig1:
		return decodeAs[fig1Body](body)
	case kTargetPrefix:
		return decodeAs[targetPrefixBody](body)
	case kFig5:
		return decodeAs[fig5Body](body)
	case kFig6:
		return decodeAs[fig6Body](body)
	case kFig7:
		return decodeAs[fig7Body](body)
	}
	// kEvents: NDJSON event lines, then the page trailer.
	var b eventsBody
	lines := bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
	for _, l := range lines[:len(lines)-1] {
		var e eventLine
		if err := json.Unmarshal(l, &e); err != nil {
			return nil, err
		}
		b.Events = append(b.Events, e)
	}
	return b, json.Unmarshal(lines[len(lines)-1], &b.Trailer)
}

func decodeAs[T any](body []byte) (any, error) {
	var b T
	err := json.Unmarshal(body, &b)
	return b, err
}

// sameAnswer compares a decoded response with the oracle's answer:
// exactly, except mean intensities, which the server sums in storage
// order and so may differ in the last bits. A degraded object, which
// the oracle never has, is a mismatch.
func sameAnswer(got, want any) error {
	var gm, wm map[string]float64
	switch g := got.(type) {
	case fig5Body:
		w := want.(fig5Body)
		gm, wm, g.MeanIntensity, w.MeanIntensity = g.MeanIntensity, w.MeanIntensity, nil, nil
		got, want = g, w
	case fig7Body:
		w := want.(fig7Body)
		gm, wm, g.MeanIntensity, w.MeanIntensity = g.MeanIntensity, w.MeanIntensity, nil, nil
		got, want = g, w
	}
	if len(gm) != len(wm) {
		return fmt.Errorf("mean_intensity has %d sources, want %d", len(gm), len(wm))
	}
	for k, w := range wm {
		if g, ok := gm[k]; !ok || math.Abs(g-w) > 1e-9*math.Max(math.Abs(w), 1) {
			return fmt.Errorf("mean_intensity[%s] = %v, want %v", k, gm[k], w)
		}
	}
	if !reflect.DeepEqual(got, want) {
		gj, _ := json.Marshal(got)
		wj, _ := json.Marshal(want)
		return fmt.Errorf("answer differs from oracle:\n got  %.400s\n want %.400s", gj, wj)
	}
	return nil
}
