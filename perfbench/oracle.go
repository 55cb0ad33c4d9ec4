package main

import (
	"slices"
	"sort"

	"doscope/internal/attack"
)

// oracle answers every endpoint from scratch over the generated events,
// independently of the store: a columnar copy of the fields the answers
// depend on, in start order, plus a target-sorted key list for prefix
// filters and per-(source, vector, day) cells for unfiltered counts.
type oracle struct {
	start []int64
	tgt   []uint32
	sv    []uint8 // source<<4 | vector
	inten []float64
	keys  []uint64 // tgt<<32 | index, ascending
	cells [attack.NumSources][attack.NumVectors][]int32
	// full regenerates event i with every field, for /v1/events pages.
	full     func(i int, e *attack.Event)
	distinct int
}

func newOracle(n int) *oracle {
	return &oracle{
		start: make([]int64, 0, n),
		tgt:   make([]uint32, 0, n),
		sv:    make([]uint8, 0, n),
		inten: make([]float64, 0, n),
	}
}

// add appends one event; events must arrive in non-decreasing start
// order.
func (o *oracle) add(e *attack.Event) {
	o.start = append(o.start, e.Start)
	o.tgt = append(o.tgt, uint32(e.Target))
	o.sv = append(o.sv, uint8(e.Source)<<4|uint8(e.Vector))
	o.inten = append(o.inten, e.Intensity())
}

// finish builds the lookup structures once every event is added.
func (o *oracle) finish() {
	o.keys = make([]uint64, len(o.tgt))
	for i, t := range o.tgt {
		o.keys[i] = uint64(t)<<32 | uint64(i)
	}
	slices.Sort(o.keys)
	o.distinct = 0
	for i, k := range o.keys {
		if i == 0 || k>>32 != o.keys[i-1]>>32 {
			o.distinct++
		}
	}
	for s := range o.cells {
		for v := range o.cells[s] {
			o.cells[s][v] = make([]int32, attack.WindowDays)
		}
	}
	for i, st := range o.start {
		if d := attack.DayOf(st); d >= 0 && d < attack.WindowDays {
			o.cells[o.sv[i]>>4][o.sv[i]&15][d]++
		}
	}
}

func (o *oracle) source(i int) attack.Source { return attack.Source(o.sv[i] >> 4) }
func (o *oracle) vector(i int) attack.Vector { return attack.Vector(o.sv[i] & 15) }

// ok applies the plan's source, vector and day filters to event i.
func (o *oracle) ok(p attack.Plan, i int) bool {
	if p.Source >= 0 && int8(o.sv[i]>>4) != p.Source {
		return false
	}
	if p.VecMask != 0 && p.VecMask&(1<<(o.sv[i]&15)) == 0 {
		return false
	}
	if p.HasDays {
		d := int32(attack.DayOf(o.start[i]))
		if d < p.DayLo || d > p.DayHi {
			return false
		}
	}
	return true
}

// prefixRange returns the inclusive target range of the plan's prefix.
func prefixRange(p attack.Plan) (lo, hi uint32) {
	lo = uint32(p.Prefix)
	if p.PrefixBits < 32 {
		hi = lo | ^uint32(0)>>p.PrefixBits
	} else {
		hi = lo
	}
	return lo, hi
}

// match calls fn for every event the plan matches, in start order.
func (o *oracle) match(p attack.Plan, fn func(i int)) {
	lo, hi := 0, len(o.start)
	if p.HasDays {
		lo = sort.Search(len(o.start), func(k int) bool { return o.start[k] >= attack.DayStart(int(p.DayLo)) })
		hi = sort.Search(len(o.start), func(k int) bool { return o.start[k] >= attack.DayStart(int(p.DayHi)+1) })
	}
	if !p.HasPrefix {
		for i := lo; i < hi; i++ {
			if o.ok(p, i) {
				fn(i)
			}
		}
		return
	}
	tlo, thi := prefixRange(p)
	k := sort.Search(len(o.keys), func(k int) bool { return o.keys[k] >= uint64(tlo)<<32 })
	var idx []int
	for ; k < len(o.keys) && uint32(o.keys[k]>>32) <= thi; k++ {
		if i := int(uint32(o.keys[k])); i >= lo && i < hi {
			idx = append(idx, i)
		}
	}
	slices.Sort(idx)
	for _, i := range idx {
		if o.ok(p, i) {
			fn(i)
		}
	}
}

// tally returns the plan's matching-event counts by vector and by day.
func (o *oracle) tally(p attack.Plan) (byVec [attack.NumVectors]int, byDay []int) {
	byDay = make([]int, attack.WindowDays)
	if p.HasPrefix {
		o.match(p, func(i int) {
			byVec[o.vector(i)]++
			if d := attack.DayOf(o.start[i]); d >= 0 && d < attack.WindowDays {
				byDay[d]++
			}
		})
		return byVec, byDay
	}
	dlo, dhi := 0, attack.WindowDays-1
	if p.HasDays {
		dlo, dhi = max(dlo, int(p.DayLo)), min(dhi, int(p.DayHi))
	}
	for s := range o.cells {
		if p.Source >= 0 && int(p.Source) != s {
			continue
		}
		for v := range o.cells[s] {
			if p.VecMask != 0 && p.VecMask&(1<<v) == 0 {
				continue
			}
			for d := dlo; d <= dhi; d++ {
				n := int(o.cells[s][v][d])
				byVec[v] += n
				byDay[d] += n
			}
		}
	}
	return byVec, byDay
}
