package attack

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"doscope/internal/netx"
)

// iterByStartOracle is the from-scratch IterByStart order: every
// store's matching events in its own (Start, Target, arrival) order,
// concatenated in store order, then stably sorted by Start alone — so
// equal starts keep the earlier store first, then per-store order.
func iterByStartOracle(arrivals [][]Event, match func(*Event) bool) []Event {
	var out []Event
	for _, arr := range arrivals {
		out = append(out, oracleFilter(sortedOracle(arr), match)...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// execDelta sums the stores' scan and probe task counters since before.
func execDelta(stores []*Store, before []ExecStats) (scan, probe uint64) {
	for k, st := range stores {
		now := st.ExecStats()
		scan += now.ScanTasks - before[k].ScanTasks
		probe += now.ProbeTasks - before[k].ProbeTasks
	}
	return scan, probe
}

func execSnapshot(stores []*Store) []ExecStats {
	out := make([]ExecStats, len(stores))
	for k, st := range stores {
		out[k] = st.ExecStats()
	}
	return out
}

// liveWithTails ingests evs as one batch plus trailing single adds, so
// most shards end up with an unsealed pending tail.
func liveWithTails(evs []Event) *Store {
	st := &Store{}
	cut := len(evs) * 9 / 10
	st.AddBatch(evs[:cut])
	for _, e := range evs[cut:] {
		st.Add(e)
	}
	return st
}

// withTies returns copies of evs that keep each event's start (and half
// of the time its target) but differ in payload, so they tie with the
// originals under IterByStart's start-only merge key.
func withTies(rng *rand.Rand, evs []Event) []Event {
	out := make([]Event, len(evs))
	for i, e := range evs {
		e.Packets = rng.Uint64() % 1e9
		e.Ports = nil
		if rng.Intn(2) == 0 {
			e.Target = e.Target.Mask(24) | netx.Addr(rng.Intn(32))
		}
		out[i] = e
	}
	return out
}

// TestIterByStartOracle checks IterByStart against a from-scratch
// stable sort of the filtered events across the path matrix: prefixes
// on both sides of the ordered-probe rule (/4 scans; /8, /16, /24 and
// /32 probe the by-target permutations), day ranges inside and
// straddling the window, source, vector and predicate filters, live
// stores with pending tails, segment-backed stores, and three-store
// merges with cross-store and in-store equal-start ties. Every case
// also asserts through the ExecStats deltas which path ran and that
// exactly the compiled tasks did.
func TestIterByStartOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	base := randomEvents(rng, 2400)
	// In-store ties: re-use some starts inside the first store.
	a := append(append([]Event(nil), base...), withTies(rng, base[:200])...)
	rng.Shuffle(len(a), func(i, j int) { a[i], a[j] = a[j], a[i] })
	b := append(randomEvents(rng, 600), withTies(rng, a[:400])...)
	c := append(withTies(rng, a[200:500]), withTies(rng, b[:200])...)

	liveA := liveWithTails(a)
	segA, err := OpenSegment(segmentBytes(t, liveA))
	if err != nil {
		t.Fatal(err)
	}
	liveB := liveWithTails(b)
	segC, err := OpenSegment(segmentBytes(t, liveWithTails(c)))
	if err != nil {
		t.Fatal(err)
	}
	setups := []struct {
		name     string
		stores   []*Store
		arrivals [][]Event
	}{
		{"live-tails", []*Store{liveA}, [][]Event{a}},
		{"segment", []*Store{segA}, [][]Event{sortedOracle(a)}},
		{"three-stores", []*Store{liveA, liveB, segC}, [][]Event{a, b, sortedOracle(c)}},
	}

	anchor := a[0].Target
	type filter struct {
		name  string
		build func(q *Query) *Query
		match func(*Event) bool
	}
	inDays := func(lo, hi int) func(*Event) bool {
		return func(e *Event) bool { d := e.Day(); return d >= lo && d <= hi }
	}
	filters := []filter{
		{"none", func(q *Query) *Query { return q }, func(*Event) bool { return true }},
		{"days-inside", func(q *Query) *Query { return q.Days(40, 200) }, inDays(40, 200)},
		{"days-straddle-start", func(q *Query) *Query { return q.Days(-6, 20) }, inDays(-6, 20)},
		{"days-straddle-end", func(q *Query) *Query { return q.Days(700, 745) }, inDays(700, 745)},
		{"source", func(q *Query) *Query { return q.Source(SourceTelescope) },
			func(e *Event) bool { return e.Source == SourceTelescope }},
		{"vectors", func(q *Query) *Query { return q.Vectors(VectorUDP, VectorNTP, VectorDNS) },
			func(e *Event) bool { return e.Vector == VectorUDP || e.Vector == VectorNTP || e.Vector == VectorDNS }},
		{"where", func(q *Query) *Query { return q.Where(func(e *Event) bool { return e.Packets%3 != 0 }) },
			func(e *Event) bool { return e.Packets%3 != 0 }},
		{"combined", func(q *Query) *Query {
			return q.Source(SourceHoneypot).Days(-3, 400).Where(func(e *Event) bool { return e.Packets%2 == 0 })
		}, func(e *Event) bool {
			return e.Source == SourceHoneypot && inDays(-3, 400)(e) && e.Packets%2 == 0
		}},
	}

	for _, setup := range setups {
		for _, bits := range []int{4, 8, 16, 24, 32} {
			prefix := anchor.Mask(bits)
			for _, f := range filters {
				name := fmt.Sprintf("%s/prefix-%d/%s", setup.name, bits, f.name)
				build := func() *Query {
					return f.build(QueryStores(setup.stores...).TargetPrefix(prefix, bits))
				}
				want := iterByStartOracle(setup.arrivals, func(e *Event) bool {
					return e.Target.Mask(bits) == prefix && f.match(e)
				})
				tasks := len(build().compile(cmRows).tasks)

				before := execSnapshot(setup.stores)
				var got []Event
				for e := range build().IterByStart() {
					got = append(got, *e)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: IterByStart got %d events, want %d (first diff %s)",
						name, len(got), len(want), firstDiff(got, want))
				}
				scan, probe := execDelta(setup.stores, before)
				if bits >= 8 {
					if scan != 0 || probe != uint64(tasks) {
						t.Fatalf("%s: ran %d scan + %d probe tasks, want %d probe (ordered-probe path)", name, scan, probe, tasks)
					}
				} else if probe != 0 || scan != uint64(tasks) {
					t.Fatalf("%s: ran %d scan + %d probe tasks, want %d scan (/%d is below the probe rule)", name, scan, probe, tasks, bits)
				}
				if len(want) > 0 && tasks == 0 {
					t.Fatalf("%s: %d matches but no compiled task", name, len(want))
				}
			}
		}
	}
}

// TestIterByStartEarlyExit pins the lazy per-shard execution: a
// consumer that stops after one page opens only the tasks of the shards
// up to the one that filled it, on the probe path and the scan path.
func TestIterByStartEarlyExit(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	evs := randomEvents(rng, 3000)
	stores := []*Store{liveWithTails(evs[:2000]), liveWithTails(evs[2000:])}
	anchor := evs[0].Target
	for _, bits := range []int{4, 16} {
		build := func() *Query { return QueryStores(stores...).TargetPrefix(anchor, bits) }
		ex := build().compile(cmRows)
		const page = 50
		before := execSnapshot(stores)
		n := 0
		var last int64
		for e := range build().IterByStart() {
			last = e.Start
			if n++; n == page {
				break
			}
		}
		if n != page {
			t.Fatalf("/%d: only %d matches, fixture needs a full page", bits, n)
		}
		want := 0
		for _, task := range ex.tasks {
			if task.si <= shardOf(last) {
				want++
			}
		}
		scan, probe := execDelta(stores, before)
		if got := int(scan + probe); got != want || want == len(ex.tasks) {
			t.Fatalf("/%d: a %d-event page ran %d tasks, want %d of %d (stop within the filling shard)",
				bits, page, got, want, len(ex.tasks))
		}
	}
}
