package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"doscope/internal/attack"
	"doscope/internal/federation"
)

// reqHeader carries the client's request id, so a traced run can pair
// the client-side latency with the handler span of the same request.
const reqHeader = "X-Perfbench-Request"

// span is one timed call into a layer, recorded at the benchmark's own
// wrappers (the program under test carries no instrumentation).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	N      int    `json:"n,omitempty"` // operations a batch span covers
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	// on gates the request-path wrappers, so one traced run can also
	// measure its own untraced baseline. Set-up spans always record.
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

type spanKey struct{}

type spanCtx struct{ id, req uint64 }

// begin allocates a span id and returns a context that parents later
// spans to it.
func (t *tracer) begin(ctx context.Context, req uint64) (context.Context, uint64, uint64, time.Time) {
	parent := uint64(0)
	if sc, ok := ctx.Value(spanKey{}).(spanCtx); ok {
		parent = sc.id
		if req == 0 {
			req = sc.req
		}
	}
	id := t.ids.Add(1)
	return context.WithValue(ctx, spanKey{}, spanCtx{id, req}), id, parent, time.Now()
}

func (t *tracer) end(name string, id, parent, req uint64, start time.Time, n int) {
	s := span{ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(time.Since(t.epoch)), N: n}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timed records fn as a root span.
func (t *tracer) timed(name string, n int, fn func()) {
	if t == nil {
		fn()
		return
	}
	_, id, parent, start := t.begin(context.Background(), 0)
	fn()
	t.end(name, id, parent, 0, start, n)
}

// byName returns the durations (ms) of the spans named name.
func (t *tracer) byName(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/1e6)
		}
	}
	return out
}

// total returns the summed duration and operation count of the spans
// named name.
func (t *tracer) total(name string) (time.Duration, int) {
	var d time.Duration
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			d += s.dur()
			n += s.N
		}
	}
	return d, n
}

// write stores every span, with its self time (duration minus the part
// of it its child spans cover), as NDJSON.
func (t *tracer) write(path string) error {
	children := map[uint64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		rec := struct {
			span
			SelfNS int64 `json:"self_ns"`
		}{s, int64(s.dur() - covered(s, children[s.ID]))}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// covered returns how much of parent's interval the children cover,
// counting overlapping children once.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	slices.SortFunc(kids, func(a, b span) int { return int(a.Start - b.Start) })
	var total, lo, hi int64
	lo, hi = -1, -1
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > hi {
			if hi > lo {
				total += hi - lo
			}
			lo, hi = s, e
		} else if e > hi {
			hi = e
		}
	}
	if hi > lo {
		total += hi - lo
	}
	return time.Duration(total)
}

// handlerClass names the httpapi span of a request path.
func handlerClass(r *http.Request) string {
	switch r.URL.Path {
	case "/v1/count", "/v1/count/vector", "/v1/count/day", "/v1/figures/1":
		return "httpapi.index"
	case "/v1/count/target-prefix", "/v1/figures/5", "/v1/figures/6", "/v1/figures/7":
		return "httpapi.iter"
	case "/v1/events":
		return "httpapi.events"
	}
	return "httpapi.other"
}

// traceHandler wraps the API server in a span per request.
func (t *tracer) traceHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		req, _ := strconv.ParseUint(r.Header.Get(reqHeader), 10, 64)
		ctx, id, parent, start := t.begin(r.Context(), req)
		h.ServeHTTP(w, r.WithContext(ctx))
		t.end(handlerClass(r), id, parent, req, start, 1)
	})
}

// traceSpan runs fn as a child of the span in ctx.
func traceSpan[T any](t *tracer, ctx context.Context, name string, fn func(context.Context) (T, error)) (T, error) {
	if !t.on.Load() {
		return fn(ctx)
	}
	ctx, id, parent, start := t.begin(ctx, 0)
	v, err := fn(ctx)
	req := uint64(0)
	if sc, ok := ctx.Value(spanKey{}).(spanCtx); ok {
		req = sc.req
	}
	t.end(name, id, parent, req, start, 1)
	return v, err
}

// localStore wraps a local store backend, timing each plan terminal.
// It keeps the store's Version so the API's response cache still works.
type localStore struct {
	st *attack.Store
	t  *tracer
}

func (l localStore) Version() uint64 { return l.st.Version() }

func (l localStore) PlanCount(p attack.Plan) (int, error) {
	return l.PlanCountContext(context.Background(), p)
}
func (l localStore) PlanCountByVector(p attack.Plan) ([attack.NumVectors]int, error) {
	return l.PlanCountByVectorContext(context.Background(), p)
}
func (l localStore) PlanCountByDay(p attack.Plan) ([]int, error) {
	return l.PlanCountByDayContext(context.Background(), p)
}
func (l localStore) PlanStore(p attack.Plan) (*attack.Store, io.Closer, error) {
	return l.PlanStoreContext(context.Background(), p)
}
func (l localStore) PlanCountContext(ctx context.Context, p attack.Plan) (int, error) {
	return traceSpan(l.t, ctx, "attack.exec.count", func(context.Context) (int, error) { return l.st.PlanCount(p) })
}
func (l localStore) PlanCountByVectorContext(ctx context.Context, p attack.Plan) ([attack.NumVectors]int, error) {
	return traceSpan(l.t, ctx, "attack.exec.count", func(context.Context) ([attack.NumVectors]int, error) { return l.st.PlanCountByVector(p) })
}
func (l localStore) PlanCountByDayContext(ctx context.Context, p attack.Plan) ([]int, error) {
	return traceSpan(l.t, ctx, "attack.exec.count", func(context.Context) ([]int, error) { return l.st.PlanCountByDay(p) })
}
func (l localStore) PlanStoreContext(ctx context.Context, p attack.Plan) (*attack.Store, io.Closer, error) {
	type res struct {
		st *attack.Store
		c  io.Closer
	}
	r, err := traceSpan(l.t, ctx, "attack.exec.store", func(context.Context) (res, error) {
		st, c, err := l.st.PlanStore(p)
		return res{st, c}, err
	})
	return r.st, r.c, err
}

// remoteStore wraps a federation client, timing each round trip.
type remoteStore struct {
	rs *federation.RemoteStore
	t  *tracer
}

func (r remoteStore) Version() (uint64, error) { return r.rs.Version() }

func (r remoteStore) PlanCount(p attack.Plan) (int, error) {
	return r.PlanCountContext(context.Background(), p)
}
func (r remoteStore) PlanCountByVector(p attack.Plan) ([attack.NumVectors]int, error) {
	return r.PlanCountByVectorContext(context.Background(), p)
}
func (r remoteStore) PlanCountByDay(p attack.Plan) ([]int, error) {
	return r.PlanCountByDayContext(context.Background(), p)
}
func (r remoteStore) PlanStore(p attack.Plan) (*attack.Store, io.Closer, error) {
	return r.PlanStoreContext(context.Background(), p)
}
func (r remoteStore) PlanCountContext(ctx context.Context, p attack.Plan) (int, error) {
	return traceSpan(r.t, ctx, "federation.count", func(ctx context.Context) (int, error) { return r.rs.PlanCountContext(ctx, p) })
}
func (r remoteStore) PlanCountByVectorContext(ctx context.Context, p attack.Plan) ([attack.NumVectors]int, error) {
	return traceSpan(r.t, ctx, "federation.count", func(ctx context.Context) ([attack.NumVectors]int, error) {
		return r.rs.PlanCountByVectorContext(ctx, p)
	})
}
func (r remoteStore) PlanCountByDayContext(ctx context.Context, p attack.Plan) ([]int, error) {
	return traceSpan(r.t, ctx, "federation.count", func(ctx context.Context) ([]int, error) { return r.rs.PlanCountByDayContext(ctx, p) })
}
func (r remoteStore) PlanStoreContext(ctx context.Context, p attack.Plan) (*attack.Store, io.Closer, error) {
	type res struct {
		st *attack.Store
		c  io.Closer
	}
	v, err := traceSpan(r.t, ctx, "federation.store", func(ctx context.Context) (res, error) {
		st, c, err := r.rs.PlanStoreContext(ctx, p)
		return res{st, c}, err
	})
	return v.st, v.c, err
}

var (
	_ attack.QueryableContext = localStore{}
	_ attack.QueryableContext = remoteStore{}
)
