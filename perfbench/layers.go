package main

import (
	"encoding/json"

	"doscope/internal/attack"
	"doscope/internal/federation"
)

// apiStats is the part of /v1/stats the benchmark reads.
type apiStats struct {
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
}

// fetchStats reads the server's counters; a failure reads as zeros and
// surfaces as a cache ratio of 0.
func fetchStats(cl *client) apiStats {
	var s apiStats
	if _, body, err := cl.get("/v1/stats"); err == nil {
		_ = json.Unmarshal(body, &s) // zeros on a malformed body, as above
	}
	return s
}

func execStats(stores []*attack.Store) attack.ExecStats {
	var sum attack.ExecStats
	for _, st := range stores {
		es := st.ExecStats()
		sum.ScanTasks += es.ScanTasks
		sum.ProbeTasks += es.ProbeTasks
		sum.BitmapTasks += es.BitmapTasks
		sum.BitmapHits += es.BitmapHits
		sum.BitmapMisses += es.BitmapMisses
	}
	return sum
}

func wireBytes(remotes []*federation.RemoteStore) uint64 {
	var n uint64
	for _, r := range remotes {
		s, rcv := r.WireBytes()
		n += s + rcv
	}
	return n
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerHTTP fills the httpapi layer from the traced phases' handler
// spans, the traced open loop's client latencies and the server's cache
// counters over that open loop (s0, s1): the fixed-rate regime the
// workload describes, not the closed loop's.
func layerHTTP(m map[string]float64, t *tracer, traced phaseResult, s0, s1 apiStats, bytesPerReq float64) {
	idx := t.byName("httpapi.index")
	it := t.byName("httpapi.iter")
	m["httpapi.index.p50_ms"], m["httpapi.index.p99_ms"] = quantile(idx, 0.5), quantile(idx, 0.99)
	m["httpapi.iter.p50_ms"], m["httpapi.iter.p99_ms"] = quantile(it, 0.5), quantile(it, 0.99)
	m["httpapi.events.p50_ms"] = quantile(t.byName("httpapi.events"), 0.5)
	var outside []float64
	for _, s := range t.spans {
		if lat, ok := traced.clientLat[s.Req]; ok && s.Parent == 0 && s.Req != 0 {
			outside = append(outside, lat-float64(s.dur())/1e6)
		}
	}
	m["httpapi.outside.p50_ms"] = quantile(outside, 0.5)
	hits := float64(s1.CacheHits - s0.CacheHits)
	m["httpapi.cache_hit_ratio"] = ratio(hits, hits+float64(s1.CacheMisses-s0.CacheMisses))
	m["httpapi.bytes_per_req"] = bytesPerReq
}

// layerExec fills the executor layer from the wrapper spans and the
// stores' execution counters.
func layerExec(m map[string]float64, t *tracer, e0, e1 attack.ExecStats, reqs int) {
	n := float64(max(reqs, 1))
	m["attack.exec.count.p50_us"] = quantile(t.byName("attack.exec.count"), 0.5) * 1000
	m["attack.exec.scan_tasks_per_req"] = float64(e1.ScanTasks-e0.ScanTasks) / n
	m["attack.exec.probe_tasks_per_req"] = float64(e1.ProbeTasks-e0.ProbeTasks) / n
	m["attack.exec.bitmap_tasks_per_req"] = float64(e1.BitmapTasks-e0.BitmapTasks) / n
	hits := float64(e1.BitmapHits - e0.BitmapHits)
	m["attack.exec.bitmap_hit_ratio"] = ratio(hits, hits+float64(e1.BitmapMisses-e0.BitmapMisses))
}
