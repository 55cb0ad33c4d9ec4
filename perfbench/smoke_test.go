package main

import "testing"

// TestSmoke runs every workload at small scale, untraced and traced, and
// checks that every metric is emitted and that no request failed.
func TestSmoke(t *testing.T) {
	// Per-layer metrics that must be non-zero where their layer runs.
	live := map[string][]string{
		"query-local": {"httpapi.index.p50_ms", "attack.exec.count.p50_us", "attack.segment.open_ms",
			"attack.segment.bytes_per_event", "attack.exec.warm_ms", "runtime.cpu_ms_per_req"},
		"federated": {"httpapi.index.p50_ms", "federation.count_rtt.p50_us", "federation.store_rtt.p50_ms",
			"federation.wire_kb_per_req", "attack.segment.open_ms"},
		"ingest-live": {"attack.ingest.build_ms", "amppot.handle_ns_per_obs", "amppot.drain.p50_ms",
			"amppot.events_per_kobs", "attack.exec.count.p50_us"},
	}
	for _, w := range []string{"query-local", "federated", "ingest-live"} {
		hashes := map[bool]any{}
		for _, traced := range []bool{false, true} {
			cfg := config{workload: w, seed: 7, seconds: 1.5, trace: traced, sc: smokeScale, traceDir: t.TempDir()}
			res, out, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d errors=%q", w, traced, res.Correct, res.Attempted, res.Failed, out.errs)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := res.Metrics[m.name]
				if !ok || v.Unit != m.unit {
					t.Errorf("%s trace=%v: metric %s missing or unit %q, want %q", w, traced, m.name, v.Unit, m.unit)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end %s = %v, want > 0", w, m.name, v.Value)
				}
			}
			if traced {
				for _, name := range live[w] {
					if res.Metrics[name].Value <= 0 {
						t.Errorf("%s: per-layer %s = 0 where its layer runs", w, name)
					}
				}
			}
			report := out.provenance["metrics"].(map[string]metric)
			if fr, ok := report["fail_ratio"]; !ok || fr.Value != 0 {
				t.Errorf("%s trace=%v: fail_ratio = %v, %v; want 0", w, traced, fr.Value, ok)
			}
			if w == "ingest-live" && !traced {
				for _, name := range []string{"visible_lag_p50_ms", "visible_lag_p99_ms", "ingest_obs_per_s"} {
					if report[name].Value <= 0 {
						t.Errorf("ingest-live: %s = %v, want > 0", name, report[name].Value)
					}
				}
			}
			hashes[traced] = out.provenance["inputs_hash"]
		}
		if hashes[false] != hashes[true] {
			t.Errorf("%s: inputs hash differs between runs of one seed: %v vs %v", w, hashes[false], hashes[true])
		}
	}
}
