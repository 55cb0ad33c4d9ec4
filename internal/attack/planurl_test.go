package attack

import (
	"encoding/base64"
	"math/rand"
	"net/url"
	"testing"

	"doscope/internal/netx"
)

// randomPlan builds a domain-valid plan with each filter present with
// probability 1/2 — the same shapes DecodePlan accepts.
func randomPlan(rng *rand.Rand) Plan {
	p := PlanAll()
	if rng.Intn(2) == 0 {
		p.Source = int8(rng.Intn(NumSources))
	}
	if rng.Intn(2) == 0 {
		p.VecMask = rng.Uint32() & (1<<NumVectors - 1)
	}
	if rng.Intn(2) == 0 {
		lo := rng.Intn(2*WindowDays) - WindowDays/2
		p.HasDays, p.DayLo, p.DayHi = true, int32(lo), int32(lo+rng.Intn(WindowDays))
	}
	if rng.Intn(2) == 0 {
		bits := rng.Intn(33)
		p.HasPrefix, p.PrefixBits = true, uint8(bits)
		p.Prefix = netx.Addr(rng.Uint32()).Mask(bits)
	}
	return p
}

// TestPlanURLRoundTrip drives random plans through both text forms —
// URL parameters and base64 — and back, asserting exact equality.
func TestPlanURLRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		p := randomPlan(rng)
		got, err := PlanFromValues(p.Values())
		if err != nil {
			t.Fatalf("PlanFromValues(%v): %v", p.Values(), err)
		}
		if got != p {
			t.Fatalf("URL round trip: got %+v, want %+v (params %v)", got, p, p.Values())
		}
		got, err = DecodePlanString(p.EncodeString())
		if err != nil {
			t.Fatalf("DecodePlanString(%q): %v", p.EncodeString(), err)
		}
		if got != p {
			t.Fatalf("base64 round trip: got %+v, want %+v", got, p)
		}
		// The plan= parameter must decode to the same plan as the
		// equivalent filter parameters.
		got, err = PlanFromValues(url.Values{ParamPlan: {p.EncodeString()}})
		if err != nil {
			t.Fatalf("PlanFromValues(plan=): %v", err)
		}
		if got != p {
			t.Fatalf("plan= round trip: got %+v, want %+v", got, p)
		}
	}
}

func TestPlanFromValuesForms(t *testing.T) {
	// In-window shorthand forms and whitespace tolerance.
	for _, tc := range []struct {
		query string
		want  Plan
	}{
		{"", PlanAll()},
		{"source=honeypot", Plan{Source: int8(SourceHoneypot)}},
		{"vectors=NTP,DNS", Plan{Source: -1, VecMask: 1<<VectorNTP | 1<<VectorDNS}},
		{"vectors=NTP, DNS", Plan{Source: -1, VecMask: 1<<VectorNTP | 1<<VectorDNS}},
		{"days=0-29", Plan{Source: -1, HasDays: true, DayLo: 0, DayHi: 29}},
		{"days=5", Plan{Source: -1, HasDays: true, DayLo: 5, DayHi: 5}},
		{"days=-3..7", Plan{Source: -1, HasDays: true, DayLo: -3, DayHi: 7}},
		{"prefix=198.51.100.0/24", Plan{Source: -1, HasPrefix: true, PrefixBits: 24, Prefix: netx.MustParseAddr("198.51.100.0")}},
		// The prefix is masked on parse, like Query.TargetPrefix.
		{"prefix=198.51.100.77/24", Plan{Source: -1, HasPrefix: true, PrefixBits: 24, Prefix: netx.MustParseAddr("198.51.100.0")}},
		{"limit=10&cursor=abc", PlanAll()}, // non-plan keys are ignored
	} {
		v, err := url.ParseQuery(tc.query)
		if err != nil {
			t.Fatal(err)
		}
		got, err := PlanFromValues(v)
		if err != nil {
			t.Fatalf("PlanFromValues(%q): %v", tc.query, err)
		}
		if got != tc.want {
			t.Fatalf("PlanFromValues(%q) = %+v, want %+v", tc.query, got, tc.want)
		}
	}
}

// badPlanQueries are URL query strings PlanFromValues must reject; the
// plan= values among them also seed FuzzDecodePlanString.
var badPlanQueries = []string{
	"source=darknet",
	"vectors=HTTP",
	"days=x",
	"days=3-",
	"prefix=198.51.100.0",    // no /bits
	"prefix=198.51.100.0/40", // bits out of range
	"plan=!!!",
	"plan=" + PlanAll().EncodeString() + "&days=0-1", // plan= is exclusive
}

func TestPlanFromValuesRejects(t *testing.T) {
	for _, query := range badPlanQueries {
		v, err := url.ParseQuery(query)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := PlanFromValues(v); err == nil {
			t.Fatalf("PlanFromValues(%q) succeeded, want error", query)
		}
	}
}

// FuzzDecodePlanString feeds arbitrary strings to the plan= decoder: it
// must never panic, and every plan it accepts must round-trip through
// EncodeString to the same plan and a stable canonical string.
func FuzzDecodePlanString(f *testing.F) {
	for _, query := range badPlanQueries {
		v, err := url.ParseQuery(query)
		if err != nil {
			f.Fatal(err)
		}
		if s := v.Get(ParamPlan); s != "" {
			f.Add(s)
		}
	}
	f.Add(base64.RawURLEncoding.EncodeToString(validPlanBytes()))
	for _, tc := range corruptPlans {
		f.Add(base64.RawURLEncoding.EncodeToString(tc.corrupt(validPlanBytes())))
	}
	f.Add(PlanAll().EncodeString())
	f.Add("")
	f.Fuzz(func(t *testing.T, s string) {
		p, err := DecodePlanString(s)
		if err != nil {
			return
		}
		enc := p.EncodeString()
		back, err := DecodePlanString(enc)
		if err != nil {
			t.Fatalf("DecodePlanString(%q) rejects the re-encoding %q of its own plan: %v", s, enc, err)
		}
		if back != p {
			t.Fatalf("plan round trip: %q decoded to %+v, %q back to %+v", s, p, enc, back)
		}
		if again := back.EncodeString(); again != enc {
			t.Fatalf("EncodeString is not canonical: %q then %q", enc, again)
		}
	})
}
