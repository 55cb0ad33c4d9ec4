package main

import (
	"encoding/binary"
	"hash"
	"math"
	"slices"

	"doscope/internal/attack"
	"doscope/internal/netx"
)

// mix is the splitmix64 finalizer. Every generated value is a pure
// function of (seed, stream, index), so any event can be regenerated
// from its index without keeping the corpus in memory.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// rng is a splitmix64 stream.
type rng struct{ s uint64 }

func newRNG(seed, stream, i uint64) rng {
	return rng{mix(seed ^ mix(stream<<40^i))}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n) for n < 2^32.
func (r *rng) intn(n int) int { return int((r.next() >> 32) * uint64(n) >> 32) }

// float returns a value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// zipfRank draws a rank in [0, n) with probability roughly proportional
// to 1/(rank+1): the continuous inverse of a power law with exponent 1.
func (r *rng) zipfRank(n int) int { return r.zipfRankQ(n, 1) }

// zipfRankQ draws a rank in [0, n) with probability roughly proportional
// to 1/(rank+q) (Zipf-Mandelbrot): q flattens the head, so the hottest
// rank takes about 1/(q·ln(n/q)) of the draws instead of 1/ln(n).
func (r *rng) zipfRankQ(n int, q float64) int {
	k := int(q*math.Exp(r.float()*math.Log((float64(n)+q)/q)) - q)
	return min(max(k, 0), n-1)
}

// pick draws an index from cumulative weights.
func (r *rng) pick(cum []float64) int {
	u := r.float() * cum[len(cum)-1]
	i, _ := slices.BinarySearch(cum, u)
	return min(i, len(cum)-1)
}

func cumulative(w ...float64) []float64 {
	out := make([]float64, len(w))
	s := 0.0
	for i, x := range w {
		s += x
		out[i] = s
	}
	return out
}

var (
	telescopeVectors = []attack.Vector{attack.VectorTCP, attack.VectorUDP, attack.VectorICMP, attack.VectorOtherIP}
	telescopeWeights = cumulative(0.60, 0.25, 0.12, 0.03)
	honeypotVectors  = []attack.Vector{attack.VectorNTP, attack.VectorDNS, attack.VectorCharGen, attack.VectorSSDP, attack.VectorRIPv1, attack.VectorQOTD, attack.VectorMSSQL, attack.VectorTFTP}
	honeypotWeights  = cumulative(0.35, 0.25, 0.20, 0.12, 0.03, 0.02, 0.02, 0.01)
	commonPorts      = []uint16{80, 443, 22, 53, 123, 3389, 8080, 25}
)

// targetSpace maps Zipf ranks of /24 blocks to scattered block
// addresses, so hot blocks land in unrelated /8s.
type targetSpace struct {
	seed   uint64
	blocks int
}

// blockOf returns the /24 (as a 24-bit block number) of rank k: a
// seed-keyed bijection on 24 bits.
func (ts targetSpace) blockOf(k int) uint32 {
	const m = 1<<24 - 1
	x := (uint32(k) + uint32(ts.seed)) & m
	x = (x * 0x9e3779b1) & m
	x ^= x >> 11
	x = (x * 0x2c1b3c6d) & m
	x ^= x >> 13
	return x
}

// target draws a victim: a Zipf-ranked /24, then a uniform host in it.
// The hottest /24 draws about 0.1% of all attacks.
func (ts targetSpace) target(r *rng) netx.Addr {
	return netx.Addr(ts.blockOf(r.zipfRankQ(ts.blocks, 64))<<8 | uint32(r.intn(256)))
}

// corpus describes a deterministic event corpus: n events over days
// [day0, day0+ndays), both sensors, starts strictly increasing with the
// event index (so index order is the store's IterByStart order and no
// two events tie on start).
type corpus struct {
	seed   uint64
	day0   int
	space  targetSpace
	dayCum []int // dayCum[d] = events before day0+d
}

func newCorpus(seed uint64, n, day0, ndays int) *corpus {
	c := &corpus{seed: seed, day0: day0, space: targetSpace{seed: seed, blocks: 1 << 22}}
	// Daily volume: a weekly cycle, a slow trend and a handful of peak
	// days three times the usual volume, as in the paper's Figure 1.
	w := make([]float64, ndays)
	r := newRNG(seed, 1, 0)
	peaks := map[int]bool{}
	for len(peaks) < min(6, ndays) {
		peaks[r.intn(ndays)] = true
	}
	total := 0.0
	for d := range w {
		w[d] = 1 + 0.25*math.Sin(2*math.Pi*float64(d)/7) + 0.4*float64(d)/float64(ndays)
		if peaks[d] {
			w[d] *= 3
		}
		total += w[d]
	}
	c.dayCum = make([]int, ndays+1)
	acc := 0.0
	for d := range w {
		acc += w[d]
		c.dayCum[d+1] = int(math.Round(acc / total * float64(n)))
	}
	c.dayCum[ndays] = n
	return c
}

// event regenerates event i into e (Ports is freshly allocated).
func (c *corpus) event(i int, e *attack.Event) {
	d, _ := slices.BinarySearch(c.dayCum, i+1)
	d-- // dayCum[d] <= i < dayCum[d+1]
	nd := c.dayCum[d+1] - c.dayCum[d]
	j := i - c.dayCum[d]
	lo := j * 86400 / nd
	hi := (j + 1) * 86400 / nd
	r := newRNG(c.seed, 2, uint64(i))
	*e = attack.Event{Target: c.space.target(&r)}
	e.Start = attack.DayStart(c.day0+d) + int64(lo+r.intn(max(hi-lo, 1)))
	e.End = e.Start + int64(60*math.Exp(r.float()*7))
	e.Packets = 100 + uint64(r.intn(1_000_000))
	e.Bytes = e.Packets * uint64(40+r.intn(1400))
	if r.float() < 0.6 {
		e.Source = attack.SourceTelescope
		e.Vector = telescopeVectors[r.pick(telescopeWeights)]
		e.MaxPPS = math.Exp(r.float() * 10)
		if e.Vector == attack.VectorTCP || e.Vector == attack.VectorUDP {
			if r.float() < 0.8 {
				e.Ports = []uint16{commonPorts[r.intn(len(commonPorts))]}
			} else {
				for k := 2 + r.intn(3); k > 0; k-- {
					e.Ports = append(e.Ports, uint16(1+r.intn(65535)))
				}
				slices.Sort(e.Ports)
				e.Ports = slices.Compact(e.Ports)
			}
		}
	} else {
		e.Source = attack.SourceHoneypot
		e.Vector = honeypotVectors[r.pick(honeypotWeights)]
		e.AvgRPS = math.Exp(r.float() * 8)
	}
}

// events generates events [lo, hi) keeping those keep accepts (nil
// keeps all).
func (c *corpus) events(lo, hi int, keep func(*attack.Event) bool) []attack.Event {
	out := make([]attack.Event, 0, hi-lo)
	var e attack.Event
	for i := lo; i < hi; i++ {
		c.event(i, &e)
		if keep == nil || keep(&e) {
			out = append(out, e)
		}
	}
	return out
}

// hashEvent feeds one event's every field into h, for the provenance
// hash of the generated inputs.
func hashEvent(h hash.Hash64, e *attack.Event) {
	var b [64]byte
	buf := append(b[:0], byte(e.Source), byte(e.Vector))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(e.Target))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(e.Start))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(e.End))
	buf = binary.LittleEndian.AppendUint64(buf, e.Packets)
	buf = binary.LittleEndian.AppendUint64(buf, e.Bytes)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.MaxPPS))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.AvgRPS))
	for _, p := range e.Ports {
		buf = binary.LittleEndian.AppendUint16(buf, p)
	}
	h.Write(buf)
}
