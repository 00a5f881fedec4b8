package main

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"
)

func seq(n int) dist {
	d := make(dist, n)
	for i := range d {
		d[i] = float64(i + 1)
	}
	return d
}

func TestPercentileNearestRank(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want float64
	}{
		{1, 50, 1},
		{2, 50, 1},      // rank ⌈1⌉ = 1
		{3, 50, 2},      // rank ⌈1.5⌉ = 2
		{10, 50, 5},     // rank 5
		{11, 50, 6},     // rank ⌈5.5⌉ = 6
		{1000, 99, 990}, // exactly 10 samples beyond
		{1001, 99, 991}, // rank ⌈990.99⌉ = 991, never truncated to 990
		{10000, 99.9, 9990},
		{2000, 99, 1980},
		{1000, 100, 0}, // no samples beyond a p100: refused
	}
	for _, c := range cases {
		got, err := percentile(seq(c.n), c.q)
		if c.q == 100 {
			if err == nil {
				t.Errorf("p100 of %d samples: want refusal (no samples beyond it)", c.n)
			}
			continue
		}
		if err != nil {
			t.Errorf("p%g of %d samples: %v", c.q, c.n, err)
			continue
		}
		if got != c.want {
			t.Errorf("p%g of %d samples = %g, want %g", c.q, c.n, got, c.want)
		}
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	// A p99 needs ten samples beyond it: 1000 samples at least.
	if _, err := percentile(seq(999), 99); err == nil {
		t.Error("p99 of 999 samples: want refusal")
	} else if !strings.Contains(err.Error(), "999 samples") {
		t.Errorf("refusal %q does not state the sample count", err)
	}
	if _, err := percentile(seq(1000), 99); err != nil {
		t.Errorf("p99 of 1000 samples: %v", err)
	}
	if _, err := percentile(seq(9999), 99.9); err == nil {
		t.Error("p99.9 of 9999 samples: want refusal")
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Error("median of no samples: want refusal")
	}
	if v, err := percentile(seq(1), 50); err != nil || v != 1 {
		t.Errorf("median of one sample = %g, %v", v, err)
	}
	// Per-layer figures read a refused percentile as zero.
	if got := seq(10).p(99); got != 0 {
		t.Errorf("dist.p(99) of 10 samples = %g, want 0", got)
	}
}

func TestCPUAccounting(t *testing.T) {
	// A busy loop shows up as CPU time; a sleep does not.
	c0 := cpuTime()
	deadline := time.Now().Add(60 * time.Millisecond)
	x := 1.0
	for time.Now().Before(deadline) {
		x = math.Sqrt(x + 1)
	}
	busy := cpuTime() - c0
	if busy < 30*time.Millisecond {
		t.Errorf("60ms busy loop measured %v of CPU (x=%g)", busy, x)
	}
	c1 := cpuTime()
	time.Sleep(60 * time.Millisecond)
	if idle := cpuTime() - c1; idle > 30*time.Millisecond {
		t.Errorf("60ms sleep measured %v of CPU", idle)
	}

	got, err := cpuPerReq(3*time.Millisecond, 1000)
	if err != nil || math.Abs(got-3) > 1e-9 {
		t.Errorf("3ms over 1000 requests = %g µs, %v; want 3 µs", got, err)
	}
	if _, err := cpuPerReq(time.Millisecond, 0); err == nil {
		t.Error("CPU per request over zero requests: want an error")
	}
	if _, err := cpuPerReq(0, 10); err == nil {
		t.Error("zero CPU over ten requests: want an error")
	}
}

func TestStealShare(t *testing.T) {
	a, err := parseCPUStat("cpu  100 0 50 800 10 0 5 35 7 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n")
	if err != nil {
		t.Fatal(err)
	}
	// Guest time (7) is already inside user time and is not summed again.
	if a.total != 1000 || a.steal != 35 {
		t.Fatalf("parsed %+v, want total 1000 steal 35", a)
	}
	b, err := parseCPUStat("cpu  150 0 70 1000 10 0 5 65 9 0\n")
	if err != nil {
		t.Fatal(err)
	}
	if got := stealPct(a, b); math.Abs(got-10) > 1e-9 {
		t.Errorf("steal share = %g%%, want 10%%", got)
	}
	if got := stealPct(b, b); got != 0 {
		t.Errorf("steal share of an empty interval = %g", got)
	}
	if _, err := parseCPUStat("intr 1 2 3\n"); err == nil {
		t.Error("listing without a cpu line: want an error")
	}
}

func TestLittlesLaw(t *testing.T) {
	// Two connections each kept one 1ms frame in flight for a whole second:
	// 2000 frames, 2000ms of summed latency.
	r := littleRatio(2000, time.Second, 2000*time.Millisecond, 2)
	if math.Abs(r-1) > 1e-9 {
		t.Errorf("busy closed loop: ratio %g, want 1", r)
	}
	if err := checkLittle(r); err != nil {
		t.Errorf("busy closed loop rejected: %v", err)
	}
	// A generator that idled 20% of the window between requests completed
	// only 1600 frames of the same latency.
	r = littleRatio(1600, time.Second, 1600*time.Millisecond, 2)
	if err := checkLittle(r); err == nil {
		t.Errorf("generator that fell behind (ratio %g) accepted", r)
	}
	// More in flight than connections means double-counted frames.
	if err := checkLittle(littleRatio(2000, time.Second, 2400*time.Millisecond, 2)); err == nil {
		t.Error("over-counted frames accepted")
	}
}

func TestSegmentsAndNormalize(t *testing.T) {
	nominal := refSample{refWallNominal, refCPUNominal}
	slow := refSample{2 * refWallNominal, 2 * refCPUNominal}
	w := &window{
		conns: []connLog{{}, {}},
		segs: []segment{
			{span: time.Second, cpu: 40 * time.Millisecond, ref: nominal},
			{span: time.Second, cpu: 50 * time.Millisecond, ref: slow},
			{span: 2 * time.Second, cpu: 300 * time.Millisecond, ref: nominal},
		},
	}
	// 2000, 1000 and 3000 frames of 2 texts, spread over both connections;
	// the last tenth of each segment's frames took 4 ms, the rest 1 ms.
	for seg, frames := range []int{2000, 1000, 3000} {
		for f := 0; f < frames; f++ {
			lat := time.Millisecond
			if f >= frames*9/10 {
				lat = 4 * time.Millisecond
			}
			w.conns[f%2].frame(seg, lat)
		}
	}
	w.gather(2)
	for i, want := range []int{4000, 2000, 6000} {
		if w.segs[i].texts != want || w.segs[i].lat.n != want/2 {
			t.Errorf("segment %d: %d texts in %d frames, want %d", i, w.segs[i].texts, w.segs[i].lat.n, want)
		}
	}
	if all := w.latencies(); all.n != 6000 || all.sum != 7800*time.Millisecond {
		t.Errorf("window latencies: %d frames, %v summed", all.n, all.sum)
	}
	// The time under load leaves out the reference bursts between segments.
	if w.elapsed() != 4*time.Second {
		t.Errorf("elapsed %v, want 4s", w.elapsed())
	}
	n, err := w.normalize()
	if err != nil {
		t.Fatal(err)
	}
	// Raw qps 4000, 2000, 3000; the second segment ran at half speed, so
	// at the nominal speed it would have served 4000.
	if n.qps != 4000 {
		t.Errorf("normalized qps %g, want the median of 4000, 4000, 3000", n.qps)
	}
	// Raw CPU per text 10, 25, 50 µs; at half speed 25 µs is 12.5 µs.
	if n.cpuUsPerReq != 12.5 {
		t.Errorf("normalized CPU per request %g µs, want the median of 10, 12.5, 50", n.cpuUsPerReq)
	}
	// Every segment's p99 is 4 ms (the middle of its histogram bucket), 2 ms
	// at the nominal speed for the half-speed one.
	if n.p99Ms < 3.97 || n.p99Ms > 4.03 {
		t.Errorf("normalized p99 %g ms, want the median of 4, 2, 4", n.p99Ms)
	}
	if n.wallSpeed != 1 || n.cpuSpeed != 1 {
		t.Errorf("median box speed %g/%g, want 1", n.wallSpeed, n.cpuSpeed)
	}
	if slow.mean(nominal).wallSpeed() != float64(refWallNominal)/float64(refWallNominal*3/2) {
		t.Errorf("a segment between a slow and a nominal burst is scaled by %g", slow.mean(nominal).wallSpeed())
	}
	// A segment without answers has no CPU per request to scale.
	w.segs = append(w.segs, segment{lat: &latHist{}, span: time.Second, cpu: time.Millisecond, ref: nominal})
	if _, err := w.normalize(); err == nil {
		t.Error("segment without answers accepted")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median of 3 1 2 = %g", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of 4 1 3 2 = %g", m)
	}
}

func TestRefBurst(t *testing.T) {
	k := newRefKernel()
	var s refScratch
	// Fixed inputs: the same text always lands on the same class.
	if a, b := k.classify(&k.texts[3], &s), k.classify(&k.texts[3], &s); a != b {
		t.Errorf("reference classified one text as %d then %d", a, b)
	}
	if err := k.start(2); err != nil {
		t.Fatal(err)
	}
	defer k.close()
	r, err := k.burst()
	if err != nil {
		t.Fatal(err)
	}
	if r.wall <= 0 || r.cpu <= 0 {
		t.Errorf("burst timed at %v wall, %v CPU per text", r.wall, r.cpu)
	}
}

func TestLatHistBuckets(t *testing.T) {
	// Buckets tile the line: each holds its own edges and none is wider
	// than 1/64 of its lower edge.
	prevEnd := uint64(0)
	for i := 0; i < histBuckets; i++ {
		lo, w := histBucket(i)
		if lo != prevEnd {
			t.Fatalf("bucket %d starts at %d, the previous ended at %d", i, lo, prevEnd)
		}
		if histIndex(lo) != i || histIndex(lo+w-1) != i {
			t.Fatalf("bucket %d [%d, %d) does not index to itself", i, lo, lo+w)
		}
		if w > 1 && w > lo>>histSub {
			t.Fatalf("bucket %d [%d, %d) wider than 1/64 of its edge", i, lo, lo+w)
		}
		prevEnd = lo + w
	}
	if prevEnd != 1<<histBits {
		t.Errorf("buckets end at %d, want 2^%d", prevEnd, histBits)
	}
}

func TestLatHistPercentile(t *testing.T) {
	// The histogram's percentile is the exact nearest-rank one to within
	// half a bucket, and refuses what percentile refuses.
	rng := rand.New(rand.NewSource(1))
	h := &latHist{}
	var xs []float64
	for i := 0; i < 5000; i++ {
		d := time.Duration(50_000 + rng.ExpFloat64()*300_000)
		h.add(d)
		xs = append(xs, float64(d))
	}
	exact := newDist(xs)
	for _, q := range []float64{50, 90, 99, 99.8} {
		want, _ := percentile(exact, q)
		got, err := h.percentile(q, time.Nanosecond)
		if err != nil {
			t.Fatalf("p%g: %v", q, err)
		}
		if math.Abs(got-want) > want/128 {
			t.Errorf("p%g = %g, exact %g", q, got, want)
		}
	}
	if _, err := h.percentile(99.9, time.Nanosecond); err == nil {
		t.Error("p99.9 of 5000 samples: want refusal")
	}
	if got := h.p(99.9, time.Nanosecond); got != 0 {
		t.Errorf("refused p99.9 reads %g, want 0", got)
	}
	if m := h.mean(time.Nanosecond); math.Abs(m-exact.mean()) > 1e-6*m {
		t.Errorf("mean %g, exact %g", m, exact.mean())
	}
	// Small latencies are exact; merging adds counts.
	e := &latHist{}
	e.add(7)
	e.merge(e)
	if v, err := e.percentile(50, time.Nanosecond); err != nil || v != 7 || e.n != 2 {
		t.Errorf("merged exact histogram: p50 %g (%v), %d samples", v, err, e.n)
	}
}
