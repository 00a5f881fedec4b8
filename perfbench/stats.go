package main

// stats.go: the measurement primitives every run shares — the percentile
// estimator and latency histogram, process CPU and steal accounting, peak
// RSS, runtime/metrics deltas and the Little's-law self-check.

import (
	"bufio"
	"fmt"
	"math"
	"math/bits"
	"os"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minTail is how many samples must lie beyond a percentile before it is
// reported: a p99 needs at least 1000 samples, a p999 at least 10000.
const minTail = 10

// nearestRank is the rank ⌈q/100·n⌉ of the q-th percentile (0 < q ≤ 100)
// of n samples. It refuses a percentile with fewer than minTail samples
// beyond it (the median needs only a non-empty sample), so a tail figure is
// never read off a handful of points.
func nearestRank(n int, q float64) (int, error) {
	if n == 0 {
		return 0, fmt.Errorf("percentile p%g of an empty sample", q)
	}
	if q <= 0 || q > 100 {
		return 0, fmt.Errorf("percentile p%g out of range", q)
	}
	if q > 50 {
		// The epsilon keeps float rounding (10000·0.1% = 9.999…) from
		// refusing a percentile with exactly minTail samples beyond it.
		if beyond := float64(n) * (100 - q) / 100; beyond+1e-9 < minTail {
			return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d samples", q, minTail, n)
		}
	}
	return max(int(math.Ceil(q/100*float64(n)-1e-9)), 1), nil
}

// percentile returns the nearest-rank q-th percentile of an ascending-sorted
// sample, with nearestRank's refusals.
func percentile(sorted []float64, q float64) (float64, error) {
	r, err := nearestRank(len(sorted), q)
	if err != nil {
		return 0, err
	}
	return sorted[r-1], nil
}

// latHist is a histogram of frame latencies with a fixed number of buckets,
// so recording a window takes the same memory at any throughput and the
// load generator's share of the peak RSS does not move with the program's
// speed. Buckets are exact below 128 ns; above, every doubling is cut into
// 64 buckets, each at most 1/64 of its lower edge wide.
type latHist struct {
	counts [histBuckets]uint32
	n      int
	sum    time.Duration
}

const (
	histSub     = 6  // log2 of the buckets per doubling
	histBits    = 34 // latencies clamp at 2^34 ns (17 s), beyond frameBudget
	histBuckets = (histBits - histSub + 1) << histSub
)

// histIndex is the bucket holding v nanoseconds (v < 2^histBits).
func histIndex(v uint64) int {
	if v < 2<<histSub {
		return int(v)
	}
	shift := bits.Len64(v) - histSub - 1
	return shift<<histSub + int(v>>shift)
}

// histBucket is bucket i's lower edge and width in nanoseconds.
func histBucket(i int) (lo, width uint64) {
	if i < 2<<histSub {
		return uint64(i), 1
	}
	shift := i>>histSub - 1
	return uint64(i-shift<<histSub) << shift, 1 << shift
}

func (h *latHist) add(d time.Duration) {
	v := uint64(max(d, 0))
	h.counts[histIndex(min(v, 1<<histBits-1))]++
	h.n++
	h.sum += d
}

func (h *latHist) merge(o *latHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

func (h *latHist) mean(unit time.Duration) float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n) / float64(unit)
}

// percentile is the nearest-rank q-th percentile, with nearestRank's
// refusals, read as the middle of the bucket holding that rank: within
// 1/128 of the sample's value.
func (h *latHist) percentile(q float64, unit time.Duration) (float64, error) {
	r, err := nearestRank(h.n, q)
	if err != nil {
		return 0, err
	}
	seen := 0
	for i, c := range h.counts {
		if seen += int(c); seen >= r {
			lo, w := histBucket(i)
			return (float64(lo) + float64(w-1)/2) / float64(unit), nil
		}
	}
	return 0, fmt.Errorf("histogram holds %d samples, not %d", seen, h.n)
}

// p is percentile reading a refused percentile as 0, for per-layer figures.
func (h *latHist) p(q float64, unit time.Duration) float64 {
	v, err := h.percentile(q, unit)
	if err != nil {
		return 0
	}
	return v
}

// dist is a sorted latency or duration sample in one unit.
type dist []float64

// newDist copies and sorts a sample.
func newDist(xs []float64) dist {
	d := append(dist(nil), xs...)
	sort.Float64s(d)
	return d
}

// durDist converts durations to a sorted sample in the given unit.
func durDist(ds []time.Duration, unit time.Duration) dist {
	d := make(dist, len(ds))
	for i, x := range ds {
		d[i] = float64(x) / float64(unit)
	}
	sort.Float64s(d)
	return d
}

// p is percentile that reports 0 for an empty or too-small sample; used
// only for per-layer figures, where a missing layer reads as zero.
func (d dist) p(q float64) float64 {
	v, err := percentile(d, q)
	if err != nil {
		return 0
	}
	return v
}

// median is the middle of a non-empty sample, the mean of the two middle
// values for an even count.
func median(xs []float64) float64 {
	d := newDist(xs)
	if n := len(d); n%2 == 0 {
		return (d[n/2-1] + d[n/2]) / 2
	}
	return d[len(d)/2]
}

func (d dist) mean() float64 {
	if len(d) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range d {
		s += x
	}
	return s / float64(len(d))
}

func (d dist) max() float64 {
	if len(d) == 0 {
		return 0
	}
	return d[len(d)-1]
}

// cpuTime is the process's user+system CPU time so far (getrusage).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuPerReq is the CPU spent per request in microseconds.
func cpuPerReq(cpu time.Duration, reqs int) (float64, error) {
	if reqs <= 0 {
		return 0, fmt.Errorf("cpu per request over %d requests", reqs)
	}
	if cpu <= 0 {
		return 0, fmt.Errorf("no CPU time measured over %d requests", reqs)
	}
	return float64(cpu) / float64(time.Microsecond) / float64(reqs), nil
}

// cpuStat is the aggregate line of /proc/stat, in clock ticks.
type cpuStat struct{ total, steal uint64 }

// parseCPUStat reads the aggregate "cpu" line of a /proc/stat listing.
func parseCPUStat(text string) (cpuStat, error) {
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) < 9 || f[0] != "cpu" {
			continue
		}
		var st cpuStat
		// user nice system idle iowait irq softirq steal [guest guest_nice];
		// guest time is already counted in user, so only the first eight sum.
		for i := 1; i <= 8; i++ {
			v, err := strconv.ParseUint(f[i], 10, 64)
			if err != nil {
				return cpuStat{}, fmt.Errorf("/proc/stat field %d: %w", i, err)
			}
			st.total += v
			if i == 8 {
				st.steal = v
			}
		}
		return st, nil
	}
	return cpuStat{}, fmt.Errorf("/proc/stat has no aggregate cpu line")
}

func readCPUStat() cpuStat {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	st, _ := parseCPUStat(string(b))
	return st
}

// stealPct is the share of all CPU ticks between two readings that the
// hypervisor gave to other guests, in percent.
func stealPct(a, b cpuStat) float64 {
	if b.total <= a.total {
		return 0
	}
	return 100 * float64(b.steal-a.steal) / float64(b.total-a.total)
}

// statusKB reads one "Key: N kB" field of /proc/self/status.
func statusKB(key string) float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, key+":") {
			continue
		}
		fs := strings.Fields(line[len(key)+1:])
		if len(fs) == 0 {
			return 0
		}
		v, _ := strconv.ParseFloat(fs[0], 64)
		return v
	}
	return 0
}

// rssPeakMB is the process's peak resident set (VmHWM) in MB.
func rssPeakMB() float64 { return statusKB("VmHWM") / 1024 }

// resetPeakRSS returns the heap's free pages to the kernel and restarts
// VmHWM from the current resident set (proc(5), clear_refs value 5).
func resetPeakRSS() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// cpuModel names the processor from /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// runtimeSample is one reading of the runtime/metrics the traced run
// reports GC pauses, scheduling latency and allocation from.
type runtimeSample struct {
	gcPauses *metrics.Float64Histogram
	schedLat *metrics.Float64Histogram
	allocB   uint64
}

var runtimeNames = []string{
	"/gc/pauses:seconds",
	"/sched/latencies:seconds",
	"/gc/heap/allocs:bytes",
}

func readRuntime() runtimeSample {
	ss := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	var r runtimeSample
	if ss[0].Value.Kind() == metrics.KindFloat64Histogram {
		r.gcPauses = ss[0].Value.Float64Histogram()
	}
	if ss[1].Value.Kind() == metrics.KindFloat64Histogram {
		r.schedLat = ss[1].Value.Float64Histogram()
	}
	if ss[2].Value.Kind() == metrics.KindUint64 {
		r.allocB = ss[2].Value.Uint64()
	}
	return r
}

// histDelta is the distribution of events recorded between two readings of
// one cumulative runtime histogram.
type histDelta struct {
	counts  []uint64
	buckets []float64 // len(counts)+1 boundaries
	n       uint64
}

func newHistDelta(a, b *metrics.Float64Histogram) histDelta {
	if a == nil || b == nil || len(a.Counts) != len(b.Counts) {
		return histDelta{}
	}
	h := histDelta{counts: make([]uint64, len(b.Counts)), buckets: b.Buckets}
	for i := range b.Counts {
		h.counts[i] = b.Counts[i] - a.Counts[i]
		h.n += h.counts[i]
	}
	return h
}

// quantile is the upper boundary of the bucket holding the nearest-rank
// q-th quantile (0 when empty): runtime histograms are bucketed, so the
// bound is the tightest honest reading.
func (h histDelta) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q*float64(h.n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			ub := h.buckets[i+1]
			if math.IsInf(ub, 1) {
				ub = h.buckets[i]
			}
			return ub
		}
	}
	return h.buckets[len(h.buckets)-1]
}

// littleRatio is Little's law applied to a closed loop: completed frames
// per second times mean frame latency is the mean number of frames in
// flight, which for a generator that keeps every connection busy equals the
// connection count. The ratio (in flight ÷ connections) falls below one by
// the share of the window the generator spent between requests instead of
// waiting on one.
func littleRatio(frames int, elapsed, sumLatency time.Duration, conns int) float64 {
	if frames == 0 || elapsed <= 0 || conns == 0 {
		return 0
	}
	rate := float64(frames) / elapsed.Seconds()
	meanLat := sumLatency.Seconds() / float64(frames)
	return rate * meanLat / float64(conns)
}

// littleMin is the lowest accepted Little's-law ratio: a generator that
// spends more than 5% of its window outside requests has fallen behind and
// no longer offers the load the workload names.
const littleMin = 0.95

// checkLittle fails a run whose generator fell behind.
func checkLittle(ratio float64) error {
	if ratio < littleMin || ratio > 1.02 {
		return fmt.Errorf("little's law: %.3f of the %d%%–102%% expected requests in flight (generator fell behind or double-counted)", ratio, int(littleMin*100))
	}
	return nil
}
