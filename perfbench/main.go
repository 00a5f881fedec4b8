// Command perfbench is the repository's end-to-end benchmark. It runs the
// hamserve serving stack in-process, drives it over loopback sockets with a
// closed loop of at most nproc connections, checks every answer against a
// serial reference and prints the run's metrics. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// installs timing shims at the layers' public seams and reports per-layer
// metrics instead, plus the shims' own overhead against an untraced window.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload classify-sentence --seed 1 --seconds 16 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"hdam/internal/core"
)

// setups is how many times an untraced run assembles the server; setup_s
// is the median of their set-up times at the nominal box speed, and the
// last one serves the measured window.
const setups = 3

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's final line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames, " | "))
	seed := flag.Uint64("seed", 1, "workload seed: the same seed generates the same inputs")
	seconds := flag.Int("seconds", 10, "measured window in seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be ≥ 1 and -trace 0 or 1")
		os.Exit(2)
	}
	if err := run(*name, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// errIncorrect fails a run whose result line reports incorrect answers.
var errIncorrect = errors.New("answers disagree with the serial reference")

func run(name string, seed uint64, seconds int, traced bool) error {
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	w, err := generate(name, seed, seconds)
	if err != nil {
		return err
	}
	scratch, err := scratchDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	dur := time.Duration(seconds) * time.Second

	fmt.Printf("box nproc=%d gomaxprocs=%d cpu=%q go=%s kernel=%s\n",
		nproc, runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), core.KernelName)
	fmt.Printf("run workload=%s seed=%d seconds=%d trace=%t conns=%d frame_texts=%d pool=%d learn_rate=%d/s\n",
		name, seed, seconds, traced, nproc, w.Frame, len(w.Texts), learnRateOf(w))

	var res result
	if traced {
		res, err = runTraced(w, scratch, nproc, dur)
	} else {
		res, err = runUntraced(w, scratch, nproc, dur)
	}
	if err != nil {
		return err
	}
	printMetrics(res.Metrics)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

func learnRateOf(w *Workload) int {
	if w.Learn == nil {
		return 0
	}
	return learnRate
}

// measured is one window with its gate verdict.
type measured struct {
	st    *stack
	win   *window
	v     verdict
	rssMB float64 // peak RSS at the end of the window, before the gate
	// setupS is the set-up time in seconds at the nominal box speed.
	setupS float64
}

// measure assembles a stack, drives one window and verifies it; the stack
// is closed before it returns. The peak RSS is read before the gate, whose
// reference vectors and reopened snapshots are not the server's memory.
func measure(w *Workload, t *tracer, scratch string, conns int, dur time.Duration) (m measured, err error) {
	m.st, err = newStack(w, t, scratch, conns)
	if err != nil {
		return m, fmt.Errorf("setup: %w", err)
	}
	defer m.st.close()
	if m.setupS, err = m.st.setupSeconds(); err != nil {
		return m, err
	}
	if m.win, err = m.st.drive(dur); err != nil {
		return m, err
	}
	m.rssMB = rssPeakMB()
	if err := checkLittle(m.win.little()); err != nil {
		return m, err
	}
	m.v, err = m.st.verify(m.win)
	return m, err
}

func runUntraced(w *Workload, scratch string, conns int, dur time.Duration) (result, error) {
	var setupS []float64
	for i := 0; i < setups-1; i++ {
		st, err := newStack(w, nil, scratch, conns)
		if err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		sec, err := st.setupSeconds()
		st.close()
		if err != nil {
			return result{}, err
		}
		setupS = append(setupS, sec)
	}
	// The earlier set-ups' memory must not count in the measured one's peak.
	if err := resetPeakRSS(); err != nil {
		return result{}, err
	}
	m, err := measure(w, nil, scratch, conns, dur)
	if err != nil {
		return result{}, err
	}
	setupS = append(setupS, m.setupS)
	e2e, err := endToEnd(m)
	if err != nil {
		return result{}, err
	}
	sort.Float64s(setupS)
	e2e["setup_s"] = metric{setupS[len(setupS)/2], "s"}
	e2e["rss_peak_mb"] = metric{m.rssMB, "MB"}
	return m.result(e2e), nil
}

// result folds the gate verdict into the run's final line.
func (m measured) result(ms map[string]metric) result {
	return result{
		Correct:   m.v.mismatches == 0,
		Attempted: m.v.attempted,
		Failed:    m.v.failed,
		Metrics:   ms,
	}
}

// endToEnd computes the user-visible metrics of one untraced window and
// prints the run record beside them. The timing figures are normalized to
// the nominal box speed (ref.go, normalize); the raw ones are printed.
func endToEnd(m measured) (map[string]metric, error) {
	win, v := m.win, m.v
	lat := win.latencies()
	el := win.elapsed()
	fmt.Printf("record frames=%d texts=%d elapsed_s=%.3f segments=%d little=%.4f steal_pct=%.3f\n",
		lat.n, win.answers(), el.Seconds(), len(win.segs), win.little(), win.steal)
	for i, s := range win.segs {
		fmt.Printf("segment %d frames=%d qps=%.1f cpu_us_per_req=%.2f ref_wall_us=%.1f ref_cpu_us=%.1f\n",
			i, s.lat.n, float64(s.texts)/s.span.Seconds(), float64(s.cpu)/1e3/float64(max(s.texts, 1)),
			float64(s.ref.wall)/1e3, float64(s.ref.cpu)/1e3)
	}
	n, err := win.normalize()
	if err != nil {
		return nil, err
	}
	p50, err := lat.percentile(50, time.Millisecond)
	if err != nil {
		return nil, err
	}
	p99, err := lat.percentile(99, time.Millisecond)
	if err != nil {
		return nil, err
	}
	var cpu time.Duration
	for _, s := range win.segs {
		cpu += s.cpu
	}
	cpuReq, err := cpuPerReq(cpu, win.answers())
	if err != nil {
		return nil, err
	}
	// The median frame latency is printed, not reported: it moved by up to a
	// third of its median between runs of unchanged code (NOTES.md).
	fmt.Printf("record raw qps=%.1f cpu_us_per_req=%.2f p50_ms=%g p99_ms=%g latency_samples=%d box_wall_speed=%.4f box_cpu_speed=%.4f\n",
		float64(win.answers())/el.Seconds(), cpuReq, p50, p99, lat.n, n.wallSpeed, n.cpuSpeed)
	if l := win.learn; l != nil {
		pub := durDist(l.publishes, time.Millisecond)
		fmt.Printf("record learn examples=%d generations=%d publish_ms=%.4f new_class_accuracy=%.4f pacer_late_ms=%.3f\n",
			l.sent, l.gens, pub.p(50), v.newClassAcc, float64(l.late)/1e6)
	}
	if v.firstBad != "" {
		fmt.Printf("record first_failure=%q\n", v.firstBad)
	}
	return map[string]metric{
		"qps_norm":            {n.qps, "1/s"},
		"p99_ms_norm":         {n.p99Ms, "ms"},
		"cpu_us_per_req_norm": {n.cpuUsPerReq, "us"},
		"accuracy":            {float64(v.correct) / float64(v.texts), "ratio"},
	}, nil
}

func sumDur(ds []time.Duration) (s time.Duration) {
	for _, d := range ds {
		s += d
	}
	return s
}

// printMetrics lists every metric by name with its unit, sorted.
func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %s=%g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}
