package perf

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"hdam/internal/assoc"
	"hdam/internal/serve"
)

// ServeResult is one closed-loop load-harness measurement of the
// micro-batching serve engine (or its serial baseline).
type ServeResult struct {
	Name     string  `json:"name"`
	Workers  int     `json:"workers"`   // engine workers (0 for the serial baseline)
	MaxBatch int     `json:"max_batch"` // micro-batch cap (0 for the serial baseline)
	Clients  int     `json:"clients"`   // concurrent closed-loop clients
	Requests int     `json:"requests"`  // total requests measured
	QPS      float64 `json:"qps"`
	P50Us    float64 `json:"p50_us"`
	P95Us    float64 `json:"p95_us"`
	P99Us    float64 `json:"p99_us"`
	AvgBatch float64 `json:"avg_batch,omitempty"`
	// SpeedupVsSerial is QPS over the serial single-query-loop baseline of
	// the same run (1.0 for the baseline itself).
	SpeedupVsSerial float64 `json:"speedup_vs_serial,omitempty"`
}

// ServeLoad configures one load point of the harness.
type ServeLoad struct {
	Workers  int           // engine workers
	MaxBatch int           // micro-batch cap
	MaxDelay time.Duration // batching delay window
	Clients  int           // concurrent closed-loop clients
	Requests int           // total requests across all clients
}

// DefaultServeLoads is the sweep make bench records: the serial baseline is
// always measured first, then the engine at increasing concurrency.
func DefaultServeLoads(requests int) []ServeLoad {
	return []ServeLoad{
		{Workers: 1, MaxBatch: 32, Clients: 1, Requests: requests},
		{Workers: 1, MaxBatch: 32, Clients: 4, Requests: requests},
		{Workers: 4, MaxBatch: 32, Clients: 16, Requests: requests},
	}
}

// runServeLoad drives one closed-loop load point: Clients goroutines each
// submit Requests/Clients texts back-to-back, recording per-request latency.
func runServeLoad(f *fixtures, texts []string, load ServeLoad) (ServeResult, error) {
	eng, err := serve.New(f.mem, assoc.NewExact(f.mem), benchEncoderFactory(), serve.Config{
		Workers:  load.Workers,
		MaxBatch: load.MaxBatch,
		MaxDelay: load.MaxDelay,
		Seed:     benchSeed,
	})
	if err != nil {
		return ServeResult{}, err
	}
	defer eng.Close()

	per := load.Requests / load.Clients
	if per < 1 {
		per = 1
	}
	lats := make([][]time.Duration, load.Clients)
	var wg sync.WaitGroup
	errs := make(chan error, load.Clients)
	start := time.Now()
	for c := 0; c < load.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			mine := make([]time.Duration, 0, per)
			for i := 0; i < per; i++ {
				text := texts[(c*per+i)%len(texts)]
				t0 := time.Now()
				if _, err := eng.Submit(context.Background(), text); err != nil {
					errs <- err
					return
				}
				mine = append(mine, time.Since(t0))
			}
			lats[c] = mine
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errs:
		return ServeResult{}, err
	default:
	}

	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	st := eng.Stats()
	return ServeResult{
		Name:     fmt.Sprintf("serve/engine-w%d-b%d-c%d", load.Workers, load.MaxBatch, load.Clients),
		Workers:  load.Workers,
		MaxBatch: load.MaxBatch,
		Clients:  load.Clients,
		Requests: len(all),
		QPS:      float64(len(all)) / elapsed.Seconds(),
		P50Us:    float64(percentile(all, 50)) / 1e3,
		P95Us:    float64(percentile(all, 95)) / 1e3,
		P99Us:    float64(percentile(all, 99)) / 1e3,
		AvgBatch: st.AvgBatch(),
	}, nil
}

// runServeSerial measures the single-query-loop baseline the engine is
// judged against: one goroutine, one encoder, one searcher, no batching.
func runServeSerial(f *fixtures, texts []string, requests int) ServeResult {
	enc := benchEncoderFactory()()
	exact := assoc.NewExact(f.mem)
	var buf []int
	lats := make([]time.Duration, 0, requests)
	start := time.Now()
	for i := 0; i < requests; i++ {
		t0 := time.Now()
		q, n := enc.EncodeText(texts[i%len(texts)], benchSeed)
		if n == 0 {
			panic("perf: empty benchmark text")
		}
		if exact.SearchBuf(q, &buf).Index < 0 {
			panic("perf: impossible winner")
		}
		lats = append(lats, time.Since(t0))
	}
	elapsed := time.Since(start)
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return ServeResult{
		Name:            "serve/serial-loop",
		Clients:         1,
		Requests:        requests,
		QPS:             float64(requests) / elapsed.Seconds(),
		P50Us:           float64(percentile(lats, 50)) / 1e3,
		P95Us:           float64(percentile(lats, 95)) / 1e3,
		P99Us:           float64(percentile(lats, 99)) / 1e3,
		SpeedupVsSerial: 1,
	}
}

// RunServe executes the closed-loop serve load harness: the serial baseline
// first, then every load point, with each engine result annotated with its
// speedup over the baseline.
func RunServe(loads []ServeLoad) ([]ServeResult, error) {
	f := buildFixtures()
	texts := benchTexts(f, 256)
	requests := 2048
	if len(loads) > 0 && loads[0].Requests > 0 {
		requests = loads[0].Requests
	}
	serial := runServeSerial(f, texts, requests)
	out := []ServeResult{serial}
	for _, load := range loads {
		if load.Requests <= 0 {
			load.Requests = requests
		}
		r, err := runServeLoad(f, texts, load)
		if err != nil {
			return nil, err
		}
		if serial.QPS > 0 {
			r.SpeedupVsSerial = r.QPS / serial.QPS
		}
		out = append(out, r)
	}
	return out, nil
}
