package main

// trace.go: timing shims for the traced run. Each wraps one public seam the
// layers compose through — netserve.Backend (and LearnBackend),
// core.Searcher, fleet.ReplicaTransport, the registry Swap callback and the
// learner's OnSnapshot hook — and records span durations in memory. Nothing
// here is installed in an untraced run.

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"hdam/internal/core"
	"hdam/internal/fleet"
	"hdam/internal/hv"
	"hdam/internal/learn"
	"hdam/internal/netserve"
	"hdam/internal/serve"
)

// spanLog collects one layer's span durations.
type spanLog struct {
	mu sync.Mutex
	ds []time.Duration
}

func (s *spanLog) add(d time.Duration) {
	s.mu.Lock()
	s.ds = append(s.ds, d)
	s.mu.Unlock()
}

func (s *spanLog) snapshot() []time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]time.Duration(nil), s.ds...)
}

// tracer holds every span log of one traced run.
type tracer struct {
	backend   spanLog // netserve.Backend.Go → response (engine or fleet ask)
	reconcile spanLog // Learner.Reconcile, called directly
	recSelf   spanLog // Reconcile minus the Registry.Check it published through
	search    spanLog // core.Searcher calls inside engine workers
	replica   spanLog // fleet.ReplicaTransport.Ask
	fleetSelf spanLog // fleet ask minus its slowest replica span
	ingest    spanLog // LearnBackend.Learn (learner admission)
	swap      spanLog // registry Swap callback (engine hot swap)
	check     spanLog // Registry.Check: the whole OnSnapshot hook

	asks      atomic.Uint64 // backend submissions
	transport atomic.Uint64 // replica asks (each one encodes the text once)

	// Every query frame is sent with a deadline budget, so the server gives
	// each frame its own context: the texts of one frame share it, and the
	// frame's backend span runs from its first submission to its last
	// answer. The map keeps each context alive, so keys are never reused.
	frameMu sync.Mutex
	frames  map[context.Context]*frameSpan
}

// frameSpan is the backend span of one query frame.
type frameSpan struct{ start, end time.Time }

func newTracer() *tracer { return &tracer{frames: map[context.Context]*frameSpan{}} }

// frameSpans returns every frame's backend span.
func (t *tracer) frameSpans() []time.Duration {
	t.frameMu.Lock()
	defer t.frameMu.Unlock()
	ds := make([]time.Duration, 0, len(t.frames))
	for _, f := range t.frames {
		ds = append(ds, f.end.Sub(f.start))
	}
	return ds
}

// askKey carries an ask's span through ctx to the replica transports the
// fleet fans it out to.
type askKey struct{}

// askSpan accumulates the slowest replica span of one fleet ask.
type askSpan struct{ slowest atomic.Int64 }

// tracedBackend times every backend submission until its response.
type tracedBackend struct {
	netserve.Backend
	t *tracer
}

func (b tracedBackend) Go(ctx context.Context, text string) (<-chan serve.Response, error) {
	start := time.Now()
	b.t.frameMu.Lock()
	frame := b.t.frames[ctx]
	if frame == nil {
		frame = &frameSpan{start: start}
		b.t.frames[ctx] = frame
	}
	b.t.frameMu.Unlock()
	span := &askSpan{}
	ch, err := b.Backend.Go(context.WithValue(ctx, askKey{}, span), text)
	if err != nil {
		return nil, err
	}
	b.t.asks.Add(1)
	out := make(chan serve.Response, 1)
	go func() {
		r := <-ch
		end := time.Now()
		d := end.Sub(start)
		b.t.backend.add(d)
		b.t.frameMu.Lock()
		if end.After(frame.end) {
			frame.end = end
		}
		b.t.frameMu.Unlock()
		if s := span.slowest.Load(); s > 0 {
			b.t.fleetSelf.add(d - time.Duration(s))
		}
		out <- r
	}()
	return out, nil
}

// tracedLearnBackend adds the LearnBackend capability, timing admission.
type tracedLearnBackend struct {
	tracedBackend
	lb netserve.LearnBackend
}

func (b tracedLearnBackend) Learn(ctx context.Context, label, text string) error {
	start := time.Now()
	err := b.lb.Learn(ctx, label, text)
	b.t.ingest.add(time.Since(start))
	return err
}

func (b tracedLearnBackend) LearnStats() learn.Stats { return b.lb.LearnStats() }

// traceBackend wraps a backend, keeping its learn capability if it has one.
func (t *tracer) traceBackend(b netserve.Backend) netserve.Backend {
	tb := tracedBackend{b, t}
	if lb, ok := b.(netserve.LearnBackend); ok {
		return tracedLearnBackend{tb, lb}
	}
	return tb
}

// tracedSearcher times every search an engine worker makes. The engines
// here serve exact scans (assoc.Exact) and fleet word-range partitions,
// both of which are buffered row searchers, so the shim keeps both
// capabilities and the engine takes the same code path it does untraced.
type tracedSearcher struct {
	base interface {
		core.Searcher
		core.RowSearcher
		core.BufferedSearcher
	}
	t *tracer
}

func (t *tracer) traceSearcher(s core.Searcher) core.Searcher {
	base, ok := s.(interface {
		core.Searcher
		core.RowSearcher
		core.BufferedSearcher
	})
	if !ok {
		panic("perfbench: traced searcher must be a buffered row searcher, got " + s.Name())
	}
	return tracedSearcher{base, t}
}

func (s tracedSearcher) Name() string { return s.base.Name() }

func (s tracedSearcher) Search(q *hv.Vector) core.Result {
	start := time.Now()
	r := s.base.Search(q)
	s.t.search.add(time.Since(start))
	return r
}

func (s tracedSearcher) SearchBuf(q *hv.Vector, buf *[]int) core.Result {
	start := time.Now()
	r := s.base.SearchBuf(q, buf)
	s.t.search.add(time.Since(start))
	return r
}

func (s tracedSearcher) ObservedDistances(dst []int, q *hv.Vector) []int {
	start := time.Now()
	ds := s.base.ObservedDistances(dst, q)
	s.t.search.add(time.Since(start))
	return ds
}

// tracedTransport times every replica ask and feeds the slowest one back to
// the fleet ask that caused it.
type tracedTransport struct {
	fleet.ReplicaTransport
	t *tracer
}

func (tr tracedTransport) Ask(ctx context.Context, text string) (fleet.Partial, error) {
	start := time.Now()
	p, err := tr.ReplicaTransport.Ask(ctx, text)
	d := time.Since(start)
	tr.t.replica.add(d)
	tr.t.transport.Add(1)
	if s, ok := ctx.Value(askKey{}).(*askSpan); ok {
		for {
			cur := s.slowest.Load()
			if int64(d) <= cur || s.slowest.CompareAndSwap(cur, int64(d)) {
				break
			}
		}
	}
	return p, err
}

// The fleet drains and health-checks transports through optional
// interfaces; delegate them so a traced fleet behaves like an untraced one.
func (tr tracedTransport) Drain(ctx context.Context) (uint64, error) {
	if d, ok := tr.ReplicaTransport.(interface {
		Drain(context.Context) (uint64, error)
	}); ok {
		return d.Drain(ctx)
	}
	return 0, tr.ReplicaTransport.Close()
}

func (tr tracedTransport) Connected() bool {
	if h, ok := tr.ReplicaTransport.(fleet.TransportHealth); ok {
		return h.Connected()
	}
	return true
}

func (tr tracedTransport) Reconnects() uint64 {
	if h, ok := tr.ReplicaTransport.(fleet.TransportHealth); ok {
		return h.Reconnects()
	}
	return 0
}

// timed runs f and records its duration in log.
func timed(log *spanLog, f func()) {
	start := time.Now()
	f()
	log.add(time.Since(start))
}
