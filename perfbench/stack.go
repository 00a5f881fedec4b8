package main

// stack.go: the server under test, assembled in-process exactly as
// cmd/hamserve assembles it — netserve over a serve.Engine with exact
// search (plus learn + store.Registry hot swaps for learn-while-serve), or
// over a 4-replica ByWords fleet — and the client connections that drive it
// over loopback.

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"hdam"
	"hdam/internal/encoder"
	"hdam/internal/fleet"
	"hdam/internal/itemmem"
	"hdam/internal/lang"
	"hdam/internal/learn"
	"hdam/internal/netserve"
	"hdam/internal/serve"
	"hdam/internal/store"
)

// hamserve's defaults: the pipeline seed, training size and engine tuning
// a plain `hamserve` (or `hamserve -fleet 4`, `hamserve -learn`) runs with.
const (
	pipelineSeed = 2017
	trainChars   = 50_000
	engineBatch  = 64
	engineQueue  = 512
	fleetSize    = 4
)

// warmupTexts is how many texts each connection sends before the server
// counts as ready: enough to fault in every code path and encoder scratch.
const warmupTexts = 512

// stack is one assembled server plus its client connections.
type stack struct {
	w   *Workload
	t   *tracer // nil in an untraced run
	tr  *lang.Trained
	srv *netserve.Server
	eng *serve.Engine
	fl  *fleet.Fleet
	// replicas are the fleet's replica engines, kept by a traced run, which
	// assembles them itself.
	replicas []*serve.Engine
	lr       *learn.Learner
	reg      *store.Registry
	dir      string // snapshot directory (learn-while-serve)

	ref *refKernel // times the box between segments of load (ref.go)

	clients []*netserve.Client // query connections
	learnCl *netserve.Client   // learn connection (learn-while-serve)

	mu     sync.Mutex
	gens   map[uint64]string // engine generation → snapshot serving it
	swapAt time.Time         // when the latest swap finished

	setup time.Duration
}

// encoderFactory is the encoder pipeline every hamserve engine is built
// with (hdam.NewEngine / hdam.NewFleet).
func encoderFactory(p lang.Params) func() *encoder.Encoder {
	return func() *encoder.Encoder {
		im := itemmem.New(p.Dim, p.Seed)
		im.Preload(itemmem.LatinAlphabet)
		return encoder.New(im, p.NGram)
	}
}

// train builds the served model as hamserve does when given no snapshot.
func train(langs []*hdam.Language) (*lang.Trained, error) {
	p := hdam.DefaultLanguageParams()
	p.TrainChars = trainChars
	p.Seed = pipelineSeed
	p.TestPerLang = 1
	return hdam.TrainLanguages(langs, p)
}

// newStack assembles and warms one server for the workload. scratch is the
// directory the learner's snapshot generations go under.
func newStack(w *Workload, t *tracer, scratch string, conns int) (st *stack, err error) {
	start := time.Now()
	st = &stack{w: w, t: t, ref: newRefKernel(), gens: map[uint64]string{1: ""}}
	defer func() {
		if err != nil {
			st.close()
			st = nil
		}
	}()
	if st.tr, err = train(w.Langs); err != nil {
		return nil, err
	}
	var backend netserve.Backend
	switch {
	case w.Fleet:
		if st.fl, err = st.newFleet(); err != nil {
			return nil, err
		}
		backend = netserve.FleetBackend(st.fl)
	default:
		s := hdam.NewExactSearcher(st.tr.Memory)
		if t != nil {
			s = t.traceSearcher(s)
		}
		st.eng, err = hdam.NewEngine(st.tr, s, hdam.ServeConfig{
			MaxBatch: engineBatch,
			Queue:    engineQueue,
			Policy:   hdam.ServeReject,
			Seed:     pipelineSeed,
		})
		if err != nil {
			return nil, err
		}
		backend = netserve.EngineBackend(st.eng)
		if w.Learn != nil {
			if err = st.newLearner(scratch); err != nil {
				return nil, err
			}
			backend = netserve.LearnEngineBackend(st.eng, st.lr)
		}
	}
	if t != nil {
		backend = t.traceBackend(backend)
	}
	if err = st.ref.start(conns); err != nil {
		return nil, err
	}
	if st.srv, err = netserve.New(backend, netserve.Config{BinaryAddr: "127.0.0.1:0"}); err != nil {
		return nil, err
	}
	addr := st.srv.BinaryAddr().String()
	for i := 0; i < conns; i++ {
		cl, err := netserve.Dial(addr, 5*time.Second)
		if err != nil {
			return nil, err
		}
		st.clients = append(st.clients, cl)
	}
	// The learn stream gets a connection of its own beside the nproc query
	// connections. With one query connection fewer, as first planned, the
	// CPUs idled between the lone connection's requests, and the wake-ups
	// made its p99 swing by a quarter to two fifths of the median between
	// runs; with nproc query connections it stays within a tenth.
	if w.Learn != nil {
		if st.learnCl, err = netserve.Dial(addr, 5*time.Second); err != nil {
			return nil, err
		}
	}
	if err = st.warm(); err != nil {
		return nil, err
	}
	st.setup = time.Since(start)
	return st, nil
}

// setupSeconds is the stack's set-up time scaled to the nominal box speed
// by a reference burst taken right after it (ref.go): set-up is timed
// against the wall clock, so it is scaled by the box's wall-clock speed.
// The raw time is printed beside it.
func (st *stack) setupSeconds() (float64, error) {
	r, err := st.ref.burst()
	if err != nil {
		return 0, err
	}
	sec := st.setup.Seconds() * r.wallSpeed()
	fmt.Printf("record setup raw_s=%.4f box_wall_speed=%.4f setup_s=%.4f\n", st.setup.Seconds(), r.wallSpeed(), sec)
	return sec, nil
}

// newFleet builds the 4-replica ByWords fleet `hamserve -fleet 4` serves.
// The traced run assembles the same replica engines itself (as
// fleet.PartitionModel + serve.New with the fleet's replica engine config)
// so that each one's transport and searcher can carry a timing shim.
func (st *stack) newFleet() (*fleet.Fleet, error) {
	cfg := hdam.FleetConfig{Replicas: fleetSize, Seed: pipelineSeed}
	if st.t == nil {
		return hdam.NewFleet(st.tr, cfg)
	}
	newEnc := encoderFactory(st.tr.Params)
	var trs []fleet.ReplicaTransport
	fail := func(err error) (*fleet.Fleet, error) {
		for _, tr := range trs {
			tr.Close()
		}
		return nil, err
	}
	for p := 0; p < fleetSize; p++ {
		mem, s, err := fleet.PartitionModel(st.tr.Memory, fleet.ByWords, p, fleetSize)
		if err != nil {
			return fail(err)
		}
		eng, err := serve.New(mem, st.t.traceSearcher(s), newEnc, serve.Config{
			Workers:         1,
			Seed:            pipelineSeed,
			ReportDistances: true,
		})
		if err != nil {
			return fail(err)
		}
		trs = append(trs, tracedTransport{fleet.EngineTransport(eng), st.t})
		st.replicas = append(st.replicas, eng)
	}
	cfg.Partitions = fleetSize
	fl, err := fleet.NewRemote(st.tr.Memory, trs, cfg)
	if err != nil {
		return fail(err)
	}
	return fl, nil
}

// newLearner wires the online learner and the snapshot registry exactly as
// `hamserve -learn` does, except that the benchmark calls Reconcile itself
// on a count of acknowledged examples instead of running the interval loop.
func (st *stack) newLearner(scratch string) (err error) {
	if st.dir, err = os.MkdirTemp(scratch, "learn-*"); err != nil {
		return err
	}
	st.reg, err = hdam.NewModelRegistry(hdam.ModelRegistryConfig{
		Dir:  st.dir,
		Swap: st.swap,
	})
	if err != nil {
		return err
	}
	p := st.tr.Params
	st.lr, err = hdam.NewLearner(st.tr.Memory, hdam.LearnConfig{
		Dim:        p.Dim,
		NGram:      p.NGram,
		Seed:       p.Seed,
		Dir:        st.dir,
		Trainer:    "perfbench",
		OnSnapshot: st.onSnapshot,
	})
	return err
}

// swap is the registry's Swap callback: hamserve's, plus the bookkeeping
// the correctness gate and publish timing need.
func (st *stack) swap(snap *hdam.Snapshot) error {
	m, s, err := hdam.SnapshotModel(snap)
	if err != nil {
		return err
	}
	if st.t != nil {
		s = st.t.traceSearcher(s)
	}
	start := time.Now()
	gen, err := st.eng.Swap(m, s, hdam.SnapshotEncoderFactory(snap.Config()))
	if st.t != nil {
		st.t.swap.add(time.Since(start))
	}
	if err != nil {
		return err
	}
	st.mu.Lock()
	st.gens[gen] = snap.Path()
	st.swapAt = time.Now()
	st.mu.Unlock()
	return nil
}

// onSnapshot is the learner's publish hook: validate, open and swap the new
// generation through the registry.
func (st *stack) onSnapshot(string) {
	check := func() {
		if _, err := st.reg.Check(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: registry: %v\n", err)
		}
	}
	if st.t == nil {
		check()
		return
	}
	timed(&st.t.check, check)
}

// warm sends warmupTexts texts down every connection and waits for the
// answers: the server is ready once every code path has run.
func (st *stack) warm() error {
	var wg sync.WaitGroup
	errs := make(chan error, len(st.clients))
	for c, cl := range st.clients {
		wg.Add(1)
		go func(c int, cl *netserve.Client) {
			defer wg.Done()
			var texts []string
			var idx []int32
			for k := 0; k*st.w.Frame < warmupTexts; k++ {
				texts, idx = st.w.frameTexts(k*len(st.clients)+c, texts, idx)
				if _, err := cl.Ask(texts, frameBudget); err != nil {
					errs <- fmt.Errorf("warmup: %w", err)
					return
				}
			}
		}(c, cl)
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// close tears the stack down: connections, server (and with it the
// backend), learner and registry, and the reference's loopback server; the
// snapshot directory is removed.
func (st *stack) close() {
	st.ref.close()
	for _, cl := range st.clients {
		cl.Close()
	}
	if st.learnCl != nil {
		st.learnCl.Close()
	}
	switch {
	case st.srv != nil:
		st.srv.Close()
	case st.eng != nil:
		st.eng.Close()
	case st.fl != nil:
		st.fl.Close()
	}
	if st.lr != nil {
		st.lr.Close()
	}
	if st.reg != nil {
		st.reg.Close()
	}
	if st.dir != "" {
		os.RemoveAll(st.dir)
	}
}

// snapshotPath is the published snapshot serving engine generation gen
// ("" for the trained base model, generation 1).
func (st *stack) snapshotPath(gen uint64) (string, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	p, ok := st.gens[gen]
	return p, ok
}

// scratchDir is where a run keeps its snapshot generations: under the
// build directory of the checkout it runs in.
func scratchDir() (string, error) {
	dir := filepath.Join(".bench_build", "run")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(dir, "perfbench-*")
}
