// Command langid trains the paper's 21-language recognizer and classifies
// text from stdin (one sample per line), reporting the predicted language
// per line and, when lines carry a "<language>\t<text>" prefix, the overall
// accuracy.
//
// Usage:
//
//	echo "the quick brown fox" | langid
//	langid -design aham -dim 10000 -train 200000 < samples.txt
//
// Flags:
//
//	-dim N       hypervector dimensionality (default 10,000)
//	-train N     training characters per language (default 200,000)
//	-design S    search hardware: exact | dham | rham | aham | cascade
//	             (default exact)
//	-cascade     shorthand for -design cascade: the two-stage d-sampled
//	             searcher, bit-identical to exact search (snapshot loads
//	             reuse the slice recorded at training time)
//	-seed N      pipeline seed
//	-demo        classify generated demo sentences instead of stdin
//	-resilient   serve through the confidence-gated escalation chain
//	-chain S     comma-separated escalation chain (default aham,rham,dham,exact)
//	-margin N    confidence threshold: escalate answers whose Hamming-distance
//	             margin over the runner-up is below N
//	-workers N   serve stdin through the micro-batching engine with N
//	             encode→search workers (0 = GOMAXPROCS, 1 = serial; designs
//	             with non-forkable randomness — rham, aham — are forced to 1;
//	             negative is rejected)
//	-batch N     micro-batch size for the serving engine (default 32; must be
//	             at least 1)
//	-save F      write the trained model as a versioned snapshot file
//	-load F      load a model snapshot (or legacy memory file) instead of
//	             training
//
// A multi-centroid snapshot (one the online learner wrote with more than one
// centroid per class) loads with clean class labels and serves only through
// -design exact; the other designs scan raw rows and refuse it.
//
// Serving over the network, hot reload from a snapshot directory, replica
// fleets and online learning live in hamserve (-load DIR, -fleet, -remote,
// -learn).
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"strings"
	"time"

	"hdam"
)

func main() {
	dim := flag.Int("dim", hdam.Dim, "hypervector dimensionality")
	train := flag.Int("train", 200_000, "training characters per language")
	design := flag.String("design", "exact", "search hardware: exact | dham | rham | aham | cascade")
	cascade := flag.Bool("cascade", false, "serve through the cascaded d-sampled searcher (shorthand for -design cascade)")
	seed := flag.Uint64("seed", 2017, "pipeline seed")
	demo := flag.Bool("demo", false, "classify generated demo sentences")
	saveTo := flag.String("save", "", "write the trained model as a snapshot to this file after training")
	loadFrom := flag.String("load", "", "load a trained model (snapshot or legacy format) instead of training")
	resilient := flag.Bool("resilient", false, "serve through the confidence-gated escalation chain")
	chain := flag.String("chain", "aham,rham,dham,exact", "comma-separated escalation chain for -resilient")
	margin := flag.Int("margin", 32, "confidence threshold (Hamming-distance margin) for -resilient")
	workers := flag.Int("workers", 1, "micro-batching engine workers (0 = GOMAXPROCS, 1 = serial loop)")
	batch := flag.Int("batch", 32, "micro-batch size for the serving engine (>= 1)")
	flag.Parse()

	// Validate the hardware selection and engine shape before spending
	// minutes on training.
	if *cascade {
		*design = "cascade"
	}
	if !knownDesign(*design) {
		fmt.Fprintf(os.Stderr, "langid: unknown design %q (want exact, dham, rham, aham or cascade)\n\n", *design)
		flag.Usage()
		os.Exit(2)
	}
	if *resilient && *design == "cascade" {
		fmt.Fprintln(os.Stderr, "langid: -cascade is already margin-gated and cannot combine with -resilient")
		fmt.Fprintln(os.Stderr)
		flag.Usage()
		os.Exit(2)
	}
	if *workers < 0 {
		fmt.Fprintf(os.Stderr, "langid: negative -workers %d (0 = GOMAXPROCS, 1 = serial)\n\n", *workers)
		flag.Usage()
		os.Exit(2)
	}
	if *batch < 1 {
		fmt.Fprintf(os.Stderr, "langid: -batch %d below 1 (a micro-batch carries at least one request)\n\n", *batch)
		flag.Usage()
		os.Exit(2)
	}
	var stages []string
	if *resilient {
		stages = strings.Split(*chain, ",")
		for _, st := range stages {
			if !knownDesign(strings.TrimSpace(st)) || strings.TrimSpace(st) == "cascade" {
				fmt.Fprintf(os.Stderr, "langid: unknown design %q in -chain %q (want exact, dham, rham or aham)\n\n", st, *chain)
				flag.Usage()
				os.Exit(2)
			}
		}
		if *margin < 0 {
			fmt.Fprintf(os.Stderr, "langid: negative -margin %d\n\n", *margin)
			flag.Usage()
			os.Exit(2)
		}
	}

	langs := hdam.Languages()
	p := hdam.DefaultLanguageParams()
	p.Dim = *dim
	p.TrainChars = *train
	p.Seed = *seed
	p.TestPerLang = 1 // the test set is not used in CLI mode

	var tr *hdam.Trained
	var exact hdam.Searcher
	casc := hdam.CascadeConfig{SliceOffset: -1}
	if *loadFrom != "" {
		var err error
		tr, exact, casc, err = loadModel(*loadFrom, p, *design != "exact" || *resilient)
		if err != nil {
			fmt.Fprintf(os.Stderr, "langid: %v\n", err)
			os.Exit(1)
		}
	} else {
		fmt.Fprintf(os.Stderr, "training %d languages at D=%d on %d chars each...\n",
			len(langs), p.Dim, p.TrainChars)
		start := time.Now()
		var err error
		tr, err = hdam.TrainLanguages(langs, p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "langid: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "trained in %s\n", time.Since(start).Round(time.Millisecond))
		exact = hdam.NewExactSearcher(tr.Memory)
		if *saveTo != "" {
			// Select and record the cascade slice at save time: a reloaded
			// model then cascades over the exact components this one would.
			cfg := hdam.SnapshotConfig{Dim: p.Dim, NGram: p.NGram, Seed: p.Seed}
			if cas, err := hdam.NewCascadeSearcher(tr.Memory, casc); err == nil {
				cfg.SliceOffset, cfg.SliceWords = cas.SliceOffset(), cas.SliceWords()
				casc = hdam.CascadeConfig{SliceOffset: cas.SliceOffset(), SliceWords: cas.SliceWords()}
			}
			snap, err := hdam.CaptureSnapshot(tr.Memory, cfg,
				hdam.SnapshotProvenance{
					Trainer:    "langid",
					CorpusSeed: p.Seed,
					CreatedAt:  time.Now().UTC(),
					Note:       fmt.Sprintf("%d languages, %d chars each", len(langs), p.TrainChars),
				})
			if err == nil {
				err = hdam.SaveSnapshot(*saveTo, snap)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "langid: saving snapshot: %v\n", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "saved model snapshot to %s\n", *saveTo)
		}
	}

	var searcher hdam.Searcher
	var res *hdam.Resilient
	var err error
	switch {
	case *resilient:
		res, err = buildChain(stages, *margin, tr)
		searcher = res
	case *design == "exact":
		searcher = exact
	default:
		searcher, err = buildSearcher(*design, tr.Memory, casc)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "langid: %v\n", err)
		os.Exit(1)
	}

	if *demo {
		runDemo(tr, searcher, langs, *seed)
		reportStages(res)
		reportCascade(searcher)
		return
	}

	if *workers != 1 {
		w := *workers
		if serialOnly(*design, *resilient, stages) {
			fmt.Fprintln(os.Stderr, "langid: searcher carries non-forkable randomness; forcing -workers=1 (micro-batching stays on)")
			w = 1
		}
		if err := serveStdin(tr, searcher, w, *batch, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "langid: %v\n", err)
			os.Exit(1)
		}
		reportStages(res)
		reportCascade(searcher)
		return
	}

	classified, correct, labeled := 0, 0, 0
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		want, text := "", line
		if i := strings.IndexByte(line, '\t'); i >= 0 {
			want, text = line[:i], line[i+1:]
		}
		q, n := tr.Encoder.EncodeText(text, *seed+uint64(classified))
		if n == 0 {
			fmt.Printf("?\t%s\n", text)
			continue
		}
		got := tr.Memory.Label(searcher.Search(q).Index)
		fmt.Printf("%s\t%s\n", got, text)
		classified++
		if want != "" {
			labeled++
			if got == want {
				correct++
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "langid: reading stdin: %v\n", err)
		os.Exit(1)
	}
	if labeled > 0 {
		fmt.Fprintf(os.Stderr, "accuracy: %d/%d (%.1f%%)\n",
			correct, labeled, 100*float64(correct)/float64(labeled))
	}
	reportStages(res)
	reportCascade(searcher)
}

// serialOnly reports whether the selected searcher carries per-search
// randomness that cannot fork into per-worker streams (the sequential-
// fallback rule of SearchAll): R-HAM's VOS injection and A-HAM's comparator
// offsets draw from one internal RNG.
func serialOnly(design string, resilient bool, stages []string) bool {
	randomized := func(d string) bool { return d == "rham" || d == "aham" }
	if !resilient {
		return randomized(design)
	}
	for _, st := range stages {
		if randomized(strings.TrimSpace(st)) {
			return true
		}
	}
	return false
}

// loadModel loads a trained model from a snapshot file, falling back to the
// legacy SaveMemory stream format, and returns the pipeline rebuilt around
// it, its exact searcher and the cascade configuration the model was saved
// with. Snapshots go through hdam.SnapshotPipeline, which takes dim, n-gram
// order and seed from the file's own recorded config (flag values are
// overridden) and resolves a multi-centroid layout to clean class labels;
// rawRows callers, whose searchers scan the stored rows directly, refuse
// such a snapshot. Legacy loads can only recover the dimensionality and
// trust the flags for the rest.
func loadModel(path string, p hdam.LanguageParams, rawRows bool) (*hdam.Trained, hdam.Searcher, hdam.CascadeConfig, error) {
	casc := hdam.CascadeConfig{SliceOffset: -1}
	snap, err := hdam.OpenSnapshot(path)
	if err == nil {
		// The snapshot stays open for the process lifetime: on linux the
		// model serves zero-copy from the file mapping.
		cfg := snap.Config()
		if cfg.Centroids > 1 && rawRows {
			return nil, nil, casc, fmt.Errorf("%s is a %d-centroid snapshot: only -design exact without -resilient serves it", path, cfg.Centroids)
		}
		tr, exact, err := hdam.SnapshotPipeline(snap)
		if err != nil {
			return nil, nil, casc, fmt.Errorf("loading snapshot %s: %w", path, err)
		}
		fmt.Fprintf(os.Stderr, "loaded snapshot %s: %d classes at D=%d (ngram=%d seed=%d trainer=%q zero-copy=%v)\n",
			path, tr.Memory.Classes(), cfg.Dim, cfg.NGram, cfg.Seed, snap.Provenance().Trainer, snap.ZeroCopy())
		if cfg.SliceWords > 0 {
			casc = hdam.CascadeConfig{SliceOffset: cfg.SliceOffset, SliceWords: cfg.SliceWords}
		}
		return tr, exact, casc, nil
	}
	if !errors.Is(err, hdam.ErrNotSnapshot) {
		return nil, nil, casc, fmt.Errorf("loading snapshot %s: %w", path, err)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, casc, err
	}
	defer f.Close()
	mem, err := hdam.LoadMemory(f)
	if err != nil {
		return nil, nil, casc, fmt.Errorf("loading legacy memory %s: %w", path, err)
	}
	p.Dim = mem.Dim()
	fmt.Fprintf(os.Stderr, "loaded legacy memory %s: %d classes at D=%d\n", path, mem.Classes(), mem.Dim())
	enc := hdam.SnapshotEncoderFactory(hdam.SnapshotConfig{Dim: p.Dim, NGram: p.NGram, Seed: p.Seed})()
	return &hdam.Trained{Memory: mem, Encoder: enc, Params: p}, hdam.NewExactSearcher(mem), casc, nil
}

// serveStdin classifies stdin through the micro-batching engine: lines are
// submitted asynchronously and printed in input order by a reorder queue, so
// output is byte-compatible with the serial loop (modulo the engine's fixed
// tie-break seed).
func serveStdin(tr *hdam.Trained, searcher hdam.Searcher, workers, batch int, seed uint64) error {
	eng, err := hdam.NewEngine(tr, searcher, hdam.ServeConfig{
		Workers:  workers,
		MaxBatch: batch,
		Seed:     seed,
	})
	if err != nil {
		return err
	}
	defer eng.Close()
	type pending struct {
		text, want string
		ch         <-chan hdam.ServeResponse
	}
	queue := make(chan pending, 4*eng.Config().MaxBatch)
	classified, correct, labeled := 0, 0, 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		for p := range queue {
			r := <-p.ch
			if r.Err != nil {
				fmt.Printf("?\t%s\n", p.text)
				continue
			}
			fmt.Printf("%s\t%s\n", r.Label, p.text)
			classified++
			if p.want != "" {
				labeled++
				if r.Label == p.want {
					correct++
				}
			}
		}
	}()

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		want, text := "", line
		if i := strings.IndexByte(line, '\t'); i >= 0 {
			want, text = line[:i], line[i+1:]
		}
		ch, err := eng.Go(context.Background(), text)
		if err != nil {
			close(queue)
			<-done
			return err
		}
		queue <- pending{text: text, want: want, ch: ch}
	}
	close(queue)
	<-done
	if err := sc.Err(); err != nil {
		return fmt.Errorf("reading stdin: %v", err)
	}
	st := eng.Stats()
	fmt.Fprintf(os.Stderr, "served %d requests in %d micro-batches (avg %.1f/batch, %d workers)\n",
		st.Submitted, st.Batches, st.AvgBatch(), eng.Config().Workers)
	if labeled > 0 {
		fmt.Fprintf(os.Stderr, "accuracy: %d/%d (%.1f%%)\n",
			correct, labeled, 100*float64(correct)/float64(labeled))
	}
	return nil
}

// knownDesign reports whether a -design / -chain entry names a searcher.
func knownDesign(d string) bool {
	switch d {
	case "exact", "dham", "rham", "aham", "cascade":
		return true
	}
	return false
}

// buildChain assembles the resilient escalation pipeline.
func buildChain(designs []string, margin int, tr *hdam.Trained) (*hdam.Resilient, error) {
	stages := make([]hdam.ResilientStage, len(designs))
	for i, d := range designs {
		s, err := buildSearcher(strings.TrimSpace(d), tr.Memory, hdam.CascadeConfig{})
		if err != nil {
			return nil, err
		}
		stages[i] = hdam.ResilientStage{Searcher: s}
	}
	return hdam.NewResilient(stages, hdam.ResilientConfig{MinMargin: margin})
}

// reportStages prints the escalation pipeline's health counters.
func reportStages(res *hdam.Resilient) {
	if res == nil || res.Searches() == 0 {
		return
	}
	total := res.Searches()
	fmt.Fprintf(os.Stderr, "resilient chain over %d searches:\n", total)
	for _, st := range res.Stats() {
		state := "closed"
		if st.BreakerOpen {
			state = "OPEN"
		}
		fmt.Fprintf(os.Stderr, "  %-28s accepted %4d  escalated %4d  skipped %4d  err %.3f  breaker %s\n",
			st.Name, st.Accepted, st.Escalated, st.Skipped, st.ErrEWMA, state)
	}
}

// buildSearcher builds the selected design over a memory, taking its shape
// from the memory itself. casc only applies to the cascade design (the zero
// value selects error-model defaults with a negative offset meaning
// build-time slice selection).
func buildSearcher(design string, mem *hdam.Memory, casc hdam.CascadeConfig) (hdam.Searcher, error) {
	d, c := mem.Dim(), mem.Classes()
	switch design {
	case "exact":
		return hdam.NewExactSearcher(mem), nil
	case "dham":
		return hdam.NewDHAM(hdam.DHAMConfig{D: d, C: c}, mem)
	case "rham":
		return hdam.NewRHAM(hdam.RHAMConfig{D: d, C: c}, mem)
	case "aham":
		return hdam.NewAHAM(hdam.AHAMConfig{D: d, C: c}, mem)
	case "cascade":
		return hdam.NewCascadeSearcher(mem, casc)
	default:
		return nil, fmt.Errorf("unknown design %q (exact|dham|rham|aham|cascade)", design)
	}
}

// reportCascade prints the cascaded searcher's stage counters.
func reportCascade(s hdam.Searcher) {
	c, ok := s.(*hdam.CascadeSearcher)
	if !ok {
		return
	}
	st := c.Stats()
	if st.Queries == 0 {
		return
	}
	fmt.Fprintf(os.Stderr, "%s over slice [%d,+%d): %d searches, avg shortlist %.1f, widened %.2f%%\n",
		c.Name(), c.SliceOffset(), c.SliceWords(), st.Queries, st.AvgShortlist(), 100*st.WidenRate())
}

func runDemo(tr *hdam.Trained, searcher hdam.Searcher, langs []*hdam.Language, seed uint64) {
	rng := rand.New(rand.NewPCG(seed^0xde30, 0))
	correct, total := 0, 0
	for _, l := range langs {
		for k := 0; k < 3; k++ {
			s := l.GenerateSentence(120, rng)
			q, _ := tr.Encoder.EncodeText(s, seed+uint64(total))
			got := tr.Memory.Label(searcher.Search(q).Index)
			mark := "✗"
			if got == l.Name {
				mark = "✓"
				correct++
			}
			total++
			fmt.Printf("%s true=%-11s pred=%-11s %q\n", mark, l.Name, got, clip(s, 48))
		}
	}
	fmt.Printf("demo accuracy: %d/%d (%.1f%%) using %s\n",
		correct, total, 100*float64(correct)/float64(total), searcher.Name())
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "…"
}
