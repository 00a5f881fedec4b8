package main

// workload.go: the seeded inputs. Everything a run sends to the server is
// generated here from (workload name, seed); the model itself is trained at
// set-up exactly as hamserve trains it, from the pipeline's own fixed seed.

import (
	"fmt"
	"hash/fnv"
	"math/rand/v2"

	"hdam/internal/learn"
	"hdam/internal/textgen"
)

// Workload names, in BENCHMARK.json order.
const (
	wlSentence = "classify-sentence"
	wlShort    = "classify-short"
	wlLearn    = "learn-while-serve"
	wlFleet    = "classify-fleet"
)

var workloadNames = []string{wlSentence, wlShort, wlLearn, wlFleet}

const (
	// baseLangs is how many catalog languages the learn-while-serve base
	// model knows; the remaining heldBack arrive only as learn traffic.
	baseLangs = 18
	heldBack  = 3

	sentenceLen = 150 // ~150-character sentences, the paper's test samples
	// shortLen asks for texts of at least 5 characters; ending at the next
	// word boundary makes them ~13 characters (~11 trigrams) on average.
	shortLen   = 5
	shortFrame = 32 // texts per classify-short frame

	sentencePool = 2048 // distinct query sentences per run
	shortPool    = 8192 // distinct short query texts per run

	// Learn stream: examples arrive in frames of learnFrame same-label
	// sentences at learnRate examples/s, and the benchmark reconciles after
	// every learnGens-th of the stream, so each run publishes exactly
	// learnGens generations whatever the box's speed.
	learnFrame = 4
	learnRate  = 400
	learnGens  = 5
	heldOut    = 100 // held-out sentences per new language
)

// Workload is one run's generated inputs.
type Workload struct {
	Langs []*textgen.Language // languages the served model is trained on
	Texts []string            // query pool, cycled by the connections
	Truth []string            // true language of each query text
	Frame int                 // texts per query frame
	Fleet bool                // serve through the 4-replica fleet

	// learn-while-serve only.
	Learn []learn.Example // the labeled stream, in send order
	Held  []learn.Example // held-out sentences of the held-back languages
}

// streamSeed derives one named RNG stream of a workload seed, so inputs for
// different workloads and purposes never share draws.
func streamSeed(name, purpose string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	h.Write([]byte{0})
	h.Write([]byte(purpose))
	return h.Sum64()
}

// generate builds a workload's inputs. The learn stream is sized for a
// window of the given length, so the whole stream fits in five sixths of it
// at learnRate and the last generation is published inside the window.
func generate(name string, seed uint64, window int) (*Workload, error) {
	catalog := textgen.Catalog(textgen.DefaultConfig())
	w := &Workload{Langs: catalog, Frame: 1}
	rng := rand.New(rand.NewPCG(seed, streamSeed(name, "queries")))
	pool, length := sentencePool, sentenceLen
	switch name {
	case wlSentence:
	case wlShort:
		pool, length, w.Frame = shortPool, shortLen, shortFrame
	case wlFleet:
		w.Fleet = true
	case wlLearn:
		w.Langs = catalog[:baseLangs]
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	// Queries name only languages the served model starts out knowing, so
	// every answer has a true label to be scored against.
	for i := 0; i < pool; i++ {
		l := w.Langs[rng.IntN(len(w.Langs))]
		text := l.GenerateSentence(length, rng)
		for len(text) < 3 { // at least one trigram
			text = l.GenerateSentence(length, rng)
		}
		w.Texts = append(w.Texts, text)
		w.Truth = append(w.Truth, l.Name)
	}
	if name == wlLearn {
		lrng := rand.New(rand.NewPCG(seed, streamSeed(name, "learn")))
		frames := learnRate * window * 5 / 6 / learnFrame
		frames -= frames % learnGens
		if frames < learnGens {
			frames = learnGens
		}
		for f := 0; f < frames; f++ {
			// Every language, base and held back, in a seeded order.
			l := catalog[lrng.IntN(baseLangs+heldBack)]
			for i := 0; i < learnFrame; i++ {
				w.Learn = append(w.Learn, learn.Example{Label: l.Name, Text: l.GenerateSentence(sentenceLen, lrng)})
			}
		}
		hrng := rand.New(rand.NewPCG(seed, streamSeed(name, "held-out")))
		for _, l := range catalog[baseLangs : baseLangs+heldBack] {
			for i := 0; i < heldOut; i++ {
				w.Held = append(w.Held, learn.Example{Label: l.Name, Text: l.GenerateSentence(sentenceLen, hrng)})
			}
		}
	}
	return w, nil
}

// frameTexts returns frame k's texts: consecutive pool entries, wrapping.
func (w *Workload) frameTexts(k int, dst []string, idx []int32) ([]string, []int32) {
	dst, idx = dst[:0], idx[:0]
	for i := 0; i < w.Frame; i++ {
		j := (k*w.Frame + i) % len(w.Texts)
		dst = append(dst, w.Texts[j])
		idx = append(idx, int32(j))
	}
	return dst, idx
}
