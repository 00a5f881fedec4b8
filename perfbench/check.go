package main

// check.go: the correctness gate. After the window every recorded answer is
// checked against a serial reference — EncodeText with the engine seed and
// an exact Hamming scan over the model of the generation stamped on the
// answer — and scored against the text's true language.

import (
	"fmt"
	"time"

	"hdam/internal/core"
	"hdam/internal/hv"
	"hdam/internal/learn"
	"hdam/internal/netserve"
	"hdam/internal/store"
)

// verdict is the gate's outcome for one window.
type verdict struct {
	attempted  int // query texts sent, plus learn examples sent
	failed     int // mismatches, refusals and errors
	mismatches int // answers that disagree with the serial reference
	correct    int // answers naming the text's true language
	texts      int // query texts sent
	firstBad   string

	newClassAcc float64 // learn-while-serve: held-out accuracy, last generation

	encode []time.Duration // direct EncodeText time per distinct query text
	grams  int             // n-grams those encodes produced
}

// reference is one generation's model, loaded for the scan.
type reference struct {
	mem  *core.Memory
	snap *store.Snapshot
}

// scan is the serial reference search: Hamming distance to every class,
// lowest index winning ties — ClassMatrix.Nearest's documented rule.
func scan(mem *core.Memory, q *hv.Vector) (int, int) {
	best, bestD := 0, -1
	for i := 0; i < mem.Classes(); i++ {
		if d := hv.Hamming(q, mem.Class(i)); bestD < 0 || d < bestD {
			best, bestD = i, d
		}
	}
	return best, bestD
}

// verify runs the gate over a window's answers.
func (st *stack) verify(win *window) (v verdict, err error) {
	refs := map[uint64]*reference{}
	defer func() {
		for _, r := range refs {
			if r.snap != nil {
				r.snap.Close()
			}
		}
	}()
	model := func(gen uint64) (*reference, error) {
		if r, ok := refs[gen]; ok {
			return r, nil
		}
		path, ok := st.snapshotPath(gen)
		if !ok {
			return nil, fmt.Errorf("answer stamped with unknown generation %d", gen)
		}
		r := &reference{mem: st.tr.Memory}
		if path != "" {
			snap, err := store.Open(path)
			if err != nil {
				return nil, err
			}
			r.snap, r.mem = snap, snap.Memory()
		}
		refs[gen] = r
		return r, nil
	}

	enc := encoderFactory(st.tr.Params)()
	queries := make([]*hv.Vector, len(st.w.Texts))
	query := func(i int32) *hv.Vector {
		if queries[i] == nil {
			t0 := time.Now()
			q, n := enc.EncodeText(st.w.Texts[i], pipelineSeed)
			v.encode = append(v.encode, time.Since(t0))
			v.grams += n
			queries[i] = q
		}
		return queries[i]
	}
	type ref struct {
		index, dist int
		label       string
	}
	memo := map[answerKey]ref{}
	bad := func(format string, args ...any) {
		if v.firstBad == "" {
			v.firstBad = fmt.Sprintf(format, args...)
		}
	}
	// judge scores n identical answers to one text under one generation.
	judge := func(k answerKey, a served, n int) error {
		v.attempted += n
		v.texts += n
		if a.status != netserve.StatusOK {
			v.failed += n
			bad("text %d answered status %d", k.text, a.status)
			return nil
		}
		want, ok := memo[k]
		if !ok {
			r, err := model(k.gen)
			if err != nil {
				return err
			}
			want.index, want.dist = scan(r.mem, query(k.text))
			want.label = r.mem.Label(want.index)
			memo[k] = want
		}
		if int(a.index) != want.index || int(a.dist) != want.dist || a.label != want.label {
			v.failed += n
			v.mismatches += n
			bad("text %d gen %d: served (%d, %d, %q), reference (%d, %d, %q)",
				k.text, k.gen, a.index, a.dist, a.label, want.index, want.dist, want.label)
			return nil
		}
		if a.label == st.w.Truth[k.text] {
			v.correct += n
		}
		return nil
	}
	for _, c := range win.conns {
		for k, set := range c.answers {
			if err := judge(k, set.first, set.same); err != nil {
				return v, err
			}
			for _, a := range set.differs {
				if err := judge(k, a, 1); err != nil {
					return v, err
				}
			}
		}
	}
	if win.learn != nil {
		if err := st.verifyLearn(win.learn, &v, model); err != nil {
			return v, err
		}
	}
	return v, nil
}

// verifyLearn checks the learn side: every example admitted, exactly
// learnGens generations published, and the last generation bit-identical
// to learn.TrainOffline over the admitted examples; it scores the held-back
// languages under that generation.
func (st *stack) verifyLearn(log *learnLog, v *verdict, model func(uint64) (*reference, error)) error {
	v.attempted += log.sent
	var admitted []learn.Example
	for f, acc := range log.accepted {
		if acc < learnFrame {
			v.failed += learnFrame - acc
		}
		admitted = append(admitted, st.w.Learn[f*learnFrame:f*learnFrame+acc]...)
	}
	if log.gens != learnGens {
		v.mismatches++
		v.failed++
		if v.firstBad == "" {
			v.firstBad = fmt.Sprintf("published %d generations, want %d", log.gens, learnGens)
		}
		return nil
	}
	last, err := model(uint64(1 + learnGens))
	if err != nil {
		return err
	}
	p := st.tr.Params
	want, err := learn.TrainOffline(st.tr.Memory, admitted, learn.Config{Dim: p.Dim, NGram: p.NGram, Seed: p.Seed})
	if err != nil {
		return err
	}
	if !sameModel(want, last.mem) {
		v.mismatches++
		v.failed++
		if v.firstBad == "" {
			v.firstBad = "last generation differs from learn.TrainOffline over the admitted examples"
		}
	}
	enc := encoderFactory(p)()
	hit := 0
	for _, ex := range st.w.Held {
		q, _ := enc.EncodeText(ex.Text, pipelineSeed)
		if i, _ := scan(last.mem, q); last.mem.Label(i) == ex.Label {
			hit++
		}
	}
	v.newClassAcc = float64(hit) / float64(len(st.w.Held))
	return nil
}

// sameModel reports whether two memories hold the same labels and rows.
func sameModel(a, b *core.Memory) bool {
	if a.Classes() != b.Classes() {
		return false
	}
	for i := 0; i < a.Classes(); i++ {
		if a.Label(i) != b.Label(i) || !a.Class(i).Equal(b.Class(i)) {
			return false
		}
	}
	return true
}
