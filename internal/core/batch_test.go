package core

import (
	"bytes"
	"math/rand/v2"
	"strings"
	"sync/atomic"
	"testing"

	"hdam/internal/hv"
)

// exactSearcher is a minimal concurrency-safe searcher for batch tests.
type exactSearcher struct{ m *Memory }

func (e exactSearcher) Search(q *hv.Vector) Result {
	i, d := e.m.Nearest(q)
	return Result{Index: i, Distance: d}
}
func (e exactSearcher) Name() string { return "exact" }

func TestSearchAllParallelMatchesSequential(t *testing.T) {
	cs, ls := randClasses(9, 2000, 80)
	m := MustMemory(cs, ls)
	rng := rand.New(rand.NewPCG(81, 81))
	queries := make([]*hv.Vector, 57)
	for i := range queries {
		queries[i] = hv.FlipBits(m.Class(i%9), 300, rng)
	}
	s := exactSearcher{m}
	seq := SearchAll(s, queries, false)
	par := SearchAll(s, queries, true)
	if len(seq) != len(par) {
		t.Fatal("length mismatch")
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("query %d: %v vs %v", i, seq[i], par[i])
		}
		if seq[i].Index != i%9 {
			t.Fatalf("query %d misclassified", i)
		}
	}
	if got := SearchAll(s, nil, true); len(got) != 0 {
		t.Fatal("empty batch")
	}
}

func TestTopK(t *testing.T) {
	rng := rand.New(rand.NewPCG(82, 82))
	cs, ls := randClasses(6, hv.Dim, 82)
	m := MustMemory(cs, ls)
	q := hv.FlipBits(m.Class(2), 500, rng)
	top := m.TopK(q, 3)
	if len(top) != 3 {
		t.Fatalf("%d results", len(top))
	}
	if top[0].Index != 2 || top[0].Distance != 500 {
		t.Fatalf("top-1 = %+v", top[0])
	}
	if top[0].Label != m.Label(2) {
		t.Fatal("label missing")
	}
	for i := 1; i < len(top); i++ {
		if top[i].Distance < top[i-1].Distance {
			t.Fatal("not sorted")
		}
	}
	// k clamps to class count.
	if got := m.TopK(q, 100); len(got) != 6 {
		t.Fatalf("clamped top-k has %d entries", len(got))
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("no panic for k=0")
			}
		}()
		m.TopK(q, 0)
	}()
}

func TestTopKTieBreaksByIndex(t *testing.T) {
	a := hv.New(64)
	b := a.Clone() // identical → equal distances
	c := hv.Not(a)
	m := MustMemory([]*hv.Vector{c, b, a.Clone()}, []string{"far", "t1", "t2"})
	top := m.TopK(hv.New(64), 2)
	if top[0].Index != 1 || top[1].Index != 2 {
		t.Fatalf("tie order wrong: %+v", top)
	}
}

func TestMargin(t *testing.T) {
	rng := rand.New(rand.NewPCG(83, 83))
	cs, ls := randClasses(5, hv.Dim, 83)
	m := MustMemory(cs, ls)
	q := hv.FlipBits(m.Class(0), 100, rng)
	margin := m.Margin(q)
	top := m.TopK(q, 2)
	if margin != top[1].Distance-top[0].Distance {
		t.Fatalf("margin %d inconsistent with top-2 %+v", margin, top)
	}
	if margin < 3000 {
		t.Fatalf("margin %d implausibly small for random classes", margin)
	}
	single := MustMemory(cs[:1], ls[:1])
	defer func() {
		if recover() == nil {
			t.Error("no panic for single-class margin")
		}
	}()
	single.Margin(q)
}

func TestSerializationRoundTrip(t *testing.T) {
	cs, ls := randClasses(7, 1234, 84)
	ls[3] = "ünïcode-label"
	m := MustMemory(cs, ls)
	var buf bytes.Buffer
	n, err := m.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := ReadMemory(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Dim() != m.Dim() || got.Classes() != m.Classes() {
		t.Fatal("shape mismatch after round trip")
	}
	for i := 0; i < m.Classes(); i++ {
		if !got.Class(i).Equal(m.Class(i)) || got.Label(i) != m.Label(i) {
			t.Fatalf("class %d mismatch after round trip", i)
		}
	}
}

func TestReadMemoryRejectsCorrupt(t *testing.T) {
	cs, ls := randClasses(2, 100, 85)
	m := MustMemory(cs, ls)
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	cases := map[string][]byte{
		"empty":     {},
		"bad magic": append([]byte("NOPE"), good[4:]...),
		"truncated": good[:len(good)-5],
		"no header": good[:6],
	}
	for name, data := range cases {
		if _, err := ReadMemory(bytes.NewReader(data)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// Implausible dimension.
	bad := append([]byte{}, good...)
	bad[4], bad[5], bad[6], bad[7] = 0xff, 0xff, 0xff, 0x7f
	if _, err := ReadMemory(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "implausible") {
		t.Errorf("implausible dimension accepted: %v", err)
	}
}

// panicSearcher panics on one specific query index (by call order).
type panicSearcher struct {
	exactSearcher
	at int
	n  atomic.Int64
}

func (p *panicSearcher) Search(q *hv.Vector) Result {
	if int(p.n.Add(1)-1) == p.at {
		panic("poisoned query")
	}
	return p.exactSearcher.Search(q)
}

// TestSearchAllWorkersPanicReachesCaller checks the failure-isolation
// contract: a panic inside a parallel batch is re-raised on the calling
// goroutine — annotated, recoverable — after every worker has finished,
// instead of crashing the process from an anonymous goroutine.
func TestSearchAllWorkersPanicReachesCaller(t *testing.T) {
	cs, ls := randClasses(4, 2000, 83)
	m := MustMemory(cs, ls)
	rng := rand.New(rand.NewPCG(84, 84))
	queries := make([]*hv.Vector, 16)
	for i := range queries {
		queries[i] = hv.FlipBits(m.Class(i%4), 100, rng)
	}
	s := &panicSearcher{exactSearcher: exactSearcher{m}, at: 5}
	recovered := func() (v any) {
		defer func() { v = recover() }()
		SearchAllWorkers(s, queries, 4)
		return nil
	}()
	if recovered == nil {
		t.Fatal("worker panic did not reach the caller")
	}
	if msg, ok := recovered.(string); !ok || !strings.Contains(msg, "batch worker") {
		t.Fatalf("panic value %v not annotated with the worker", recovered)
	}
	// The surviving workers completed their chunks despite the panic.
	s2 := &panicSearcher{exactSearcher: exactSearcher{m}, at: -1}
	if got := SearchAllWorkers(s2, queries, 4); len(got) != len(queries) {
		t.Fatalf("clean batch returned %d results", len(got))
	}
}

func TestSearchAllWorkersMatchesSequential(t *testing.T) {
	cs, ls := randClasses(9, 2000, 80)
	m := MustMemory(cs, ls)
	rng := rand.New(rand.NewPCG(91, 91))
	queries := make([]*hv.Vector, 37)
	for i := range queries {
		queries[i] = hv.FlipBits(m.Class(i%9), 300, rng)
	}
	s := exactSearcher{m}
	seq := SearchAllWorkers(s, queries, 1)
	for _, workers := range []int{2, 4, 100} {
		par := SearchAllWorkers(s, queries, workers)
		for i := range seq {
			if seq[i] != par[i] {
				t.Fatalf("workers=%d query %d: %v vs %v", workers, i, par[i], seq[i])
			}
		}
	}
	if got := SearchAllWorkers(s, nil, 4); len(got) != 0 {
		t.Fatal("empty batch")
	}
}
