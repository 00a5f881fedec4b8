package assoc_test

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"hdam/internal/aham"
	"hdam/internal/assoc"
	"hdam/internal/core"
	"hdam/internal/dham"
	"hdam/internal/hv"
	"hdam/internal/lang"
	"hdam/internal/rham"
	"hdam/internal/textgen"
)

// randomMemory builds a memory of random classes.
func randomMemory(t testing.TB, dim, rows int, rng *rand.Rand) *core.Memory {
	classes := make([]*hv.Vector, rows)
	labels := make([]string, rows)
	for i := range classes {
		classes[i] = hv.Random(dim, rng)
		labels[i] = fmt.Sprintf("c%d", i)
	}
	mem, err := core.NewMemory(classes, labels)
	if err != nil {
		t.Fatal(err)
	}
	return mem
}

// flipBits returns a copy of v with k random component flips: a query at
// controlled distance from a stored class.
func flipBits(v *hv.Vector, k int, rng *rand.Rand) *hv.Vector {
	out := v.Clone()
	for i := 0; i < k; i++ {
		out.Flip(rng.IntN(v.Dim()))
	}
	return out
}

// checkIdentical asserts one cascade answer bit-identical to the exact scan.
func checkIdentical(t *testing.T, c *assoc.Cascade, mem *core.Memory, q *hv.Vector, ctx string) {
	t.Helper()
	wantI, wantD := mem.ClassMatrix().Nearest(q)
	got := c.Search(q)
	if got.Index != wantI || got.Distance != wantD {
		t.Fatalf("%s: cascade %s gave (%d,%d), Nearest gives (%d,%d)",
			ctx, c.Name(), got.Index, got.Distance, wantI, wantD)
	}
	var buf []int
	if gb := c.SearchBuf(q, &buf); gb != got {
		t.Fatalf("%s: SearchBuf %+v differs from Search %+v", ctx, gb, got)
	}
}

// TestCascadeBitIdenticalProperty is the property test: across
// dimensionalities with and without tail words, random slice widths and
// offsets, random shortlist caps (including the degenerate cap 2) and
// conservative certificate bounds, the cascade answers — winner index,
// tie-break and distance — must equal ClassMatrix.Nearest on random queries,
// near-class queries (large margins: the fast path), near-tie queries
// (adversarial: the cascade must widen) and exact-class queries.
//
// The bounds here are deliberately ≤ 1e-9: margin-free random queries are
// exactly where the certificate's per-query ε is tight, so asserting strict
// identity at looser ε would test the model's tail, not the code (the full-
// protocol test covers the default ε on the real workload, where failure
// needs a compound many-sigma event).
func TestCascadeBitIdenticalProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(2017, 0xca5cade))
	dims := []int{64, 100, 127, 128, 129, 1000, 2048, 4096, 10000}
	for _, dim := range dims {
		words := (dim + 63) / 64
		rows := 2 + rng.IntN(30)
		mem := randomMemory(t, dim, rows, rng)
		for trial := 0; trial < 4; trial++ {
			cfg := assoc.CascadeConfig{
				SliceWords:   1 + rng.IntN(words),
				SliceOffset:  -1,
				MaxFailProb:  []float64{1e-9, 1e-12, 1e-9, 1e-15}[trial],
				MaxShortlist: []int{0, 2, 0, 1 + rng.IntN(rows)}[trial],
			}
			if trial%2 == 1 {
				cfg.SliceOffset = rng.IntN(words - cfg.SliceWords + 1)
			}
			c, err := assoc.NewCascade(mem, cfg)
			if err != nil {
				t.Fatalf("dim %d cfg %+v: %v", dim, cfg, err)
			}
			ctx := fmt.Sprintf("dim %d rows %d slice [%d,+%d) t*=%d",
				dim, rows, c.SliceOffset(), c.SliceWords(), c.CertMargin())
			for i := 0; i < 20; i++ {
				checkIdentical(t, c, mem, hv.Random(dim, rng), ctx+" random")
			}
			for i := 0; i < 10; i++ {
				base := mem.Class(rng.IntN(rows))
				checkIdentical(t, c, mem, flipBits(base, rng.IntN(dim/8+1), rng), ctx+" near-class")
				checkIdentical(t, c, mem, base, ctx+" exact-class")
			}
			// Near-tie adversaries: bundle two classes so the winner margin
			// collapses and only the widen path can stay exact.
			for i := 0; i < 10; i++ {
				a, b := rng.IntN(rows), rng.IntN(rows)
				q := hv.MajorityOf(rng.Uint64(), mem.Class(a), mem.Class(b), hv.Random(dim, rng))
				checkIdentical(t, c, mem, q, ctx+" near-tie")
			}
		}
	}
}

// TestCascadeDuplicateRowsTieBreak pins the tie-break: with byte-identical
// rows the exact scan answers the lowest index, and so must the cascade.
func TestCascadeDuplicateRowsTieBreak(t *testing.T) {
	rng := rand.New(rand.NewPCG(2017, 0x71e))
	dim := 1024
	v := hv.Random(dim, rng)
	classes := []*hv.Vector{hv.Random(dim, rng), v.Clone(), hv.Random(dim, rng), v.Clone()}
	mem, err := core.NewMemory(classes, []string{"a", "b", "c", "d"})
	if err != nil {
		t.Fatal(err)
	}
	c, err := assoc.NewCascade(mem, assoc.CascadeConfig{SliceWords: 4, SliceOffset: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		q := flipBits(v, rng.IntN(64), rng)
		checkIdentical(t, c, mem, q, "duplicate-rows")
	}
}

// TestCascadeFullProtocol runs the cascade over the paper's experiment
// protocol — the trained 21-language memory that all four hardware designs
// (exact, D-HAM, R-HAM, A-HAM) search — and asserts bit-identity to the
// exact scan on every encoded test sentence, for the default cascade and a
// tight-radius one. This is the acceptance gate: the serving-path cascade
// must be indistinguishable from exact search on the reference workload.
func TestCascadeFullProtocol(t *testing.T) {
	langs := textgen.Catalog(textgen.DefaultConfig())
	p := lang.DefaultParams()
	p.TrainChars = 20_000
	p.TestPerLang = 24
	if testing.Short() {
		p.TrainChars = 5_000
		p.TestPerLang = 6
	}
	tr, err := lang.Train(langs, p)
	if err != nil {
		t.Fatal(err)
	}
	mem := tr.Memory
	ts := lang.MakeTestSet(langs, p)
	ts.Encode(tr)

	// The designs all search this same memory; build each to pin that the
	// protocol the cascade is checked under is the one they run.
	d, cls := mem.Dim(), mem.Classes()
	if _, err := dham.New(dham.Config{D: d, C: cls}, mem); err != nil {
		t.Fatal(err)
	}
	if _, err := rham.New(rham.Config{D: d, C: cls}, mem); err != nil {
		t.Fatal(err)
	}
	if _, err := aham.New(aham.Config{D: d, C: cls}, mem); err != nil {
		t.Fatal(err)
	}
	exact := assoc.NewExact(mem)

	for _, cfg := range []assoc.CascadeConfig{
		{SliceOffset: -1}, // defaults: the serving configuration
		{SliceWords: 16, SliceOffset: -1, MaxFailProb: 1e-9}, // tight: forces frequent widening
	} {
		c, err := assoc.NewCascade(mem, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf []int
		for i, q := range ts.Queries {
			if q == nil {
				continue
			}
			want := exact.SearchBuf(q, &buf)
			got := c.Search(q)
			if got != want {
				t.Fatalf("%s: query %d (lang %d): cascade %+v, exact %+v",
					c.Name(), i, ts.Samples[i].Label, got, want)
			}
		}
		st := c.Stats()
		if st.Queries == 0 {
			t.Fatalf("%s: no queries recorded", c.Name())
		}
		t.Logf("%s: %d queries, avg shortlist %.2f, widen rate %.3f",
			c.Name(), st.Queries, st.AvgShortlist(), st.WidenRate())
	}
}

// TestCascadeConfigValidation pins the constructor's error surface.
func TestCascadeConfigValidation(t *testing.T) {
	rng := rand.New(rand.NewPCG(2017, 0xbad))
	mem := randomMemory(t, 1024, 4, rng)
	if _, err := assoc.NewCascade(nil, assoc.CascadeConfig{}); err == nil {
		t.Error("nil memory accepted")
	}
	single, err := core.NewMemory([]*hv.Vector{hv.Random(1024, rng)}, []string{"only"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := assoc.NewCascade(single, assoc.CascadeConfig{}); err == nil {
		t.Error("single-class memory accepted")
	}
	if _, err := assoc.NewCascade(mem, assoc.CascadeConfig{SliceWords: -1}); err == nil {
		t.Error("negative slice width accepted")
	}
	if _, err := assoc.NewCascade(mem, assoc.CascadeConfig{SliceWords: 8, SliceOffset: 12}); err == nil {
		t.Error("out-of-row slice accepted")
	}
	// Oversized widths clamp to the row instead of failing.
	c, err := assoc.NewCascade(mem, assoc.CascadeConfig{SliceWords: 1 << 20})
	if err != nil {
		t.Fatalf("clamped width rejected: %v", err)
	}
	if c.SliceWords() != 16 {
		t.Errorf("clamped slice width %d, want 16", c.SliceWords())
	}
	for i := 0; i < 10; i++ {
		checkIdentical(t, c, mem, hv.Random(1024, rng), "degenerate-full-slice")
	}
}

// FuzzCascadeBitIdentical fuzzes the cascade against the exact scan over
// memory shapes, slice geometry, radius and query structure.
func FuzzCascadeBitIdentical(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(4), uint8(2), uint8(8), uint8(0))
	f.Add(uint64(2017), uint8(21), uint8(40), uint8(8), uint8(100), uint8(63))
	f.Add(uint64(7), uint8(2), uint8(1), uint8(0), uint8(0), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, rowsB, wordsB, sliceB, gateB, tailB uint8) {
		rng := rand.New(rand.NewPCG(seed, 0xf022))
		rows := 2 + int(rowsB)%30
		words := 1 + int(wordsB)%48
		dim := words*64 - int(tailB)%64
		if dim < 2 {
			dim = 2
		}
		mem := randomMemory(t, dim, rows, rng)
		cfg := assoc.CascadeConfig{
			SliceWords:  1 + int(sliceB)%words,
			SliceOffset: -1,
			// Conservative bounds only: strict identity on margin-free fuzzed
			// queries is a guarantee the certificate makes at small ε.
			MaxFailProb:  []float64{1e-9, 1e-12, 1e-9, 1e-15}[int(gateB)>>4&3],
			MaxShortlist: int(gateB) & 15,
		}
		c, err := assoc.NewCascade(mem, cfg)
		if err != nil {
			t.Fatalf("cfg %+v dim %d: %v", cfg, dim, err)
		}
		ctx := fmt.Sprintf("fuzz seed %d dim %d rows %d slice [%d,+%d) t*=%d",
			seed, dim, rows, c.SliceOffset(), c.SliceWords(), c.CertMargin())
		for i := 0; i < 3; i++ {
			checkIdentical(t, c, mem, hv.Random(dim, rng), ctx+" random")
			base := mem.Class(rng.IntN(rows))
			checkIdentical(t, c, mem, flipBits(base, rng.IntN(dim/4+1), rng), ctx+" near-class")
		}
	})
}
