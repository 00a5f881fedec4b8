package hdam

import (
	"bytes"
	"context"
	"math/rand/v2"
	"testing"
)

// TestFacadeQuickstart exercises the doc.go quick-start end to end: encode
// two class texts, store them, classify a query with each hardware design.
func TestFacadeQuickstart(t *testing.T) {
	im := NewItemMemory(Dim, 42)
	im.Preload(LatinAlphabet)
	enc := NewEncoder(im, 3)

	catHV, n1 := enc.EncodeText("cats purr and chase mice around the house all day long", 1)
	dogHV, n2 := enc.EncodeText("dogs bark and fetch sticks in the park every morning", 2)
	if n1 == 0 || n2 == 0 {
		t.Fatal("encoding produced no n-grams")
	}
	mem, err := NewMemory([]*Vector{catHV, dogHV}, []string{"cat", "dog"})
	if err != nil {
		t.Fatal(err)
	}
	q, _ := enc.EncodeText("the dog fetched the stick in the park", 3)

	dh, err := NewDHAM(DHAMConfig{D: Dim, C: 2}, mem)
	if err != nil {
		t.Fatal(err)
	}
	rh, err := NewRHAM(RHAMConfig{D: Dim, C: 2}, mem)
	if err != nil {
		t.Fatal(err)
	}
	ah, err := NewAHAM(AHAMConfig{D: Dim, C: 2}, mem)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Searcher{dh, rh, ah, NewExactSearcher(mem)} {
		if got := mem.Label(s.Search(q).Index); got != "dog" {
			t.Errorf("%s classified the dog query as %q", s.Name(), got)
		}
	}
}

func TestFacadeOps(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	a := RandomVector(Dim, rng)
	b := RandomVector(Dim, rng)
	if !Bind(Bind(a, b), b).Equal(a) {
		t.Error("Bind self-inverse broken through facade")
	}
	if Hamming(a, a) != 0 {
		t.Error("Hamming broken through facade")
	}
	m := Bundle(1, a, b, RandomVector(Dim, rng))
	if d := Hamming(m, a); d >= Dim/2 {
		t.Error("Bundle does not preserve similarity through facade")
	}
	p := Permute(a, 3)
	if Hamming(p, a) < Dim/3 {
		t.Error("Permute does not decorrelate through facade")
	}
	acc := NewAccumulator(Dim, 0)
	acc.Add(a)
	if !acc.Majority().Equal(a) {
		t.Error("single-vector majority is not identity")
	}
	if NewVector(16).Ones() != 0 {
		t.Error("NewVector not zero")
	}
}

func TestFacadeLanguagePipeline(t *testing.T) {
	langs := Languages()
	if len(langs) != 21 {
		t.Fatalf("%d languages", len(langs))
	}
	p := DefaultLanguageParams()
	p.TrainChars = 20_000
	p.TestPerLang = 5
	tr, err := TrainLanguages(langs[:5], p)
	if err != nil {
		t.Fatal(err)
	}
	ts := MakeTestSet(langs[:5], p)
	ts.Encode(tr)
	rep := Evaluate(NewExactSearcher(tr.Memory), tr.Memory, ts)
	if rep.Accuracy() < 0.6 {
		t.Fatalf("facade pipeline accuracy %.3f unexpectedly low", rep.Accuracy())
	}
}

func TestFacadeCostModels(t *testing.T) {
	dc, err := (DHAMConfig{D: 10000, C: 100}).Cost()
	if err != nil {
		t.Fatal(err)
	}
	rc, err := (RHAMConfig{D: 10000, C: 100}).Cost()
	if err != nil {
		t.Fatal(err)
	}
	ac, err := (AHAMConfig{D: 10000, C: 100}).Cost()
	if err != nil {
		t.Fatal(err)
	}
	if !(ac.EDP() < rc.EDP() && rc.EDP() < dc.EDP()) {
		t.Errorf("EDP ordering broken: A=%v R=%v D=%v", ac.EDP(), rc.EDP(), dc.EDP())
	}
}

func TestFacadeStructuralSimulators(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	classes := make([]*Vector, 4)
	labels := []string{"w", "x", "y", "z"}
	for i := range classes {
		classes[i] = RandomVector(2000, rng)
	}
	mem, err := NewMemory(classes, labels)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := NewDHAMDatapath(DHAMConfig{D: 2000, C: 4}, mem)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := NewRHAMCircuit(RHAMConfig{D: 2000, C: 4}, mem, 0)
	if err != nil {
		t.Fatal(err)
	}
	ac, err := NewAHAMCircuit(AHAMConfig{D: 2000, C: 4}, mem, 1)
	if err != nil {
		t.Fatal(err)
	}
	q := RandomVector(2000, rng)
	want, _ := mem.Nearest(q)
	for _, s := range []Searcher{dp, rc, ac} {
		if got := s.Search(q).Index; got != want {
			t.Errorf("%s returned %d, exact %d", s.Name(), got, want)
		}
	}
	if dp.Stats().Searches != 1 {
		t.Error("datapath stats not accumulating")
	}
}

func TestFacadeBatchAndPersistence(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 6))
	classes := make([]*Vector, 3)
	labels := []string{"a", "b", "c"}
	for i := range classes {
		classes[i] = RandomVector(1000, rng)
	}
	mem, err := NewMemory(classes, labels)
	if err != nil {
		t.Fatal(err)
	}
	queries := make([]*Vector, 9)
	for i := range queries {
		queries[i] = RandomVector(1000, rng)
	}
	s := NewExactSearcher(mem)
	par := SearchAll(s, queries, true)
	seq := SearchAll(s, queries, false)
	for i := range par {
		if par[i] != seq[i] {
			t.Fatal("parallel batch differs from sequential")
		}
	}
	// Persistence round trip through the facade.
	var buf bytes.Buffer
	if err := SaveMemory(&buf, mem); err != nil {
		t.Fatal(err)
	}
	got, err := LoadMemory(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Classes() != 3 || !got.Class(1).Equal(mem.Class(1)) {
		t.Fatal("facade persistence round trip broken")
	}
	// TopK and Margin through the type alias.
	top := mem.TopK(queries[0], 2)
	if len(top) != 2 || mem.Margin(queries[0]) != top[1].Distance-top[0].Distance {
		t.Fatal("TopK/Margin broken through facade")
	}
}

// TestSnapshotPipelineMultiCentroid loads a learner-written 2-centroid
// snapshot the way hamserve and langid serve one: the pipeline holds the
// 21 classes with clean labels, and an engine over it answers "german",
// never "german#0".
func TestSnapshotPipelineMultiCentroid(t *testing.T) {
	langs := Languages()
	lr, err := NewLearner(nil, LearnConfig{Dim: 2048, NGram: 3, Seed: 5, Dir: t.TempDir(), Centroids: 2, Block: true})
	if err != nil {
		t.Fatal(err)
	}
	defer lr.Close()
	rng := rand.New(rand.NewPCG(5, 5))
	for _, l := range langs {
		for i := 0; i < 40; i++ {
			if err := lr.Ingest(context.Background(), l.Name, l.GenerateSentence(150, rng)); err != nil {
				t.Fatal(err)
			}
		}
	}
	rep, err := lr.Reconcile()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := OpenSnapshot(rep.Path)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	if snap.Config().Centroids != 2 || snap.Memory().Classes() != 2*len(langs) {
		t.Fatalf("snapshot has %d rows at %d centroids, want %d at 2",
			snap.Memory().Classes(), snap.Config().Centroids, 2*len(langs))
	}

	tr, s, err := SnapshotPipeline(snap)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Memory.Classes() != len(langs) {
		t.Fatalf("pipeline serves %d classes, want %d", tr.Memory.Classes(), len(langs))
	}
	names := make(map[string]bool, len(langs))
	for _, l := range langs {
		names[l.Name] = true
	}
	for _, label := range tr.Memory.Labels() {
		if !names[label] {
			t.Fatalf("pipeline label %q is not a language name", label)
		}
	}

	eng, err := NewEngine(tr, s, ServeConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	correct := 0
	for _, l := range langs {
		resp, err := eng.Submit(context.Background(), l.GenerateSentence(150, rng))
		if err != nil {
			t.Fatal(err)
		}
		if !names[resp.Label] {
			t.Fatalf("engine answered %q, not a language name", resp.Label)
		}
		if resp.Label == l.Name {
			correct++
		}
	}
	if correct < len(langs)*3/4 {
		t.Fatalf("engine over the 2-centroid pipeline classified %d/%d", correct, len(langs))
	}
}
