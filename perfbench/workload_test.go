package main

import (
	"reflect"
	"testing"
)

func TestWorkloadDeterministic(t *testing.T) {
	for _, name := range workloadNames {
		a, err := generate(name, 7, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, err := generate(name, 7, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.Texts, b.Texts) || !reflect.DeepEqual(a.Truth, b.Truth) ||
			!reflect.DeepEqual(a.Learn, b.Learn) || !reflect.DeepEqual(a.Held, b.Held) {
			t.Errorf("%s: seed 7 generated two different workloads", name)
		}
		c, err := generate(name, 8, 2)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(a.Texts, c.Texts) {
			t.Errorf("%s: seeds 7 and 8 generated the same queries", name)
		}
		if name == wlLearn && (reflect.DeepEqual(a.Learn, c.Learn) || reflect.DeepEqual(a.Held, c.Held)) {
			t.Errorf("%s: seeds 7 and 8 generated the same learn stream", name)
		}
	}
}

func TestWorkloadShapes(t *testing.T) {
	mean := func(ts []string) float64 {
		n := 0
		for _, s := range ts {
			n += len(s)
		}
		return float64(n) / float64(len(ts))
	}
	s, _ := generate(wlSentence, 1, 2)
	if m := mean(s.Texts); m < 130 || m > 170 || s.Frame != 1 || len(s.Langs) != 21 {
		t.Errorf("sentences: mean %.1f chars, %d per frame, %d languages", m, s.Frame, len(s.Langs))
	}
	sh, _ := generate(wlShort, 1, 2)
	if m := mean(sh.Texts); m < 10 || m > 18 || sh.Frame != shortFrame {
		t.Errorf("short: mean %.1f chars, %d per frame", m, sh.Frame)
	}
	f, _ := generate(wlFleet, 1, 2)
	if !f.Fleet || f.Frame != 1 {
		t.Error("fleet workload does not serve through the fleet")
	}

	l, _ := generate(wlLearn, 1, 10)
	if len(l.Langs) != baseLangs {
		t.Errorf("learn-while-serve base model knows %d languages, want %d", len(l.Langs), baseLangs)
	}
	known := map[string]bool{}
	for _, lg := range l.Langs {
		known[lg.Name] = true
	}
	for i, truth := range l.Truth {
		if !known[truth] {
			t.Fatalf("query %d is in %s, which the served model has never seen", i, truth)
		}
	}
	frames := len(l.Learn) / learnFrame
	if len(l.Learn)%learnFrame != 0 || frames%learnGens != 0 {
		t.Errorf("learn stream of %d examples does not split into %d generations of whole frames", len(l.Learn), learnGens)
	}
	if sec := float64(len(l.Learn)) / learnRate; sec > 10*5.0/6 {
		t.Errorf("learn stream takes %.1fs at %d/s, past five sixths of the window", sec, learnRate)
	}
	labels := map[string]bool{}
	for f := 0; f < frames; f++ {
		frame := l.Learn[f*learnFrame : (f+1)*learnFrame]
		for _, ex := range frame {
			if ex.Label != frame[0].Label {
				t.Fatalf("learn frame %d mixes labels", f)
			}
		}
		labels[frame[0].Label] = true
	}
	if len(labels) != baseLangs+heldBack {
		t.Errorf("learn stream covers %d languages, want %d", len(labels), baseLangs+heldBack)
	}
	if len(l.Held) != heldBack*heldOut {
		t.Errorf("%d held-out sentences, want %d", len(l.Held), heldBack*heldOut)
	}
	for _, ex := range l.Held {
		if known[ex.Label] {
			t.Fatalf("held-out sentence in base language %s", ex.Label)
		}
	}

	if _, err := generate("no-such-workload", 1, 2); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestFrameTextsWrap(t *testing.T) {
	w := &Workload{Texts: []string{"a", "b", "c"}, Frame: 2}
	texts, idx := w.frameTexts(1, nil, nil)
	if !reflect.DeepEqual(texts, []string{"c", "a"}) || !reflect.DeepEqual(idx, []int32{2, 0}) {
		t.Errorf("frame 1 = %v %v", texts, idx)
	}
}
