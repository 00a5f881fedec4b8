package main

// drive.go: the closed-loop load. Each query connection keeps exactly one
// frame outstanding and sends the next as soon as the answer arrives; the
// learn-while-serve stream adds one more connection sending paced learn
// frames and reconciling after every fixed share of the stream.

import (
	"fmt"
	"sync"
	"time"
)

// frameBudget is the deadline budget every query frame carries. It never
// expires at these loads; it gives each frame its own server-side context.
const frameBudget = 10 * time.Second

// served is one answer's content as it came back over the wire.
type served struct {
	status byte
	index  uint32
	dist   uint32
	label  string
}

// answerKey identifies the answers that must agree: one query text under
// one model generation.
type answerKey struct {
	gen  uint64
	text int32
}

// answerSet is every answer one connection got for one key: how many
// matched the first, and any that differed, kept whole for the gate. The
// set's size is bounded by the pool and the generations, not by the
// throughput, so a faster server does not grow the benchmark's memory.
type answerSet struct {
	first   served
	same    int
	differs []served
}

// connLog is what one query connection observed.
type connLog struct {
	// segs[i] holds the latencies (send to answer) of the frames sent in
	// the window's i-th segment; nil for a segment without frames.
	segs    []*latHist
	answers map[answerKey]*answerSet
	texts   int // texts answered
	err     error
}

// frame records one frame's latency in segment seg.
func (c *connLog) frame(seg int, lat time.Duration) {
	for len(c.segs) <= seg {
		c.segs = append(c.segs, nil)
	}
	if c.segs[seg] == nil {
		c.segs[seg] = &latHist{}
	}
	c.segs[seg].add(lat)
}

func (c *connLog) record(k answerKey, a served) {
	c.texts++
	set := c.answers[k]
	switch {
	case set == nil:
		c.answers[k] = &answerSet{first: a, same: 1}
	case set.first == a:
		set.same++
	default:
		set.differs = append(set.differs, a)
	}
}

// learnLog is what the learn connection observed.
type learnLog struct {
	sent      int             // examples sent
	accepted  []int           // per frame, examples the learner admitted
	publishes []time.Duration // Reconcile call → new generation serving
	late      time.Duration   // the pacer's worst lateness
	gens      int             // generations published
	err       error
}

// segLen is the stretch of load between two timings of the box's speed
// (ref.go): short beside the minutes a phase of the shared box lasts, long
// beside the 0.1 s a reference burst takes, and long enough for a p99 of
// its own (1000 frames) on the slowest workload of a slow box.
const segLen = 2 * time.Second

// segment is one stretch of load between two reference bursts.
type segment struct {
	lat   *latHist // frames sent in it
	texts int      // texts answered in it
	span  time.Duration
	cpu   time.Duration // process CPU over the span
	ref   refSample     // the box's speed: the bursts before and after
}

// window is one measured window of closed-loop load, cut into segments.
type window struct {
	conns []connLog
	learn *learnLog
	segs  []segment
	steal float64 // /proc/stat steal share over the window, %
	rt0   runtimeSample
	rt1   runtimeSample
}

// latencies merges every frame of every connection.
func (w *window) latencies() *latHist {
	h := &latHist{}
	for _, c := range w.conns {
		for _, s := range c.segs {
			if s != nil {
				h.merge(s)
			}
		}
	}
	return h
}

func (w *window) answers() (n int) {
	for _, c := range w.conns {
		n += c.texts
	}
	return n
}

// elapsed is the time under load: the segments' spans, without the
// reference bursts between them.
func (w *window) elapsed() (d time.Duration) {
	for _, s := range w.segs {
		d += s.span
	}
	return d
}

// little is the window's Little's-law ratio (see littleRatio).
func (w *window) little() float64 {
	h := w.latencies()
	return littleRatio(h.n, w.elapsed(), h.sum, len(w.conns))
}

// drive runs the closed loop on every query connection for dur, in
// segments of segLen. Before the first segment and after each one the load
// pauses — every connection finishes its frame in flight and waits — while
// a reference burst times the box.
func (st *stack) drive(dur time.Duration) (*window, error) {
	nseg := max(int(dur/segLen), 1)
	win := &window{conns: make([]connLog, len(st.clients)), segs: make([]segment, nseg)}
	var (
		wg   sync.WaitGroup
		gate sync.RWMutex // held for reading by every frame, for writing by a burst
		seg  int          // the current segment; nseg once the window is over
	)
	stat0 := readCPUStat()
	win.rt0 = readRuntime()
	gate.Lock()
	ref, err := st.ref.burst()
	if err != nil {
		gate.Unlock()
		return nil, err
	}
	for c, cl := range st.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			log := &win.conns[c]
			log.answers = map[answerKey]*answerSet{}
			var texts []string
			var idx []int32
			conns := len(st.clients)
			for k := c; ; k += conns {
				texts, idx = st.w.frameTexts(k, texts, idx)
				gate.RLock()
				s := seg
				if s == nseg {
					gate.RUnlock()
					return
				}
				t0 := time.Now()
				ans, err := cl.Ask(texts, frameBudget)
				lat := time.Since(t0)
				gate.RUnlock()
				if err != nil {
					log.err = fmt.Errorf("connection %d: %w", c, err)
					return
				}
				log.frame(s, lat)
				for i, a := range ans {
					log.record(answerKey{a.Gen, idx[i]}, served{a.Status, a.Index, a.Distance, a.Label})
				}
			}
		}(c)
	}
	if st.w.Learn != nil {
		win.learn = &learnLog{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			st.stream(time.Now(), win.learn, &gate)
		}()
	}
	for i := range win.segs {
		s := &win.segs[i]
		cpu0, t0 := cpuTime(), time.Now()
		gate.Unlock()
		time.Sleep(segLen)
		gate.Lock()
		s.span, s.cpu = time.Since(t0), cpuTime()-cpu0
		next, err := st.ref.burst()
		if err != nil {
			seg = nseg
			gate.Unlock()
			wg.Wait()
			return nil, err
		}
		s.ref = ref.mean(next)
		ref = next
		seg = i + 1
	}
	gate.Unlock()
	wg.Wait()
	win.steal = stealPct(stat0, readCPUStat())
	win.rt1 = readRuntime()
	for _, c := range win.conns {
		if c.err != nil {
			return nil, c.err
		}
	}
	if win.learn != nil && win.learn.err != nil {
		return nil, win.learn.err
	}
	win.gather(st.w.Frame)
	return win, nil
}

// gather merges every connection's frames into the segments they were sent
// in.
func (w *window) gather(frameTexts int) {
	for i := range w.segs {
		w.segs[i].lat = &latHist{}
	}
	for _, c := range w.conns {
		for i, h := range c.segs {
			if h != nil {
				w.segs[i].lat.merge(h)
				w.segs[i].texts += h.n * frameTexts
			}
		}
	}
}

// stream sends the learn stream at learnRate, in frames of learnFrame
// same-label examples, and reconciles after every learnGens-th of it.
//
// The stream is not part of the window's segments: it holds the gate only
// to keep out of the reference bursts, and runs to its end after the last
// segment if it is behind.
func (st *stack) stream(start time.Time, log *learnLog, gate *sync.RWMutex) {
	ex := st.w.Learn
	frames := len(ex) / learnFrame
	perGen := frames / learnGens
	period := time.Second * learnFrame / learnRate
	texts := make([]string, learnFrame)
	for f := 0; f < frames; f++ {
		due := start.Add(time.Duration(f) * period)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		} else if -wait > log.late {
			log.late = -wait
		}
		batch := ex[f*learnFrame : (f+1)*learnFrame]
		for i, e := range batch {
			texts[i] = e.Text
		}
		gate.RLock()
		acc, _ := st.learnCl.Learn(batch[0].Label, texts, 0)
		gate.RUnlock()
		log.sent += learnFrame
		log.accepted = append(log.accepted, acc)
		if (f+1)%perGen != 0 {
			continue
		}
		gate.RLock()
		t0 := time.Now()
		rep, err := st.lr.Reconcile()
		d := time.Since(t0)
		gate.RUnlock()
		if err != nil {
			log.err = fmt.Errorf("reconcile: %w", err)
			return
		}
		if st.t != nil {
			st.t.reconcile.add(d)
			if hooks := st.t.check.snapshot(); len(hooks) > 0 && !rep.Skipped {
				st.t.recSelf.add(d - hooks[len(hooks)-1])
			}
		}
		if rep.Skipped {
			continue
		}
		st.mu.Lock()
		swapped := st.swapAt.After(t0)
		publish := st.swapAt.Sub(t0)
		st.mu.Unlock()
		if !swapped {
			log.err = fmt.Errorf("generation %d (%s) was reconciled but never swapped in", rep.Gen, rep.Path)
			return
		}
		log.publishes = append(log.publishes, publish)
		log.gens++
	}
}

// norm is a window's figures at the nominal box speed of ref.go. Each
// segment's throughput is divided by the box's wall-clock speed, its CPU per
// request multiplied by the box's CPU speed and its p99 frame latency by the
// wall-clock speed, all from the reference bursts on either side of it; each
// figure is the median over segments, so one disturbed segment (a GC cycle
// or a burst of steal landing in the tail) does not move it.
type norm struct {
	qps         float64 // texts per second
	cpuUsPerReq float64
	p99Ms       float64
	// wallSpeed and cpuSpeed are the median segment's box speed (1 =
	// nominal).
	wallSpeed, cpuSpeed float64
}

func (w *window) normalize() (norm, error) {
	var qps, cpu, p99, wall, cpuSpeed []float64
	for i, s := range w.segs {
		c, err := cpuPerReq(s.cpu, s.texts)
		if err != nil {
			return norm{}, fmt.Errorf("segment %d: %w", i, err)
		}
		p, err := s.lat.percentile(99, time.Millisecond)
		if err != nil {
			return norm{}, fmt.Errorf("segment %d: %w", i, err)
		}
		qps = append(qps, float64(s.texts)/s.span.Seconds()/s.ref.wallSpeed())
		cpu = append(cpu, c*s.ref.cpuSpeed())
		p99 = append(p99, p*s.ref.wallSpeed())
		wall = append(wall, s.ref.wallSpeed())
		cpuSpeed = append(cpuSpeed, s.ref.cpuSpeed())
	}
	if len(qps) == 0 {
		return norm{}, fmt.Errorf("window has no segments")
	}
	return norm{median(qps), median(cpu), median(p99), median(wall), median(cpuSpeed)}, nil
}
