package main

// ref.go: the box's speed, measured with a computation the benchmark owns.
//
// The shared box this benchmark runs on changes speed by a quarter or more
// in phases lasting minutes, with little or no steal to show for it (other
// guests share the cores and caches). A run's raw figures follow the phase
// it happens to meet. Between stretches of load the benchmark therefore
// times a miniature of the same serving shape — closed-loop requests over
// loopback TCP on nproc connections, each answered by a fixed computation
// of the same kind as the encoder and the search (rotate-and-bind n-grams
// of 10 048-bit vectors, bit-sliced bundling and a Hamming scan) — and
// scales each stretch's figures by how fast the box ran it (see NOTES.md,
// "Box speed"). A slow phase of the box can slow the computation, the
// system calls and the wake-ups; the miniature pays for all three in about
// the program's proportions. The code below is the benchmark's own and
// never changes with the program, so a faster program still reads faster;
// only the box's speed is divided out.

import (
	"errors"
	"fmt"
	"io"
	"math/bits"
	"math/rand/v2"
	"net"
	"sync"
	"time"
)

const (
	refWords   = 157 // 10 048 bits, the served dimension rounded up to words
	refSymbols = 27
	refGram    = 3
	refPlanes  = 8 // bit-sliced counter planes: up to 255 n-grams per text
	refClasses = 21
	refLen     = 150 // symbols per text, as in a classify-sentence query
	refPool    = 64
	// refTexts is how many requests each connection sends in one burst:
	// about 0.1 s of work, a twentieth of the segment of load that follows.
	refTexts = 200
)

// Nominal reference speed: typical readings of the burst's wall time per
// request on each connection and its process CPU time per request on a
// 2-vCPU Intel Xeon guest with Go 1.24. Normalized figures read as if the box ran at this
// speed; the constants only scale them.
const (
	refWallNominal = 550 * time.Microsecond
	refCPUNominal  = 500 * time.Microsecond
)

type refVec [refWords]uint64

// refKernel is the reference: its fixed inputs, generated from a constant
// seed, and its loopback server and connections.
type refKernel struct {
	items   [refSymbols]refVec
	classes [refClasses]refVec
	texts   [refPool][refLen]byte

	ln      net.Listener
	clients []net.Conn
	served  sync.WaitGroup // one server goroutine per connection
}

func newRefKernel() *refKernel {
	r := rand.New(rand.NewPCG(2017, 12))
	k := &refKernel{}
	for i := range k.items {
		for w := range k.items[i] {
			k.items[i][w] = r.Uint64()
		}
	}
	for i := range k.classes {
		for w := range k.classes[i] {
			k.classes[i][w] = r.Uint64()
		}
	}
	for t := range k.texts {
		for i := range k.texts[t] {
			k.texts[t][i] = byte(r.IntN(refSymbols))
		}
	}
	return k
}

// refScratch is one goroutine's working memory.
type refScratch struct {
	counts   [refWords][refPlanes]uint64
	cur, tmp refVec
	query    refVec
}

// classify encodes text and returns the nearest class.
func (k *refKernel) classify(text *[refLen]byte, s *refScratch) int {
	s.counts = [refWords][refPlanes]uint64{}
	for i := 0; i+refGram <= len(text); i++ {
		s.cur = refVec{}
		for _, sym := range text[i : i+refGram] {
			carry := s.cur[refWords-1] >> 63
			for w, v := range s.cur {
				s.tmp[w] = v<<1 | carry
				carry = v >> 63
			}
			for w, v := range k.items[sym] {
				s.cur[w] = s.tmp[w] ^ v
			}
		}
		for w, c := range s.cur {
			for p := 0; p < refPlanes && c != 0; p++ {
				x := s.counts[w][p]
				s.counts[w][p] = x ^ c
				c &= x
			}
		}
	}
	// A rough majority of the 148 n-grams: the reference is there for its
	// work, not its answer.
	for w := range s.query {
		c := &s.counts[w]
		s.query[w] = c[7] | c[6]&c[4]
	}
	best, idx := 1<<30, 0
	for i := range k.classes {
		d := 0
		for w, v := range s.query {
			d += bits.OnesCount64(v ^ k.classes[i][w])
		}
		if d < best {
			best, idx = d, i
		}
	}
	return idx
}

// start opens the reference's loopback server and conns connections to it.
// The server answers each request — one byte naming a text — with the one
// byte class classify gives it.
func (k *refKernel) start(conns int) (err error) {
	if k.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return err
	}
	defer func() {
		if err != nil {
			k.close()
		}
	}()
	for i := 0; i < conns; i++ {
		c, err := net.Dial("tcp", k.ln.Addr().String())
		if err != nil {
			return err
		}
		k.clients = append(k.clients, c)
		sc, err := k.ln.Accept()
		if err != nil {
			return err
		}
		k.served.Add(1)
		go k.serve(sc)
	}
	return nil
}

func (k *refKernel) serve(c net.Conn) {
	defer k.served.Done()
	defer c.Close()
	var s refScratch
	buf := make([]byte, 1)
	for {
		if _, err := io.ReadFull(c, buf); err != nil {
			return
		}
		buf[0] = byte(k.classify(&k.texts[int(buf[0])%refPool], &s))
		if _, err := c.Write(buf); err != nil {
			return
		}
	}
}

// close shuts the reference's connections and server down and waits for
// its goroutines.
func (k *refKernel) close() {
	for _, c := range k.clients {
		c.Close()
	}
	if k.ln != nil {
		k.ln.Close()
	}
	k.served.Wait()
}

// refSample is one burst's timing, per text encoded.
type refSample struct {
	wall time.Duration // burst wall time per text on each CPU
	cpu  time.Duration // process CPU time per text
}

// mean is the average of two samples: a segment is scaled by the bursts
// on either side of it.
func (a refSample) mean(b refSample) refSample {
	return refSample{(a.wall + b.wall) / 2, (a.cpu + b.cpu) / 2}
}

// wallSpeed and cpuSpeed are the box's speed relative to the nominal one:
// below 1 when the box runs slow.
func (a refSample) wallSpeed() float64 { return float64(refWallNominal) / float64(a.wall) }
func (a refSample) cpuSpeed() float64  { return float64(refCPUNominal) / float64(a.cpu) }

// burst sends refTexts requests down every connection at once, each
// waiting for the previous answer, and times them. It must run while the
// program under test is idle.
func (k *refKernel) burst() (refSample, error) {
	var wg sync.WaitGroup
	errs := make([]error, len(k.clients))
	cpu0, t0 := cpuTime(), time.Now()
	for i, c := range k.clients {
		wg.Add(1)
		go func(i int, c net.Conn) {
			defer wg.Done()
			buf := make([]byte, 1)
			for j := 0; j < refTexts; j++ {
				buf[0] = byte(i*refTexts + j)
				if _, err := c.Write(buf); err != nil {
					errs[i] = err
					return
				}
				if _, err := io.ReadFull(c, buf); err != nil {
					errs[i] = err
					return
				}
			}
		}(i, c)
	}
	wg.Wait()
	wall, cpu := time.Since(t0), cpuTime()-cpu0
	if err := errors.Join(errs...); err != nil {
		return refSample{}, fmt.Errorf("reference burst: %w", err)
	}
	n := refTexts * len(k.clients)
	return refSample{wall / refTexts, cpu / time.Duration(n)}, nil
}
