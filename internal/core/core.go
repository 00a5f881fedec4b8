// Package core defines the hyperdimensional associative memory (HAM)
// abstraction that is the paper's subject: a memory holding C learned class
// hypervectors which, for every query hypervector, returns the class with
// the nearest Hamming distance (§II-A2, §III).
//
// The three architectural designs the paper proposes — digital D-HAM,
// resistive R-HAM and analog A-HAM — are implementations of the Searcher
// interface in packages dham, rham and aham; software reference searchers
// (exact, sampled, noisy) live in package assoc. Every searcher returns the
// winner *as its hardware would*, including that design's approximations.
package core

import (
	"errors"
	"fmt"

	"hdam/internal/hv"
)

// Memory is the learned contents of an associative memory: C class
// hypervectors with their labels. It is written once per training session
// (the paper limits memristor write stress to exactly that) and then
// searched read-only, so Memory is immutable after construction.
type Memory struct {
	dim     int
	classes []*hv.Vector
	labels  []string
	cm      *ClassMatrix // packed row-major copy, the distance-kernel operand
}

// NewMemory builds an associative memory from class hypervectors and their
// labels. All vectors must share one dimensionality; labels must be unique.
func NewMemory(classes []*hv.Vector, labels []string) (*Memory, error) {
	if len(classes) == 0 {
		return nil, errors.New("core: memory needs at least one class")
	}
	if len(classes) != len(labels) {
		return nil, fmt.Errorf("core: %d classes but %d labels", len(classes), len(labels))
	}
	dim := classes[0].Dim()
	seen := make(map[string]bool, len(labels))
	cs := make([]*hv.Vector, len(classes))
	ls := make([]string, len(labels))
	for i, c := range classes {
		if c.Dim() != dim {
			return nil, fmt.Errorf("core: class %d has dim %d, want %d", i, c.Dim(), dim)
		}
		if labels[i] == "" {
			return nil, fmt.Errorf("core: class %d has empty label", i)
		}
		if seen[labels[i]] {
			return nil, fmt.Errorf("core: duplicate label %q", labels[i])
		}
		seen[labels[i]] = true
		cs[i] = c.Clone()
		ls[i] = labels[i]
	}
	return &Memory{dim: dim, classes: cs, labels: ls, cm: NewClassMatrix(cs)}, nil
}

// NewMemoryFromMatrix builds a memory directly over a packed class matrix
// WITHOUT copying the class data: each class vector is a zero-copy view of
// its matrix row. This is the load path of the snapshot store — cm's backing
// words may live in an mmap-ed file, so the memory is usable the moment the
// file is mapped. The matrix (and therefore the mapping) must stay valid and
// unmutated for the memory's lifetime. Labels must be unique and non-empty,
// one per matrix row.
func NewMemoryFromMatrix(cm *ClassMatrix, labels []string) (*Memory, error) {
	if cm == nil {
		return nil, errors.New("core: nil class matrix")
	}
	if cm.Rows() != len(labels) {
		return nil, fmt.Errorf("core: %d matrix rows but %d labels", cm.Rows(), len(labels))
	}
	seen := make(map[string]bool, len(labels))
	cs := make([]*hv.Vector, cm.Rows())
	ls := make([]string, len(labels))
	for i := range cs {
		if labels[i] == "" {
			return nil, fmt.Errorf("core: class %d has empty label", i)
		}
		if seen[labels[i]] {
			return nil, fmt.Errorf("core: duplicate label %q", labels[i])
		}
		seen[labels[i]] = true
		ls[i] = labels[i]
		v, err := hv.FromWords(cm.Dim(), cm.Row(i))
		if err != nil {
			return nil, fmt.Errorf("core: row %d: %w", i, err)
		}
		cs[i] = v
	}
	return &Memory{dim: cm.Dim(), classes: cs, labels: ls, cm: cm}, nil
}

// MustMemory is NewMemory for construction that cannot fail by design.
func MustMemory(classes []*hv.Vector, labels []string) *Memory {
	m, err := NewMemory(classes, labels)
	if err != nil {
		panic(err)
	}
	return m
}

// Dim returns the hypervector dimensionality D.
func (m *Memory) Dim() int { return m.dim }

// Classes returns the number of stored classes C.
func (m *Memory) Classes() int { return len(m.classes) }

// Class returns the i-th learned hypervector (do not mutate).
func (m *Memory) Class(i int) *hv.Vector {
	if i < 0 || i >= len(m.classes) {
		panic(fmt.Sprintf("core: class %d out of range [0,%d)", i, len(m.classes)))
	}
	return m.classes[i]
}

// Label returns the i-th class label.
func (m *Memory) Label(i int) string {
	if i < 0 || i >= len(m.labels) {
		panic(fmt.Sprintf("core: label %d out of range [0,%d)", i, len(m.labels)))
	}
	return m.labels[i]
}

// Labels returns a copy of all class labels in storage order.
func (m *Memory) Labels() []string {
	out := make([]string, len(m.labels))
	copy(out, m.labels)
	return out
}

// ClassMatrix returns the packed row-major view of the stored classes that
// the distance kernels stream. Read-only.
func (m *Memory) ClassMatrix() *ClassMatrix { return m.cm }

// Distances computes the exact Hamming distance from q to every class, in
// storage order. This is the ground truth all approximate designs are
// judged against. Hot loops should use DistancesInto with a reused buffer.
func (m *Memory) Distances(q *hv.Vector) []int {
	ds := make([]int, len(m.classes))
	m.DistancesInto(ds, q)
	return ds
}

// DistancesInto is Distances into a caller-provided buffer of length
// Classes(), allocating nothing: one streaming pass over the packed class
// matrix.
func (m *Memory) DistancesInto(dst []int, q *hv.Vector) {
	m.checkQuery(q)
	m.cm.DistancesInto(dst, q)
}

// DistancesBatchInto computes the distance matrix for a batch of queries
// into dst, row-major by query (see ClassMatrix.DistancesBatchInto).
func (m *Memory) DistancesBatchInto(dst []int, queries []*hv.Vector) {
	m.cm.DistancesBatchInto(dst, queries)
}

// Nearest returns the index and distance of the exact nearest class; ties
// resolve to the lowest index, matching a deterministic comparator tree.
func (m *Memory) Nearest(q *hv.Vector) (int, int) {
	m.checkQuery(q)
	return m.cm.Nearest(q)
}

// MinClassSeparation returns the minimum pairwise Hamming distance among
// the stored class hypervectors, and the second-smallest pairwise distance.
// The paper reports 22 and 34 for its learned language hypervectors and uses
// the minimum as the misclassification border for A-HAM's LTA resolution
// (§III-D2).
func (m *Memory) MinClassSeparation() (min1, min2 int) {
	min1, min2 = m.dim+1, m.dim+1
	for i := 0; i < len(m.classes); i++ {
		for j := i + 1; j < len(m.classes); j++ {
			d := hv.Hamming(m.classes[i], m.classes[j])
			if d < min1 {
				min1, min2 = d, min1
			} else if d < min2 {
				min2 = d
			}
		}
	}
	return min1, min2
}

func (m *Memory) checkQuery(q *hv.Vector) {
	if q.Dim() != m.dim {
		panic(fmt.Sprintf("core: query dim %d, memory dim %d", q.Dim(), m.dim))
	}
}

// Result is the outcome of one associative search.
type Result struct {
	// Index is the winning class (row) index.
	Index int
	// Distance is the distance the hardware *observed* for the winner; for
	// approximate designs it can differ from the true Hamming distance.
	Distance int
}

// Searcher finds the nearest class for a query hypervector, the way one
// particular hardware design (or software reference) would.
type Searcher interface {
	// Search returns the winning class for q.
	Search(q *hv.Vector) Result
	// Name identifies the design for reports (e.g. "D-HAM d=9000").
	Name() string
}
