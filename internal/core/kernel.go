package core

import "math/bits"

// This file holds the popcount-of-XOR distance kernels behind every
// associative search: the generic Harley-Seal carry-save-adder blocked
// kernel and the wide-unrolled POPCNT kernel. Which one backs rowDistance is
// a build-time decision (see kernel_generic.go and kernel_amd64v3.go); both
// produce bit-identical distances for every word count, so the choice is
// invisible to everything above — DistancesInto, DistancesBatchInto, the
// range partials of the fleet and the cascade all inherit it unchanged.
//
// Both kernels share two structural ideas. First, blocks are read through
// slice-to-array-pointer conversions ((*[8]uint64)(row[w:])), which replaces
// per-element bounds checks with one check per block — worth ~20% on this
// loop, where the compiler cannot otherwise prove the indices in range.
// Second, the 1–7 trailing words that don't fill a block are folded by an
// unrolled switch instead of a scalar loop, so non-multiple-of-block word
// counts (D = 10,000 packs to 157 words) keep the popcounts pipelined to the
// last word.

// csa is a carry-save adder over bit-sliced counters: it compresses three
// one-bit-per-lane addends into a sum lane and a carry lane (Harley-Seal).
func csa(a, b, c uint64) (sum, carry uint64) {
	u := a ^ b
	return u ^ c, (a & b) | (u & c)
}

// rowDistanceCSA is the Harley-Seal blocked kernel: 16 XOR words are
// compressed through a carry-save-adder tree into bit-sliced counters
// (ones/twos/fours/eights) and only the sixteens overflow is popcounted per
// block, so a 16-word block costs one OnesCount64 instead of sixteen. The
// counters are flushed once at the end. On cores where OnesCount64 compiles
// to a short fallback sequence rather than a single POPCNT, this is the
// fastest portable kernel; with hardware POPCNT it still edges out the naive
// 4-wide loop because the CSA tree is pure single-cycle logic.
func rowDistanceCSA(row, qw []uint64) int {
	n := len(row)
	qw = qw[:n]
	var ones, twos, fours, eights uint64
	total := 0
	w := 0
	for ; w+16 <= n; w += 16 {
		a := (*[16]uint64)(row[w:])
		b := (*[16]uint64)(qw[w:])
		var twosA, twosB, foursA, foursB, eightsA, eightsB, sixteens uint64
		ones, twosA = csa(ones, a[0]^b[0], a[1]^b[1])
		ones, twosB = csa(ones, a[2]^b[2], a[3]^b[3])
		twos, foursA = csa(twos, twosA, twosB)
		ones, twosA = csa(ones, a[4]^b[4], a[5]^b[5])
		ones, twosB = csa(ones, a[6]^b[6], a[7]^b[7])
		twos, foursB = csa(twos, twosA, twosB)
		fours, eightsA = csa(fours, foursA, foursB)
		ones, twosA = csa(ones, a[8]^b[8], a[9]^b[9])
		ones, twosB = csa(ones, a[10]^b[10], a[11]^b[11])
		twos, foursA = csa(twos, twosA, twosB)
		ones, twosA = csa(ones, a[12]^b[12], a[13]^b[13])
		ones, twosB = csa(ones, a[14]^b[14], a[15]^b[15])
		twos, foursB = csa(twos, twosA, twosB)
		fours, eightsB = csa(fours, foursA, foursB)
		eights, sixteens = csa(eights, eightsA, eightsB)
		total += bits.OnesCount64(sixteens)
	}
	total = total<<4 +
		bits.OnesCount64(eights)<<3 +
		bits.OnesCount64(fours)<<2 +
		bits.OnesCount64(twos)<<1 +
		bits.OnesCount64(ones)
	for ; w+4 <= n; w += 4 {
		a := (*[4]uint64)(row[w:])
		b := (*[4]uint64)(qw[w:])
		total += bits.OnesCount64(a[0]^b[0]) +
			bits.OnesCount64(a[1]^b[1]) +
			bits.OnesCount64(a[2]^b[2]) +
			bits.OnesCount64(a[3]^b[3])
	}
	return total + distanceTail3(row, qw, w, n)
}

// rowDistancePopcnt is the wide-unrolled kernel for builds that guarantee a
// hardware POPCNT (GOAMD64 ≥ v2): eight independent popcount-of-XOR chains
// per block saturate the popcount unit, and the blocked array-pointer loads
// keep bounds checks out of the hot loop.
func rowDistancePopcnt(row, qw []uint64) int {
	n := len(row)
	qw = qw[:n]
	d := 0
	w := 0
	for ; w+8 <= n; w += 8 {
		a := (*[8]uint64)(row[w:])
		b := (*[8]uint64)(qw[w:])
		d += bits.OnesCount64(a[0]^b[0]) +
			bits.OnesCount64(a[1]^b[1]) +
			bits.OnesCount64(a[2]^b[2]) +
			bits.OnesCount64(a[3]^b[3]) +
			bits.OnesCount64(a[4]^b[4]) +
			bits.OnesCount64(a[5]^b[5]) +
			bits.OnesCount64(a[6]^b[6]) +
			bits.OnesCount64(a[7]^b[7])
	}
	if n-w >= 4 {
		a := (*[4]uint64)(row[w:])
		b := (*[4]uint64)(qw[w:])
		d += bits.OnesCount64(a[0]^b[0]) +
			bits.OnesCount64(a[1]^b[1]) +
			bits.OnesCount64(a[2]^b[2]) +
			bits.OnesCount64(a[3]^b[3])
		w += 4
	}
	return d + distanceTail3(row, qw, w, n)
}

// shortRangeWords is the cutoff below which the partial-distance kernels
// bypass the build-selected rowDistance and run the unrolled popcount loop
// directly. A range shorter than four CSA blocks cannot amortize the
// Harley-Seal accumulator flush (four extra popcounts plus the shift tree),
// which at the cascade's default stage-1 slice width is pure overhead; the
// popcount loop's cost stays proportional to the words actually read. Full
// rows keep the build-selected kernel, so the trade only touches scans that
// are short by construction.
const shortRangeWords = 64

// rangeDistance is rowDistance for word sub-ranges: the cascade's stage-1
// slice, its stage-2 rescore segments and the sharded kernel's shards are
// often much shorter than a full row, where the blocked CSA kernel's fixed
// flush cost dominates the block loop.
func rangeDistance(row, qw []uint64) int {
	if len(row) < shortRangeWords {
		return rowDistancePopcnt(row, qw)
	}
	return rowDistance(row, qw)
}

// rangeDistancesStride scores one word-range column block across every row
// of a packed row-major matrix: dst[r] = popcount of the XOR between qs and
// the len(qs) words at data[r*stride+off ...]. For ranges under
// shortRangeWords the 8-wide popcount loop is inlined inside the row loop,
// so the short scans that dominate the cascade's stage 1 and the sharded
// kernel's columns pay no per-row call; longer ranges dispatch the
// build-selected row kernel once per row.
func rangeDistancesStride(dst []int, data, qs []uint64, off, stride int) {
	n := len(qs)
	if n >= shortRangeWords {
		for r := range dst {
			base := r*stride + off
			dst[r] = rowDistance(data[base:base+n], qs)
		}
		return
	}
	// Rows are scored in interleaved triples sharing each query block load,
	// which cuts the query traffic to a third and keeps three independent
	// popcount chains in flight; 1–2 remainder rows fall through to the
	// single-row kernel. (Three is measurably better than two here and the
	// paper's C = 21 divides evenly; four spills registers.)
	r := 0
	for ; r+3 <= len(dst); r += 3 {
		base := r*stride + off
		row0 := data[base : base+n]
		row1 := data[base+stride : base+stride+n]
		row2 := data[base+2*stride : base+2*stride+n]
		d0, d1, d2 := 0, 0, 0
		w := 0
		for ; w+8 <= n; w += 8 {
			b := (*[8]uint64)(qs[w:])
			a0 := (*[8]uint64)(row0[w:])
			a1 := (*[8]uint64)(row1[w:])
			a2 := (*[8]uint64)(row2[w:])
			d0 += bits.OnesCount64(a0[0]^b[0]) +
				bits.OnesCount64(a0[1]^b[1]) +
				bits.OnesCount64(a0[2]^b[2]) +
				bits.OnesCount64(a0[3]^b[3]) +
				bits.OnesCount64(a0[4]^b[4]) +
				bits.OnesCount64(a0[5]^b[5]) +
				bits.OnesCount64(a0[6]^b[6]) +
				bits.OnesCount64(a0[7]^b[7])
			d1 += bits.OnesCount64(a1[0]^b[0]) +
				bits.OnesCount64(a1[1]^b[1]) +
				bits.OnesCount64(a1[2]^b[2]) +
				bits.OnesCount64(a1[3]^b[3]) +
				bits.OnesCount64(a1[4]^b[4]) +
				bits.OnesCount64(a1[5]^b[5]) +
				bits.OnesCount64(a1[6]^b[6]) +
				bits.OnesCount64(a1[7]^b[7])
			d2 += bits.OnesCount64(a2[0]^b[0]) +
				bits.OnesCount64(a2[1]^b[1]) +
				bits.OnesCount64(a2[2]^b[2]) +
				bits.OnesCount64(a2[3]^b[3]) +
				bits.OnesCount64(a2[4]^b[4]) +
				bits.OnesCount64(a2[5]^b[5]) +
				bits.OnesCount64(a2[6]^b[6]) +
				bits.OnesCount64(a2[7]^b[7])
		}
		for ; w < n; w++ {
			q := qs[w]
			d0 += bits.OnesCount64(row0[w] ^ q)
			d1 += bits.OnesCount64(row1[w] ^ q)
			d2 += bits.OnesCount64(row2[w] ^ q)
		}
		dst[r], dst[r+1], dst[r+2] = d0, d1, d2
	}
	for ; r < len(dst); r++ {
		base := r*stride + off
		dst[r] = rowDistancePopcnt(data[base:base+n], qs)
	}
}

// distanceTail3 folds the 0–3 words at [w,n) with the unrolled pipeline
// rather than a scalar loop, so every residue class of the word count pays
// exactly one branch.
func distanceTail3(row, qw []uint64, w, n int) int {
	switch n - w {
	case 3:
		return bits.OnesCount64(row[w]^qw[w]) +
			bits.OnesCount64(row[w+1]^qw[w+1]) +
			bits.OnesCount64(row[w+2]^qw[w+2])
	case 2:
		return bits.OnesCount64(row[w]^qw[w]) +
			bits.OnesCount64(row[w+1]^qw[w+1])
	case 1:
		return bits.OnesCount64(row[w] ^ qw[w])
	}
	return 0
}
