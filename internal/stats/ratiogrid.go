package stats

import (
	"math"
	"sort"
)

// ProdRatioGridTol bounds IntegralProdRatioGrid's error against both
// the per-point walks and the exact cross term C: |grid - C| <=
// ProdRatioGridTol·(C + (r-1)·t) at every point t, where the window
// length (r-1)·t bounds the cross term. The fuzz targets and the
// accuracy tests hold the kernel to it.
const ProdRatioGridTol = 1e-12

// IntegralProdRatioGrid fills out[k] with the plain delayed cross term
//
//	C(t) = ∫₀^{(r-1)t} (1 - s·F(u))·(1 - s·F(u+t)) du
//
// at t = lo + k·h and r = ratio, the values IntegralProdOneMinusF
// returns at T = ratio·t - t and shift = t, to within ProdRatioGridTol.
// Where per-point walks cost O(n) each, it makes one pass.
//
// On the step law S = 1 - s·F, C is continuous and piecewise linear in
// t with
//
//	C'(t) = (r-1)·S((r-1)t)·S(rt) - Σ_{t < x_j < rt} Δ_j·S((x_j-t)⁻),
//
// Δ_j = s·P(X = x_j) the drop of S at x_j. The pass walks C(lo) once,
// integrates the first term cell by cell with a merged walk over the
// breaks x/(r-1) and x/r, and drops each change of the sum into the
// grid cell it falls in, with no sort:
//
//   - x_j enters at t = x_j/r with Δ_j·S(((r-1)x_j/r)⁻),
//   - it leaves at t = x_j with Δ_j·S(0),
//   - its term grows by Δ_i·Δ_j at t = x_j - x_i for every
//     0 < x_i < (r-1)x_j/r, when x_j - t passes x_i.
//
// Every change at or before lo is folded into the sum's value at lo
// instead, so each is counted exactly once whatever the rounding. The
// cost is O(n + G + crossings inside the grid). Anything outside the
// shape the pass handles — ratio <= 1, lo or h not positive, s < 0 —
// is answered by per-point walks.
func (e *ECDF) IntegralProdRatioGrid(ratio, lo, h, s float64, out []float64) {
	G := len(out)
	if G == 0 {
		return
	}
	hi := lo + float64(G-1)*h
	if !(ratio > 1) || !(lo > 0) || !(h > 0) || !(s >= 0) || math.IsInf(ratio*hi, 0) {
		for k := range out {
			t := lo + float64(k)*h
			out[k] = e.integralProd(ratio*t-t, t, s, false)
		}
		return
	}
	out[0] = e.integralProd(ratio*lo-lo, lo, s, false)
	if G == 1 {
		return
	}
	sv := e.powKernelFor(s, 1).sv
	xs, m := e.xs, len(e.xs)
	rm1 := ratio - 1
	cells := G - 1
	// dC[k] is C's change over cell k less the sum's value at the cell's
	// start times its width: the first term's integral minus
	// Σ d·(t_{k+1} - t_event) over the sum's changes d inside the cell.
	// dB[k] is the total of those changes.
	buf := make([]float64, 2*cells)
	dC, dB := buf[:cells], buf[cells:]
	grid := func(k int) float64 { return lo + float64(k)*h }

	// First term: S((r-1)t) has its k-th break at x_k/(r-1) and S(rt)
	// at x_k/r; i1 and i2 count the breaks passed.
	brk := func(k int, d float64) float64 {
		if k < m {
			return xs[k] / d
		}
		return math.Inf(1)
	}
	i1 := sort.Search(m, func(k int) bool { return xs[k]/rm1 > lo })
	i2 := sort.Search(m, func(k int) bool { return xs[k]/ratio > lo })
	b1, b2 := brk(i1, rm1), brk(i2, ratio)
	t := lo
	for k := range dC {
		end := grid(k + 1)
		acc := 0.0
		for {
			next := end
			if b1 < next {
				next = b1
			}
			if b2 < next {
				next = b2
			}
			acc += sv[i1] * sv[i2] * (next - t)
			t = next
			if next >= end {
				break
			}
			if b1 <= next {
				i1++
				b1 = brk(i1, rm1)
			}
			if b2 <= next {
				i2++
				b2 = brk(i2, ratio)
			}
		}
		dC[k] = rm1 * acc
	}

	// The sum. For each x_j > lo (those at or below lo have entered and
	// left by lo: their changes cancel), with cursors over x_i:
	//   a counts x_i < (r-1)x_j/r, the points x_j's term starts below,
	//   b counts x_j - x_i > lo, the crossings still ahead at lo,
	//   c counts x_j - x_i > hi, the crossings past the grid,
	// and z counts x_i <= 0, which are never crossed.
	add := func(ev, d float64) {
		k := int((ev - lo) / h)
		if k >= cells {
			k = cells - 1
		}
		dB[k] += d
		dC[k] -= d * (grid(k+1) - ev)
	}
	z := e.rankLE(0)
	rv := rm1 / ratio
	sum := 0.0 // the sum just after lo
	a, b, c := 0, 0, 0
	lim := ratio * hi * (1 + 1e-9)
	for j := e.rankLE(lo); j < m && xs[j] <= lim; j++ {
		x := xs[j]
		v := x * rv
		for a < m && xs[a] < v {
			a++
		}
		for b < m && x-xs[b] > lo {
			b++
		}
		for c < m && x-xs[c] > hi {
			c++
		}
		dj := sv[j] - sv[j+1]
		if enter := x / ratio; enter <= lo {
			sum += dj * sv[a]
		} else if enter <= hi {
			add(enter, dj*sv[a])
		}
		if x <= hi {
			add(x, -dj*sv[z])
		}
		b0 := max(b, z)
		if a > b0 {
			sum += dj * (sv[b0] - sv[a])
		}
		for i := max(c, z); i < min(b, a); i++ {
			add(x-xs[i], dj*(sv[i]-sv[i+1]))
		}
	}

	cv := out[0]
	for k := range dC {
		cv += dC[k] - sum*(grid(k+1)-grid(k))
		sum += dB[k]
		out[k+1] = cv
	}
}
