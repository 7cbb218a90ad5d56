package stats

import (
	"fmt"
	"math"
)

// AdaptiveSimpson integrates f over [a, b] to absolute tolerance tol
// using adaptive Simpson quadrature with a recursion-depth cap.
func AdaptiveSimpson(f func(float64) float64, a, b, tol float64) float64 {
	if a > b {
		panic(fmt.Sprintf("stats: invalid interval [%v,%v]", a, b))
	}
	if a == b {
		return 0
	}
	fa, fb := f(a), f(b)
	m := 0.5 * (a + b)
	fm := f(m)
	whole := simpsonPanel(a, b, fa, fm, fb)
	return adaptiveSimpsonRec(f, a, b, fa, fm, fb, whole, tol, 50)
}

func simpsonPanel(a, b, fa, fm, fb float64) float64 {
	return (b - a) / 6 * (fa + 4*fm + fb)
}

func adaptiveSimpsonRec(f func(float64) float64, a, b, fa, fm, fb, whole, tol float64, depth int) float64 {
	m := 0.5 * (a + b)
	lm := 0.5 * (a + m)
	rm := 0.5 * (m + b)
	flm, frm := f(lm), f(rm)
	left := simpsonPanel(a, m, fa, flm, fm)
	right := simpsonPanel(m, b, fm, frm, fb)
	if depth <= 0 || math.Abs(left+right-whole) <= 15*tol {
		return left + right + (left+right-whole)/15
	}
	return adaptiveSimpsonRec(f, a, m, fa, flm, fm, left, tol/2, depth-1) +
		adaptiveSimpsonRec(f, m, b, fm, frm, fb, right, tol/2, depth-1)
}
