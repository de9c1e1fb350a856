package sht

import (
	"math"
	"math/rand"
	"testing"

	"exaclim/internal/sphere"
)

// Batch evaluation cannot be byte-identical to per-point evaluation:
// PointEvaluator computes a flat L^2 dot product in packed-index order,
// while the batch fold groups terms by order m (F(m) = sum_l ...) and
// gathers with cos/sin tables — a different but mathematically equal
// association of the same products. The tests below therefore pin the
// batch path to the per-point path and to full synthesis at <= 1e-10 of
// the field scale, the same analytic-agreement bound every other
// evaluator in this package is held to.

// TestPointBatchMatchesPointEvaluator compares the batch evaluator
// against per-point evaluation and full synthesis at grid points,
// including both poles and repeated colatitudes, across band limits
// (L=1 exercises the degenerate constant-field case).
func TestPointBatchMatchesPointEvaluator(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, L := range []int{1, 2, 5, 16, 33} {
		grid := sphere.GridForBandLimit(L)
		plan, err := NewPlan(grid, L)
		if err != nil {
			t.Fatal(err)
		}
		c := randomCoeffs(rng, L)
		f := plan.Synthesize(c)
		scale := fieldScale(f)
		packed := c.PackReal(nil)

		var thetas, phis []float64
		var wantIJ [][2]int
		for i := 0; i < grid.NLat; i += 2 {
			for j := 0; j < grid.NLon; j += 3 {
				thetas = append(thetas, grid.Colatitude(i))
				phis = append(phis, grid.Longitude(j))
				wantIJ = append(wantIJ, [2]int{i, j})
			}
		}
		e := NewPointBatchEvaluator(L, thetas, phis)
		if e.Locations() != len(thetas) {
			t.Fatalf("L=%d: Locations=%d want %d", L, e.Locations(), len(thetas))
		}
		if e.Rings() >= e.Locations() && len(thetas) > grid.NLat {
			t.Fatalf("L=%d: %d rings for %d locations; colatitude dedupe failed", L, e.Rings(), e.Locations())
		}
		got := e.EvalPacked(nil, packed)
		for k, ij := range wantIJ {
			want := f.At(ij[0], ij[1])
			if math.Abs(got[k]-want) > 1e-10*scale {
				t.Fatalf("L=%d loc %d (%d,%d): batch=%g synthesis=%g (scale %g)",
					L, k, ij[0], ij[1], got[k], want, scale)
			}
			pe := NewPointEvaluator(L, thetas[k], phis[k])
			if pp := pe.EvalPacked(packed); math.Abs(got[k]-pp) > 1e-10*scale {
				t.Fatalf("L=%d loc %d: batch=%g per-point=%g", L, k, got[k], pp)
			}
		}
	}
}

// TestPointBatchPoles pins evaluation exactly at theta = 0 and pi,
// where every m > 0 Legendre function vanishes and the field reduces to
// the zonal sum — agreement with EvalPoint must hold there too.
func TestPointBatchPoles(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, L := range []int{1, 2, 16} {
		c := randomCoeffs(rng, L)
		packed := c.PackReal(nil)
		thetas := []float64{0, math.Pi, 0, math.Pi}
		phis := []float64{0, 0, 2.5, -1.0} // longitude is degenerate at a pole
		e := NewPointBatchEvaluator(L, thetas, phis)
		if e.Rings() != 2 {
			t.Fatalf("L=%d: %d rings for the two poles", L, e.Rings())
		}
		got := e.EvalPacked(nil, packed)
		for k := range thetas {
			want := EvalPoint(c, thetas[k], phis[k])
			if math.Abs(got[k]-want) > 1e-12*(1+math.Abs(want)) {
				t.Fatalf("L=%d pole loc %d: batch=%g EvalPoint=%g", L, k, got[k], want)
			}
		}
		// At theta = 0, sin(theta) is exactly zero so every m > 0 term
		// vanishes exactly and the value is longitude-independent to the
		// bit. At theta = pi, sin(pi) is ~1.2e-16, so the residual
		// longitude dependence is at the last-ulp level.
		if got[0] != got[2] {
			t.Fatalf("L=%d: north pole value varies with longitude: %v", L, got)
		}
		if math.Abs(got[1]-got[3]) > 1e-13*(1+math.Abs(got[1])) {
			t.Fatalf("L=%d: south pole value varies with longitude: %v", L, got)
		}
	}
}

// TestPointBatchLongitudeWraparound pins that phi and phi + 2 pi k give
// the same value up to the trig recurrence's rounding.
func TestPointBatchLongitudeWraparound(t *testing.T) {
	const L = 16
	rng := rand.New(rand.NewSource(33))
	c := randomCoeffs(rng, L)
	packed := c.PackReal(nil)
	theta := 1.1
	phis := []float64{-0.3, -0.3 + 2*math.Pi, 2.5, 2.5 - 2*math.Pi}
	thetas := []float64{theta, theta, theta, theta}
	e := NewPointBatchEvaluator(L, thetas, phis)
	got := e.EvalPacked(nil, packed)
	scale := 1 + math.Abs(got[0])
	if math.Abs(got[0]-got[1]) > 1e-11*scale {
		t.Fatalf("wraparound +2pi: %g vs %g", got[0], got[1])
	}
	if math.Abs(got[2]-got[3]) > 1e-11*scale {
		t.Fatalf("wraparound -2pi: %g vs %g", got[2], got[3])
	}
}

// TestPointBatchSeries pins EvalSeriesPacked's shape and values against
// step-by-step EvalPacked (identical code path, so exact equality).
func TestPointBatchSeries(t *testing.T) {
	const L = 8
	const T = 5
	rng := rand.New(rand.NewSource(35))
	steps := make([][]float64, T)
	for t2 := range steps {
		steps[t2] = randomCoeffs(rng, L).PackReal(nil)
	}
	thetas := []float64{0.4, 0.4, 1.9}
	phis := []float64{0.1, 3.0, 5.5}
	e := NewPointBatchEvaluator(L, thetas, phis)
	series := e.EvalSeriesPacked(steps)
	if len(series) != len(thetas) {
		t.Fatalf("series has %d locations, want %d", len(series), len(thetas))
	}
	for tt, packed := range steps {
		vals := e.EvalPacked(nil, packed)
		for p := range thetas {
			if len(series[p]) != T {
				t.Fatalf("location %d series length %d, want %d", p, len(series[p]), T)
			}
			if series[p][tt] != vals[p] {
				t.Fatalf("loc %d step %d: series=%g direct=%g", p, tt, series[p][tt], vals[p])
			}
		}
	}
}

// TestPointBatchConcurrentEvalPanics pins the non-concurrent contract.
func TestPointBatchConcurrentEvalPanics(t *testing.T) {
	const L = 4
	e := NewPointBatchEvaluator(L, []float64{1.0}, []float64{0.5})
	e.busy.Store(true) // simulate an Eval in flight on another goroutine
	defer func() {
		if recover() == nil {
			t.Fatal("concurrent EvalPacked did not panic")
		}
	}()
	e.EvalPacked(nil, make([]float64, PackDim(L)))
}
