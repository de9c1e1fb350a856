package sht

import (
	"fmt"
	"math"
	"sync/atomic"

	"exaclim/internal/legendre"
)

// PointBatchEvaluator evaluates band-limited fields at a fixed set of
// locations in one coefficient sweep. Construction groups the locations
// by colatitude and builds one Legendre table per distinct ring (shared
// recursion coefficients) plus per-location cos/sin(m phi) tables, so a
// P-location step costs one O(L^2) degree fold per distinct ring and
// O(L) per location — instead of P independent O(L^2) dot products, and
// instead of P cursor passes over the archive when the locations share
// a request. For box-shaped batches (R rings x Q longitudes) that is an
// R/P = 1/Q fraction of the per-point fold work.
//
// Concurrency contract: like RingEvaluator, a batch evaluator is a
// streaming scratch holder — EvalPacked mutates the fold scratch — so
// use one per goroutine. Concurrent EvalPacked calls panic.
type PointBatchEvaluator struct {
	L     int
	rings []batchRing
	locs  []batchLoc
	fm    []complex128 // fold scratch, rings x L
	busy  atomic.Bool
}

// batchRing is one distinct colatitude of the batch.
type batchRing struct {
	theta float64
	leg   []float64 // Legendre table at theta, Idx layout
}

// batchLoc is one evaluation location.
type batchLoc struct {
	ring       int       // index into rings
	cosM, sinM []float64 // cos/sin(m phi), m = 0..L-1
}

// NewPointBatchEvaluator builds a batch evaluator for band limit L at
// the locations (thetas[i], phis[i]) — colatitude in [0, pi] and
// longitude in radians, the angles() convention of the serving layer.
// Locations with bit-equal colatitudes share one Legendre table.
func NewPointBatchEvaluator(L int, thetas, phis []float64) *PointBatchEvaluator {
	if L < 1 {
		panic(fmt.Sprintf("sht: invalid band limit %d", L))
	}
	if len(thetas) != len(phis) || len(thetas) == 0 {
		panic(fmt.Sprintf("sht: batch evaluator needs matching non-empty locations (got %d thetas, %d phis)",
			len(thetas), len(phis)))
	}
	e := &PointBatchEvaluator{L: L, locs: make([]batchLoc, len(thetas))}
	rec := legendre.SharedRecur(L)
	ringOf := make(map[float64]int, len(thetas))
	for i, theta := range thetas {
		ri, ok := ringOf[theta]
		if !ok {
			sinT, cosT := math.Sincos(theta)
			ri = len(e.rings)
			e.rings = append(e.rings, batchRing{theta: theta, leg: rec.Eval(cosT, sinT, nil)})
			ringOf[theta] = ri
		}
		// cos/sin(m phi) by the same stable recurrence NewPointEvaluator
		// uses, precomputed once so every step's per-location work is a
		// pure length-L accumulation with no trig.
		cosM := make([]float64, L)
		sinM := make([]float64, L)
		sinP, cosP := math.Sincos(phis[i])
		cm, sm := 1.0, 0.0
		for m := 0; m < L; m++ {
			cosM[m], sinM[m] = cm, sm
			cm, sm = cm*cosP-sm*sinP, sm*cosP+cm*sinP
		}
		e.locs[i] = batchLoc{ring: ri, cosM: cosM, sinM: sinM}
	}
	e.fm = make([]complex128, len(e.rings)*L)
	return e
}

// Locations returns the number of evaluation locations.
func (e *PointBatchEvaluator) Locations() int { return len(e.locs) }

// Rings returns the number of distinct colatitudes the batch folds.
func (e *PointBatchEvaluator) Rings() int { return len(e.rings) }

// EvalPacked evaluates the field whose PackReal vector is packed
// (length L^2) at every location, writing values into dst (allocated
// when too small) in location order and returning it.
func (e *PointBatchEvaluator) EvalPacked(dst []float64, packed []float64) []float64 {
	if len(packed) != PackDim(e.L) {
		panic(fmt.Sprintf("sht: packed length %d does not match evaluator band limit %d", len(packed), e.L))
	}
	if !e.busy.CompareAndSwap(false, true) {
		panic("sht: concurrent Eval on a shared PointBatchEvaluator; use one evaluator per goroutine")
	}
	defer e.busy.Store(false)
	if cap(dst) < len(e.locs) {
		dst = make([]float64, len(e.locs))
	}
	dst = dst[:len(e.locs)]
	L := e.L
	inv := 1 / math.Sqrt2
	fm := e.fm
	for i := range fm {
		fm[i] = 0
	}
	// One coefficient sweep: row-major over degrees, accumulating every
	// ring's F(m) from the same (cache-hot) coefficient row.
	for l := 0; l < L; l++ {
		base := l * l
		tbase := legendre.Idx(l, 0)
		for ri := range e.rings {
			leg := e.rings[ri].leg[tbase : tbase+l+1]
			f := fm[ri*L : (ri+1)*L]
			f[0] += complex(packed[base]*leg[0], 0)
			for m := 1; m <= l; m++ {
				p := leg[m]
				f[m] += complex(packed[base+2*m-1]*inv*p, packed[base+2*m]*inv*p)
			}
		}
	}
	e.gather(dst)
	return dst
}

// gather evaluates every location from the folded ring spectra:
// f = Re F(0) + 2 sum_{m>=1} (Re F(m) cos(m phi) - Im F(m) sin(m phi)).
func (e *PointBatchEvaluator) gather(dst []float64) {
	L := e.L
	for i := range e.locs {
		loc := &e.locs[i]
		f := e.fm[loc.ring*L : (loc.ring+1)*L]
		sum := real(f[0])
		for m := 1; m < L; m++ {
			sum += 2 * (real(f[m])*loc.cosM[m] - imag(f[m])*loc.sinM[m])
		}
		dst[i] = sum
	}
}

// EvalSeriesPacked evaluates a series of packed steps at every
// location, returning one series per location (dst[p][t] for step
// index t). The evaluator's tables are built once and the fold scratch
// is reused across steps, so a T-step, P-location request costs T
// coefficient sweeps total — not P cursor passes and not P*T dots.
func (e *PointBatchEvaluator) EvalSeriesPacked(steps [][]float64) [][]float64 {
	out := make([][]float64, len(e.locs))
	for p := range out {
		out[p] = make([]float64, len(steps))
	}
	vals := make([]float64, len(e.locs))
	for t, packed := range steps {
		vals = e.EvalPacked(vals, packed)
		for p, v := range vals {
			out[p][t] = v
		}
	}
	return out
}
