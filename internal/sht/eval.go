package sht

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"exaclim/internal/legendre"
)

// This file implements point-wise spectral evaluation: synthesizing a
// band-limited field at a single (theta, phi) location in O(L^2) work
// directly from its coefficients, instead of running the O(L^3)-ish full
// grid synthesis and indexing one pixel. It is the fast path under the
// serving subsystem's point and box queries, where a time-series request
// touches one location per step across thousands of steps.
//
// For a real field the sum over negative orders folds into the m >= 0
// coefficients (z_{l,-m} = (-1)^m conj(z_{lm}), Ptilde_l^{-m} = (-1)^m
// Ptilde_l^m), so
//
//	f(theta, phi) = sum_l Ptilde_l^0 Re z_{l0}
//	             + 2 sum_{l, m>=1} Ptilde_l^m (cos(m phi) Re z_{lm}
//	                                         - sin(m phi) Im z_{lm}).
//
// In the PackReal layout (which carries sqrt(2) on every m > 0
// component) that is exactly a dot product between the packed vector and
// a location-dependent weight vector — the form PointEvaluator
// precomputes, making each subsequent step a length-L^2 dot product on
// data that ReadPacked already delivers without any unpacking.

// PointEvaluator evaluates band-limited fields at one fixed location.
// Construction costs one Legendre recursion (O(L^2)); every Eval after
// that is a dot product with the packed coefficient vector. The zero
// value is not usable; build with NewPointEvaluator. An evaluator is
// immutable after construction and safe for concurrent use.
type PointEvaluator struct {
	L       int
	theta   float64
	phi     float64
	weights []float64 // len L^2, PackReal layout
}

// NewPointEvaluator builds an evaluator for band limit L at colatitude
// theta in [0, pi] and longitude phi (radians).
func NewPointEvaluator(L int, theta, phi float64) *PointEvaluator {
	if L < 1 {
		panic(fmt.Sprintf("sht: invalid band limit %d", L))
	}
	sinT, cosT := math.Sincos(theta)
	leg := legendre.SharedRecur(L).Eval(cosT, sinT, nil)

	// cos(m phi), sin(m phi) by stable complex recurrence.
	cosM := make([]float64, L)
	sinM := make([]float64, L)
	sinP, cosP := math.Sincos(phi)
	cm, sm := 1.0, 0.0 // m = 0
	for m := 0; m < L; m++ {
		cosM[m], sinM[m] = cm, sm
		cm, sm = cm*cosP-sm*sinP, sm*cosP+cm*sinP
	}

	w := make([]float64, PackDim(L))
	r2 := math.Sqrt2
	for l := 0; l < L; l++ {
		w[PackIndex(l, 0, 0)] = leg[legendre.Idx(l, 0)]
		for m := 1; m <= l; m++ {
			// The packed components already carry sqrt(2), so the factor
			// of 2 from folding negative orders becomes sqrt(2) here.
			p := r2 * leg[legendre.Idx(l, m)]
			w[PackIndex(l, m, 0)] = p * cosM[m]
			w[PackIndex(l, m, 1)] = -p * sinM[m]
		}
	}
	return &PointEvaluator{L: L, theta: theta, phi: phi, weights: w}
}

// EvalPacked evaluates the field whose PackReal vector is packed (length
// L^2) at the evaluator's location.
func (e *PointEvaluator) EvalPacked(packed []float64) float64 {
	if len(packed) != len(e.weights) {
		panic(fmt.Sprintf("sht: packed length %d does not match evaluator band limit %d", len(packed), e.L))
	}
	sum := 0.0
	for i, w := range e.weights {
		sum += w * packed[i]
	}
	return sum
}

// Eval evaluates coefficients c at the evaluator's location.
func (e *PointEvaluator) Eval(c Coeffs) float64 {
	if c.L != e.L {
		panic(fmt.Sprintf("sht: coefficient band limit %d does not match evaluator %d", c.L, e.L))
	}
	sum := 0.0
	for l := 0; l < e.L; l++ {
		sum += e.weights[PackIndex(l, 0, 0)] * real(c.C[legendre.Idx(l, 0)])
		for m := 1; m <= l; m++ {
			v := c.C[legendre.Idx(l, m)]
			// Undo the sqrt(2) the weights bake in for packed input.
			sum += math.Sqrt2 * (e.weights[PackIndex(l, m, 0)]*real(v) +
				e.weights[PackIndex(l, m, 1)]*imag(v))
		}
	}
	return sum
}

// epScratch is the pooled one-shot evaluation state: the Legendre table
// and trig recurrences EvalPoint needs, reused across calls so the
// one-shot path stops allocating O(L^2) per call.
type epScratch struct {
	leg        []float64
	cosM, sinM []float64
}

var evalPointScratch = sync.Pool{New: func() any { return &epScratch{} }}

// EvalPoint evaluates coefficients c at a single (theta, phi). For
// repeated evaluation at one location (time series) build a
// PointEvaluator once instead. Scratch is pooled, so the one-shot path
// allocates nothing in steady state; the arithmetic is exactly
// NewPointEvaluator + Eval with the weight products formed on the fly.
func EvalPoint(c Coeffs, theta, phi float64) float64 {
	L := c.L
	if L < 1 {
		panic(fmt.Sprintf("sht: invalid band limit %d", L))
	}
	sc := evalPointScratch.Get().(*epScratch)
	defer evalPointScratch.Put(sc)
	sinT, cosT := math.Sincos(theta)
	sc.leg = legendre.SharedRecur(L).Eval(cosT, sinT, sc.leg)
	if cap(sc.cosM) < L {
		sc.cosM = make([]float64, L)
		sc.sinM = make([]float64, L)
	}
	cosM, sinM := sc.cosM[:L], sc.sinM[:L]
	sinP, cosP := math.Sincos(phi)
	cm, sm := 1.0, 0.0 // m = 0
	for m := 0; m < L; m++ {
		cosM[m], sinM[m] = cm, sm
		cm, sm = cm*cosP-sm*sinP, sm*cosP+cm*sinP
	}
	r2 := math.Sqrt2
	sum := 0.0
	for l := 0; l < L; l++ {
		sum += sc.leg[legendre.Idx(l, 0)] * real(c.C[legendre.Idx(l, 0)])
		for m := 1; m <= l; m++ {
			v := c.C[legendre.Idx(l, m)]
			p := r2 * sc.leg[legendre.Idx(l, m)]
			sum += r2 * ((p*cosM[m])*real(v) + (-p*sinM[m])*imag(v))
		}
	}
	return sum
}

// RingEvaluator evaluates band-limited fields at many longitudes of one
// fixed colatitude — the building block of lat/lon box queries, where a
// box covers a handful of rings and a contiguous run of longitudes.
// SetPacked folds the degree sum once per field (O(L^2)); EvalLon is
// then O(L) per longitude.
//
// Concurrency contract: a RingEvaluator is a streaming scratch holder —
// SetPacked mutates the fold state that EvalLon reads, so
// an evaluator must never be shared across goroutines; use one per
// goroutine. Concurrent SetPacked calls are detected and panic rather than
// silently corrupting the fold (the EvalLon side of a race is not
// guarded: the guard exists to surface misuse, not to make sharing
// safe).
type RingEvaluator struct {
	L     int
	theta float64
	leg   []float64    // Legendre table at theta
	fm    []complex128 // F(m) = sum_l z_lm Ptilde_l^m for the current field
	busy  atomic.Bool  // trips the non-concurrent contract
}

// NewRingEvaluator builds a ring evaluator for band limit L at
// colatitude theta.
func NewRingEvaluator(L int, theta float64) *RingEvaluator {
	if L < 1 {
		panic(fmt.Sprintf("sht: invalid band limit %d", L))
	}
	sinT, cosT := math.Sincos(theta)
	return &RingEvaluator{
		L:     L,
		theta: theta,
		leg:   legendre.SharedRecur(L).Eval(cosT, sinT, nil),
		fm:    make([]complex128, L),
	}
}

// SetPacked folds the packed coefficient vector (length L^2) into the
// per-order ring spectrum F(m), after which EvalLon evaluates any
// longitude of this field in O(L). It mutates evaluator state: see the
// type's concurrency contract.
func (e *RingEvaluator) SetPacked(packed []float64) {
	if len(packed) != PackDim(e.L) {
		panic(fmt.Sprintf("sht: packed length %d does not match evaluator band limit %d", len(packed), e.L))
	}
	if !e.busy.CompareAndSwap(false, true) {
		panic("sht: concurrent SetPacked on a shared RingEvaluator; use one evaluator per goroutine")
	}
	defer e.busy.Store(false)
	inv := 1 / math.Sqrt2
	for m := range e.fm {
		e.fm[m] = 0
	}
	for l := 0; l < e.L; l++ {
		base := l * l
		e.fm[0] += complex(packed[base]*e.leg[legendre.Idx(l, 0)], 0)
		for m := 1; m <= l; m++ {
			p := e.leg[legendre.Idx(l, m)]
			e.fm[m] += complex(packed[base+2*m-1]*inv*p, packed[base+2*m]*inv*p)
		}
	}
}

// EvalLon evaluates the field set by SetPacked at longitude phi:
// f = Re F(0) + 2 sum_{m>=1} Re(F(m) e^{i m phi}).
func (e *RingEvaluator) EvalLon(phi float64) float64 {
	sinP, cosP := math.Sincos(phi)
	sum := real(e.fm[0])
	cm, sm := cosP, sinP // e^{i m phi} for m = 1
	for m := 1; m < e.L; m++ {
		f := e.fm[m]
		sum += 2 * (real(f)*cm - imag(f)*sm)
		cm, sm = cm*cosP-sm*sinP, sm*cosP+cm*sinP
	}
	return sum
}
