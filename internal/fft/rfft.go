package fft

import (
	"fmt"
	"math"
)

// RealPlan computes inverse transforms whose output is real, consuming
// only the non-redundant half of the Hermitian spectrum. For even n it
// runs a single complex transform of length n/2 — the classic two-for-one
// split: the half spectrum is repacked into the spectrum of the
// interleaved sequence z[j] = x[2j] + i*x[2j+1], one length-n/2 inverse
// recovers z, and the real output falls out by de-interleaving. Odd
// lengths fall back to the full complex plan (they cannot split), so
// callers never need a parity check.
//
// Like Plan, a RealPlan amortizes all trigonometric work and is not safe
// for concurrent use; clone one per goroutine with Clone. Clones share
// the immutable twiddle tables and carry only fresh scratch.
type RealPlan struct {
	n    int
	half *Plan        // length n/2 inverse engine (even n)
	full *Plan        // full-length fallback (odd n)
	w    []complex128 // i*exp(+2*pi*i*k/n), k = 0..n/2-1 (even n)
	spec []complex128 // scratch: repacked spectrum, length SpecLen-1 or n
}

// NewRealPlan prepares an inverse real transform of length n.
func NewRealPlan(n int) *RealPlan {
	if n <= 0 {
		panic(fmt.Sprintf("fft: invalid real transform length %d", n))
	}
	p := &RealPlan{n: n}
	if n%2 != 0 {
		p.full = NewPlan(n)
		p.spec = make([]complex128, n)
		return p
	}
	h := n / 2
	p.half = NewPlan(h)
	p.w = make([]complex128, h)
	for k := range p.w {
		s, c := math.Sincos(2 * math.Pi * float64(k) / float64(n))
		p.w[k] = complex(-s, c) // i * (c + i*s)
	}
	p.spec = make([]complex128, h)
	return p
}

// Len returns the real output length n.
func (p *RealPlan) Len() int { return p.n }

// SpecLen returns the half-spectrum length n/2+1: the number of
// independent Hermitian coefficients X[0..n/2] the caller must supply to
// Inverse. (For odd n the last entry is the conjugate-symmetric midpoint
// partner and is still consumed.)
func (p *RealPlan) SpecLen() int { return p.n/2 + 1 }

// Clone returns an independent plan sharing the immutable twiddle tables
// but carrying its own scratch, for concurrent use from another
// goroutine.
func (p *RealPlan) Clone() *RealPlan {
	q := *p
	if p.half != nil {
		q.half = p.half.Clone()
	}
	if p.full != nil {
		q.full = p.full.Clone()
	}
	q.spec = make([]complex128, len(p.spec))
	return &q
}

// Inverse computes the length-n inverse transform of the Hermitian
// spectrum given by its non-redundant half, writing the real output into
// dst:
//
//	dst[j] = (1/n) * sum_k X[k] exp(+2*pi*i*j*k/n)
//
// where X[k] = spec[k] for k <= n/2 and X[n-k] = conj(spec[k]) for the
// mirrored half. The normalization matches Plan.Inverse. spec must have
// length SpecLen() and dst length Len(); spec is not modified. For the
// output to be exactly the real sequence implied, spec[0] (and, for even
// n, spec[n/2]) should carry zero imaginary part; any imaginary residue
// there is dropped.
func (p *RealPlan) Inverse(dst []float64, spec []complex128) {
	if len(dst) != p.n || len(spec) != p.SpecLen() {
		panic(fmt.Sprintf("fft: real inverse size mismatch: dst %d spec %d want %d/%d",
			len(dst), len(spec), p.n, p.SpecLen()))
	}
	if p.full != nil {
		// Odd length: complete the conjugate half and run the full plan.
		n := p.n
		z := p.spec
		z[0] = complex(real(spec[0]), 0)
		for k := 1; k <= n/2; k++ {
			z[k] = spec[k]
			z[n-k] = complex(real(spec[k]), -imag(spec[k]))
		}
		p.full.Inverse(z, z)
		for j := 0; j < n; j++ {
			dst[j] = real(z[j])
		}
		return
	}
	// Repack X[0..h] into the length-h spectrum of the interleaved
	// sequence — Z[k] = (X[k] + conj(X[h-k])) + i*w[k]*(X[k] -
	// conj(X[h-k])) — and invert it in place. The inverse of Z is u[j] =
	// x[2j]/2 + i*x[2j+1]/2 under the 1/h normalization of the half
	// plan, hence the halving in the de-interleave.
	h := p.n / 2
	z := p.spec
	for k := 0; k < h; k++ {
		a := spec[k]
		b := complex(real(spec[h-k]), -imag(spec[h-k]))
		z[k] = (a + b) + p.w[k]*(a-b)
	}
	p.half.Inverse(z, z)
	for j := 0; j < h; j++ {
		dst[2*j] = real(z[j]) * 0.5
		dst[2*j+1] = imag(z[j]) * 0.5
	}
}
