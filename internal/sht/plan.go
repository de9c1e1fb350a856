package sht

import (
	"fmt"
	"math"

	"exaclim/internal/fft"
	"exaclim/internal/legendre"
	"exaclim/internal/par"
	"exaclim/internal/sphere"
)

// Plan precomputes everything the transform needs for a fixed grid and
// band limit: the Wigner-Delta tables (shared across all time steps, the
// paper's Section III-A2 precomputation), the per-ring normalized
// Legendre tables for synthesis, FFT plans for both transform lengths,
// and the I(q) quadrature table.
//
// A Plan is safe for concurrent use by multiple goroutines: all
// precomputed state is read-only after construction and per-call scratch
// is allocated from per-worker pools.
type Plan struct {
	L    int
	Grid sphere.Grid

	delta    *legendre.Delta
	ringTab  [][]float64   // per-ring Legendre tables, triangular layout
	lonPlan  *fft.Plan     // length NLon (analysis ring stage)
	rlon     *fft.RealPlan // length NLon real-output inverse (synthesis ring stage)
	extPlan  *fft.Plan     // length 2*NLat-2
	iq       []complex128
	iqOffset int
	phase    [4]complex128 // i^-m by m mod 4
	workers  int

	// arena is the synthesis scratch pool, shared by pointer across
	// Sequential copies so every cursor derived from one plan reuses it.
	arena *synthArena
}

// Option configures a Plan.
type Option func(*Plan)

// WithWorkers bounds the number of goroutines used per transform call.
// The default (0) uses GOMAXPROCS.
func WithWorkers(n int) Option { return func(p *Plan) { p.workers = n } }

// NewPlan builds a transform plan. The grid must support the band limit
// exactly (NLat > L and NLon >= 2L-1); otherwise an error is returned.
func NewPlan(grid sphere.Grid, L int, opts ...Option) (*Plan, error) {
	if L < 1 {
		return nil, fmt.Errorf("sht: invalid band limit %d", L)
	}
	if !grid.SupportsBandLimit(L) {
		return nil, fmt.Errorf("sht: grid %v does not support band limit %d (need NLat > L and NLon >= 2L-1)", grid, L)
	}
	p := &Plan{L: L, Grid: grid}
	for _, o := range opts {
		o(p)
	}
	p.delta = legendre.NewDelta(L)
	colat := make([]float64, grid.NLat)
	for i := range colat {
		colat[i] = grid.Colatitude(i)
	}
	p.ringTab = legendre.RingTable(L, colat)
	p.lonPlan = fft.NewPlan(grid.NLon)
	p.rlon = fft.NewRealPlan(grid.NLon)
	p.extPlan = fft.NewPlan(2*grid.NLat - 2)

	// I(q) for q in [-(2L-2), 2L-2] (eq. 8).
	p.iqOffset = 2*L - 2
	p.iq = make([]complex128, 4*L-3)
	for q := -(2*L - 2); q <= 2*L-2; q++ {
		var v complex128
		if q%2 == 0 {
			v = complex(2/(1-float64(q)*float64(q)), 0)
		} else if q == 1 {
			v = complex(0, math.Pi/2)
		} else if q == -1 {
			v = complex(0, -math.Pi/2)
		}
		p.iq[q+p.iqOffset] = v
	}
	p.phase = [4]complex128{1, complex(0, -1), -1, complex(0, 1)}
	p.arena = newSynthArena()
	return p, nil
}

// Sequential returns a plan that shares this plan's precomputed tables
// but runs every transform on the calling goroutine alone. Use it when an
// outer loop (ensemble members, flattened time steps) already saturates
// the CPU and per-call fan-out would only add scheduling overhead. The
// returned plan is as concurrency-safe as the receiver, and its results
// are bit-identical to the parallel plan's (each ring and order is
// computed independently, so scheduling never changes the arithmetic).
func (p *Plan) Sequential() *Plan {
	if p.workers == 1 {
		return p
	}
	q := *p
	q.workers = 1
	return &q
}

// MemoryBytes reports the size of the precomputed tables, dominated by
// the O(L^3) Delta storage the paper trades for per-step recomputation.
func (p *Plan) MemoryBytes() int64 {
	bytes := p.delta.Bytes()
	bytes += int64(len(p.ringTab)) * int64(legendre.TriSize(p.L)) * 8
	return bytes
}

// Analyze computes the forward SHT of a real field, returning coefficients
// for m >= 0. The field must live on the plan's grid.
func (p *Plan) Analyze(f sphere.Field) Coeffs {
	if f.Grid != p.Grid {
		panic(fmt.Sprintf("sht: field grid %v does not match plan grid %v", f.Grid, p.Grid))
	}
	L := p.L
	nlat, nlon := p.Grid.NLat, p.Grid.NLon
	next := 2*nlat - 2

	// Stage 1: FFT each ring to get G_m(theta_i) for m = 0..L-1.
	// gm[m*nlat + i] = G_m(theta_i); the (2pi/NLon) factor turns the DFT
	// into the integral of eq. (4), exactly for band-limited data.
	gm := make([]complex128, L*nlat)
	scaleLon := 2 * math.Pi / float64(nlon)
	par.ForN(p.workers, nlat, func(i int) {
		row := make([]complex128, nlon)
		ring := f.Ring(i)
		for j, v := range ring {
			row[j] = complex(v, 0)
		}
		p.lonPlan.Clone().Forward(row, row)
		for m := 0; m < L; m++ {
			gm[m*nlat+i] = row[m] * complex(scaleLon, 0)
		}
	})

	// Stage 2+3: per order m, extend along colatitude, FFT to K_{m,m'},
	// correlate with I(q) to get W_m(m'') (inner sum of eq. 7), and fold
	// positive/negative m'' with the Delta symmetry signs.
	//
	// folded[m*(L)+mpp] = W_m(mpp) + (-1)^m W_m(-mpp) for mpp >= 1, and
	// folded[m*L+0] = W_m(0).
	folded := make([]complex128, L*L)
	par.ForN(p.workers, L, func(m int) {
		ext := make([]complex128, next)
		for i := 0; i < nlat; i++ {
			ext[i] = gm[m*nlat+i]
		}
		sign := complex(1, 0)
		if m&1 == 1 {
			sign = -1
		}
		for i := nlat; i < next; i++ {
			ext[i] = sign * ext[next-i]
		}
		p.extPlan.Clone().Forward(ext, ext)
		// K_{m,m'} = ext-FFT / next, index m' mod next.
		kscale := complex(1/float64(next), 0)
		kAt := func(mp int) complex128 {
			idx := mp % next
			if idx < 0 {
				idx += next
			}
			return ext[idx] * kscale
		}
		// W_m(mpp) = sum_{m'} K_{m,m'} I(m'+mpp).
		w := func(mpp int) complex128 {
			var sum complex128
			for mp := -(L - 1); mp <= L-1; mp++ {
				iv := p.iq[mp+mpp+p.iqOffset]
				if iv != 0 {
					sum += kAt(mp) * iv
				}
			}
			return sum
		}
		base := m * L
		folded[base] = w(0)
		for mpp := 1; mpp < L; mpp++ {
			wp := w(mpp)
			wn := w(-mpp)
			if m&1 == 1 {
				folded[base+mpp] = wp - wn
			} else {
				folded[base+mpp] = wp + wn
			}
		}
	})

	// Stage 4: z_{lm} = i^-m sqrt((2l+1)/4pi) sum_{mpp>=0} Delta_{mpp,0}
	// Delta_{mpp,m} folded_m(mpp), skipping mpp of the wrong parity
	// (Delta_{mpp,0} = 0 when l-mpp is odd).
	out := NewCoeffs(L)
	par.ForN(p.workers, L, func(l int) {
		tbl := p.delta.Table(l)
		stride := l + 1
		norm := math.Sqrt(float64(2*l+1) / (4 * math.Pi))
		for m := 0; m <= l; m++ {
			var sum complex128
			start := l & 1 // Delta_{mpp,0} vanishes unless mpp = l (mod 2)
			for mpp := start; mpp <= l; mpp += 2 {
				d := tbl[mpp*stride] * tbl[mpp*stride+m]
				if d != 0 {
					sum += complex(d, 0) * folded[m*L+mpp]
				}
			}
			out.C[legendre.Idx(l, m)] = sum * complex(norm, 0) * p.phase[m&3]
		}
	})
	return out
}

// Synthesize evaluates the band-limited field from its coefficients on
// the plan's grid (inverse SHT). This is the emulator's "generate
// emulations" step and is exact for any grid, including finer ones.
func (p *Plan) Synthesize(c Coeffs) sphere.Field {
	if c.L != p.L {
		panic(fmt.Sprintf("sht: coefficient band limit %d does not match plan %d", c.L, p.L))
	}
	out := sphere.NewField(p.Grid)
	p.SynthesizeInto(out, c)
	return out
}

// SynthesizeInto writes the synthesis into an existing field on the
// plan's grid, avoiding allocation in time-stepping loops.
//
// The kernel (version SynthKernelVersion) halves both stages by
// symmetry and fans ring blocks out over a bounded worker pool:
//
//   - The per-ring degree fold F_i(m) = sum_l z_{lm} Ptilde_l^m(cos
//     theta_i) runs over equator-mirrored ring PAIRS: the colatitudes
//     satisfy theta_{nlat-1-i} = pi - theta_i and Ptilde_l^m(-x) =
//     (-1)^(l+m) Ptilde_l^m(x), so one sweep of ring i's Legendre table
//     folds both rings of the pair into even- and odd-parity sums with
//     F_north = even+odd, F_south = even-odd. Half the table bandwidth
//     of the dominant loop.
//   - Each ring's longitude stage consumes only the non-redundant half
//     spectrum through a half-size real-output rFFT (fft.RealPlan),
//     roughly halving the FFT stage relative to the retired full
//     complex transform.
//
// Pairs are processed in cache-blocked groups of synthBlock pairs with
// the fold sweeping the coefficient table row-major (l outer, m inner).
// Blocks fan out via par.ForNWorker with per-worker scratch from the
// plan's pooled arena; every pair writes disjoint output rings with its
// own accumulators, so the output is bit-identical for every worker
// count and block size (pinned by TestSynthesizeParallelDeterministic). Against the retired
// reference loop the parity fold regroups sums, so agreement is <=
// 1e-12 relative rather than bit-exact — the kernel-version-2 contract
// (TestSynthesizeBlockedMatchesReference).
func (p *Plan) SynthesizeInto(dst sphere.Field, c Coeffs) {
	if dst.Grid != p.Grid {
		panic(fmt.Sprintf("sht: destination grid %v does not match plan grid %v", dst.Grid, p.Grid))
	}
	if c.L != p.L {
		panic(fmt.Sprintf("sht: coefficient band limit %d does not match plan %d", c.L, p.L))
	}
	p.synthesizeBlocked(dst, c, synthBlock)
}

// synthesizeBlocked is SynthesizeInto with pair blocks of the given
// size; tests sweep it to pin block-size invariance.
func (p *Plan) synthesizeBlocked(dst sphere.Field, c Coeffs, block int) {
	nPairs := (p.Grid.NLat + 1) / 2
	nBlocks := (nPairs + block - 1) / block
	scratch := p.arena.take(par.SpanWorkers(p.workers, nBlocks))
	defer p.arena.release(scratch)
	par.ForNWorker(p.workers, nBlocks, func(g, bi int) {
		p0 := bi * block
		p1 := min(p0+block, nPairs)
		p.synthPairs(dst, c, scratch[g], p0, p1)
	})
}

// synthPairs folds and synthesizes the equator-mirrored ring pairs
// [p0, p1) into dst using one worker's scratch.
func (p *Plan) synthPairs(dst sphere.Field, c Coeffs, sc *synthScratch, p0, p1 int) {
	L := p.L
	nlat, nlon := p.Grid.NLat, p.Grid.NLon
	// Two accumulator rows per pair: fm[2k] holds the even-parity (l+m
	// even) sums of pair p0+k, fm[2k+1] the odd-parity sums.
	fm := sc.accum(2*(p1-p0), L)
	for l := 0; l < L; l++ {
		base := legendre.Idx(l, 0)
		row := c.C[base : base+l+1]
		for pi := p0; pi < p1; pi++ {
			tbl := p.ringTab[pi][base : base+l+1]
			even, odd := fm[2*(pi-p0)], fm[2*(pi-p0)+1]
			if l&1 == 1 {
				even, odd = odd, even // m even => l+m odd
			}
			for m := 0; m <= l; m += 2 {
				even[m] += row[m] * complex(tbl[m], 0)
			}
			for m := 1; m <= l; m += 2 {
				odd[m] += row[m] * complex(tbl[m], 0)
			}
		}
	}
	rp, spec := sc.ring(p)
	// Pre-scale the half spectrum by nlon instead of post-scaling the
	// output row: the spectrum has L live entries, the row nlon.
	scale := complex(float64(nlon), 0)
	for pi := p0; pi < p1; pi++ {
		fe, fo := fm[2*(pi-p0)], fm[2*(pi-p0)+1]
		north := dst.Ring(pi)
		si := nlat - 1 - pi
		if si == pi {
			// Odd nlat: the equator ring is its own mirror.
			spec[0] = complex(real(fe[0])+real(fo[0]), 0) * scale
			for m := 1; m < L; m++ {
				// The m >= L tail of spec is permanently zero; the rFFT
				// completes the conjugate half itself (the ring spectrum of
				// a real field satisfies spec[-m] = conj(spec[m]), from
				// z_{l,-m} = (-1)^m conj(z_{lm}) and Ptilde_l^{-m} =
				// (-1)^m Ptilde_l^m).
				spec[m] = (fe[m] + fo[m]) * scale
			}
			rp.Inverse(north, spec)
			continue
		}
		south := dst.Ring(si)
		spec[0] = complex(real(fe[0])+real(fo[0]), 0) * scale
		for m := 1; m < L; m++ {
			spec[m] = (fe[m] + fo[m]) * scale
		}
		rp.Inverse(north, spec)
		spec[0] = complex(real(fe[0])-real(fo[0]), 0) * scale
		for m := 1; m < L; m++ {
			spec[m] = (fe[m] - fo[m]) * scale
		}
		rp.Inverse(south, spec)
	}
}

// synthBlock is the pair-block size of blocked synthesis: small enough
// that a block's fold accumulators (two parity rows per pair) stay
// L1-resident, large enough to amortize the coefficient stream across
// ring pairs. Pair blocks of 4 to 32 ran within noise of each other at
// L = 16, 32 and 64, 16 with the lowest or a tied median; every block
// size computes bit-identical results, so it moves time, never output.
const synthBlock = 16

// SynthBlock reports the pair-block size blocked synthesis runs with.
// Observability surfaces (trace span attributes) use it to record which
// tile a synthesis executed under.
func (p *Plan) SynthBlock() int { return synthBlock }

// AnalyzeSeries analyzes a batch of fields in parallel and returns the
// real-packed coefficient vectors (each of length L^2), the layout the
// VAR stage consumes. Fields must all live on the plan's grid.
func (p *Plan) AnalyzeSeries(fields []sphere.Field) [][]float64 {
	out := make([][]float64, len(fields))
	// Parallelism lives inside Analyze; the loop stays sequential to
	// bound peak memory at O(L^2) scratch regardless of series length.
	for t, f := range fields {
		out[t] = p.Analyze(f).PackReal(nil)
	}
	return out
}
