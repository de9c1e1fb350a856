package sht

import (
	"math"
	"math/rand"
	"testing"

	"exaclim/internal/legendre"
	"exaclim/internal/sphere"
)

// referenceSynthesizeInto is the retired m-outer synthesis loop with a
// full complex FFT per ring, kept verbatim as the numerical oracle for
// SynthesizeInto. Through kernel version 1 the blocked kernel was
// pinned bit-identical to this loop; version 2's parity-paired fold
// regroups the degree sums (the southern-ring Legendre tables are
// computed independently, not mirrored), so the contract is now
// agreement to <= 1e-12 relative — see SynthKernelVersion.
func referenceSynthesizeInto(p *Plan, dst sphere.Field, c Coeffs) {
	L := p.L
	nlat, nlon := p.Grid.NLat, p.Grid.NLon
	for i := 0; i < nlat; i++ {
		tbl := p.ringTab[i]
		spec := make([]complex128, nlon)
		for m := 0; m < L; m++ {
			var sum complex128
			for l := m; l < L; l++ {
				sum += c.C[legendre.Idx(l, m)] * complex(tbl[legendre.Idx(l, m)], 0)
			}
			if m == 0 {
				spec[0] = complex(real(sum), 0)
				continue
			}
			spec[m] = sum
			spec[nlon-m] = complex(real(sum), -imag(sum))
		}
		p.lonPlan.Clone().Inverse(spec, spec)
		ring := dst.Ring(i)
		for j := range ring {
			ring[j] = real(spec[j]) * float64(nlon)
		}
	}
}

// TestSynthesizeBlockedMatchesReference pins the kernel's numerical
// contract (unchanged since version 2): for every block size — including
// 1 (pair-at-a-time), sizes that straddle the pair count, sizes larger
// than it, and the production synthBlock — the parity-paired rFFT synthesis agrees with the
// retired full-FFT m-outer loop to <= 1e-12 relative, on both the
// minimal grid (even nlon, poles included) and an oversampled grid with
// odd nlat (equator ring is its own mirror) and odd nlon (rFFT
// fallback), down to L=1.
func TestSynthesizeBlockedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, L := range []int{1, 3, 16, 33} {
		for _, oversample := range []bool{false, true} {
			grid := sphere.GridForBandLimit(L)
			if oversample {
				grid = sphere.NewGrid(2*L+5, 4*L+3)
			}
			want := sphere.NewField(grid)
			c := randomCoeffs(rng, L)
			{
				ref, err := NewPlan(grid, L)
				if err != nil {
					t.Fatal(err)
				}
				referenceSynthesizeInto(ref, want, c)
			}
			scale := fieldScale(want)
			p, err := NewPlan(grid, L, WithWorkers(2))
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range []int{1, 2, 5, 8, synthBlock, 32, grid.NLat + 7} {
				got := sphere.NewField(grid)
				p.synthesizeBlocked(got, c, b)
				for i := range got.Data {
					if d := math.Abs(got.Data[i] - want.Data[i]); d > 1e-12*scale {
						t.Fatalf("L=%d grid=%v block=%d: pixel %d blocked=%g reference=%g (|Δ|=%g, scale %g)",
							L, grid, b, i, got.Data[i], want.Data[i], d, scale)
					}
				}
			}
		}
	}
}

// TestSynthesizeCalibratedMatchesReference runs the production path
// (SynthesizeInto, no forced block) once, so the configuration that
// serves requests is itself pinned against the reference: it must be
// the fixed synthBlock kernel bit for bit, and agree with the retired
// m-outer loop to <= 1e-12 relative.
func TestSynthesizeCalibratedMatchesReference(t *testing.T) {
	const L = 16
	grid := sphere.GridForBandLimit(L)
	p, err := NewPlan(grid, L)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(22))
	c := randomCoeffs(rng, L)
	got := sphere.NewField(grid)
	p.SynthesizeInto(got, c)
	if b := p.SynthBlock(); b != synthBlock {
		t.Fatalf("SynthBlock() = %d, want the fixed block %d", b, synthBlock)
	}
	blocked := sphere.NewField(grid)
	p.synthesizeBlocked(blocked, c, synthBlock)
	want := sphere.NewField(grid)
	referenceSynthesizeInto(p, want, c)
	scale := fieldScale(want)
	for i := range got.Data {
		if got.Data[i] != blocked.Data[i] {
			t.Fatalf("pixel %d: SynthesizeInto %x != synthesizeBlocked(%d) %x",
				i, math.Float64bits(got.Data[i]), synthBlock, math.Float64bits(blocked.Data[i]))
		}
		if d := math.Abs(got.Data[i] - want.Data[i]); d > 1e-12*scale {
			t.Fatalf("block %d: pixel %d differs by %g (scale %g)", synthBlock, i, d, scale)
		}
	}
}

// TestSynthesizeParallelDeterministic pins the worker-count invariant
// of the parallel kernel: every ring pair is folded with its own
// accumulators and written to disjoint output rings, so the output must
// be bit-identical across worker counts {1, 2, 4} — not merely close.
func TestSynthesizeParallelDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, L := range []int{1, 16, 33} {
		for _, oversample := range []bool{false, true} {
			grid := sphere.GridForBandLimit(L)
			if oversample {
				grid = sphere.NewGrid(2*L+5, 4*L+3)
			}
			c := randomCoeffs(rng, L)
			var base sphere.Field
			for _, workers := range []int{1, 2, 4} {
				p, err := NewPlan(grid, L, WithWorkers(workers))
				if err != nil {
					t.Fatal(err)
				}
				got := sphere.NewField(grid)
				p.synthesizeBlocked(got, c, 2) // several blocks even at small L
				if workers == 1 {
					base = got
					continue
				}
				for i := range got.Data {
					if got.Data[i] != base.Data[i] {
						t.Fatalf("L=%d grid=%v workers=%d: pixel %d %x != serial %x",
							L, grid, workers, i, math.Float64bits(got.Data[i]), math.Float64bits(base.Data[i]))
					}
				}
			}
		}
	}
}

// TestRingEvaluatorConcurrentSetPanics pins the non-concurrent
// contract: a Set call that observes another in flight must panic
// instead of silently corrupting the fold.
func TestRingEvaluatorConcurrentSetPanics(t *testing.T) {
	const L = 4
	ev := NewRingEvaluator(L, 1.0)
	packed := make([]float64, PackDim(L))
	ev.busy.Store(true) // simulate a Set in flight on another goroutine
	defer func() {
		if recover() == nil {
			t.Fatal("concurrent SetPacked did not panic")
		}
	}()
	ev.SetPacked(packed)
}

// TestEvalPointAllocates pins the pooled one-shot path: in steady state
// EvalPoint performs no allocations per call.
func TestEvalPointAllocates(t *testing.T) {
	const L = 16
	rng := rand.New(rand.NewSource(25))
	c := randomCoeffs(rng, L)
	EvalPoint(c, 0.7, 1.3) // warm the pool and the shared recursion
	allocs := testing.AllocsPerRun(20, func() {
		EvalPoint(c, 0.7, 1.3)
	})
	if allocs > 0 {
		t.Fatalf("EvalPoint allocates %.1f objects per call; want 0", allocs)
	}
}

// BenchmarkSHT_BlockedSynthesize measures the blocked synthesis kernel
// against the historical m-outer reference loop at serving resolution
// (L=64). Tracked by the CI bench-trend comparison.
func BenchmarkSHT_BlockedSynthesize(b *testing.B) {
	const L = 64
	p := benchPlan(b, L)
	p = p.Sequential() // isolate the kernel from goroutine fan-out
	rng := rand.New(rand.NewSource(41))
	c := randomCoeffs(rng, L)
	f := sphere.NewField(p.Grid)
	b.Run("blocked", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p.SynthesizeInto(f, c)
		}
	})
	b.Run("ref", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			referenceSynthesizeInto(p, f, c)
		}
	})
}

// BenchmarkSHT_ParallelSynthesize measures the worker fan-out of the
// synthesis kernel at serving resolution: serial vs a 4-worker pool on
// the same plan tables. On a >= 4-core host the workers sub-benchmark
// should run >= 2x the serial one; on a 1-core box (the CI runner) the
// pool collapses to goroutine-scheduling overhead and must stay within
// 10% of serial. Tracked by the CI bench-trend comparison.
func BenchmarkSHT_ParallelSynthesize(b *testing.B) {
	const L = 64
	p := benchPlan(b, L)
	rng := rand.New(rand.NewSource(43))
	c := randomCoeffs(rng, L)
	f := sphere.NewField(p.Grid)
	serial := p.Sequential()
	par4, err := NewPlan(p.Grid, L, WithWorkers(4))
	if err != nil {
		b.Fatal(err)
	}
	par4.arena = p.arena
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			serial.SynthesizeInto(f, c)
		}
	})
	b.Run("workers4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			par4.SynthesizeInto(f, c)
		}
	})
}

// BenchmarkSHT_RFFT isolates the longitude ring stage at serving
// resolution (L=64, nlon=128): the retired full complex transform with
// Hermitian completion per ring vs the half-spectrum rFFT the kernel
// now runs. Tracked by the CI bench-trend comparison.
func BenchmarkSHT_RFFT(b *testing.B) {
	const L = 64
	p := benchPlan(b, L)
	nlat, nlon := p.Grid.NLat, p.Grid.NLon
	rng := rand.New(rand.NewSource(44))
	f := make([]complex128, L)
	for m := range f {
		f[m] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	f[0] = complex(real(f[0]), 0)
	out := make([]float64, nlon)
	b.Run("full", func(b *testing.B) {
		spec := make([]complex128, nlon)
		freq := make([]complex128, nlon)
		lon := p.lonPlan.Clone()
		for i := 0; i < b.N; i++ {
			for ri := 0; ri < nlat; ri++ {
				spec[0] = complex(real(f[0]), 0)
				for m := 1; m < L; m++ {
					spec[m] = f[m]
					spec[nlon-m] = complex(real(f[m]), -imag(f[m]))
				}
				lon.Inverse(freq, spec)
				for j := range out {
					out[j] = real(freq[j]) * float64(nlon)
				}
			}
		}
	})
	b.Run("rfft", func(b *testing.B) {
		rp := p.rlon.Clone()
		spec := make([]complex128, rp.SpecLen())
		scale := complex(float64(nlon), 0)
		for i := 0; i < b.N; i++ {
			for ri := 0; ri < nlat; ri++ {
				spec[0] = complex(real(f[0]), 0) * scale
				for m := 1; m < L; m++ {
					spec[m] = f[m] * scale
				}
				rp.Inverse(out, spec)
			}
		}
	})
}
