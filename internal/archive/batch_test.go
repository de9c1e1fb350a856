package archive

import (
	"math"
	"sync"
	"testing"

	"exaclim/internal/half"
	"exaclim/internal/sphere"
	"exaclim/internal/tile"
)

// mixedBands is the three-precision layout the decode tests must cover:
// every branch of decodeStep, including the FP16 lookup table.
func mixedBands(L int) []Band {
	return []Band{{0, 2, tile.FP64}, {2, L / 2, tile.FP32}, {L / 2, L, tile.FP16}}
}

// TestFP16TableExact pins the lookup table against the arithmetic
// conversion for every one of the 65536 float16 bit patterns — the
// invariant that makes table decode exact.
func TestFP16TableExact(t *testing.T) {
	tab := fp16Table()
	if len(tab) != 1<<16 {
		t.Fatalf("table has %d entries, want %d", len(tab), 1<<16)
	}
	for i := 0; i < 1<<16; i++ {
		want := half.Float16(uint16(i)).Float64()
		if math.Float64bits(tab[i]) != math.Float64bits(want) {
			t.Fatalf("bits %#04x: table %v (%x) != conversion %v (%x)",
				i, tab[i], math.Float64bits(tab[i]), want, math.Float64bits(want))
		}
	}
}

// TestReadPackedRangeMatchesReadPacked pins the cursor's chunk walk
// against Reader.ReadPacked, which reads through the reader's own shard
// cache, bit for bit, over ranges that cover chunk interiors, chunk
// boundaries, the short final chunk, single steps and the empty range,
// on a mixed FP64/FP32/FP16 band layout.
func TestReadPackedRangeMatchesReadPacked(t *testing.T) {
	const L = 8
	r, h, _ := openTestArchive(t, L, mixedBands(L))
	want := make([][]float64, h.Steps)
	for tt := 0; tt < h.Steps; tt++ {
		var err error
		want[tt], err = r.ReadPacked(1, 0, tt, nil)
		if err != nil {
			t.Fatal(err)
		}
	}
	// Steps=7, ChunkSteps=3: [0,7) crosses all three chunks, [1,5) both
	// boundaries mid-chunk, [6,7) is the short final chunk alone.
	for _, rg := range [][2]int{{0, 7}, {1, 5}, {3, 6}, {6, 7}, {4, 5}, {2, 2}} {
		s, err := r.Series(1, 0)
		if err != nil {
			t.Fatal(err)
		}
		seen := rg[0]
		err = s.ReadPackedRange(rg[0], rg[1], func(tt int, packed []float64) error {
			if tt != seen {
				t.Fatalf("range %v: got step %d, want %d", rg, tt, seen)
			}
			seen++
			for i := range packed {
				if math.Float64bits(packed[i]) != math.Float64bits(want[tt][i]) {
					t.Fatalf("range %v step %d coeff %d: batch %x != per-step %x",
						rg, tt, i, math.Float64bits(packed[i]), math.Float64bits(want[tt][i]))
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if seen != rg[1] {
			t.Fatalf("range %v: visited up to %d", rg, seen)
		}
	}
	// A warm cursor alternating between per-step and range reads stays
	// consistent (shared chunk cache state).
	s, err := r.Series(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadPacked(4, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.ReadPackedRange(3, 6, func(tt int, packed []float64) error {
		for i := range packed {
			if packed[i] != want[tt][i] {
				t.Fatalf("warm cursor step %d coeff %d differs", tt, i)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestReadPackedRangeErrors pins the error contract: inverted and
// out-of-bounds ranges fail up front, and an fn error stops the walk.
func TestReadPackedRangeErrors(t *testing.T) {
	const L = 8
	r, h, _ := openTestArchive(t, L, mixedBands(L))
	s, err := r.Series(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ReadPackedRange(3, 2, nil); err == nil {
		t.Fatal("inverted range did not error")
	}
	if err := s.ReadPackedRange(-1, 2, nil); err == nil {
		t.Fatal("negative start did not error")
	}
	if err := s.ReadPackedRange(0, h.Steps+1, nil); err == nil {
		t.Fatal("past-the-end range did not error")
	}
	calls := 0
	errStop := errTest("stop")
	if err := s.ReadPackedRange(0, h.Steps, func(tt int, _ []float64) error {
		calls++
		if tt == 2 {
			return errStop
		}
		return nil
	}); err != errStop {
		t.Fatalf("fn error not propagated: %v", err)
	}
	if calls != 3 {
		t.Fatalf("fn called %d times after early stop, want 3", calls)
	}
}

type errTest string

func (e errTest) Error() string { return string(e) }

// TestReadPackedRangeObserves pins the amortization accounting: a full
// series walk loads each chunk once and reports one amortized decode
// per step beyond each chunk's first.
func TestReadPackedRangeObserves(t *testing.T) {
	const L = 8
	r, h, _ := openTestArchive(t, L, mixedBands(L))
	nop := func(int, []float64) error { return nil }
	for _, tc := range []struct {
		name                             string
		read                             func(s *Series) error
		misses, hits, decodes, amortized int64
	}{
		// Steps=7 in chunks of 3/3/1: three chunk loads, 7 decodes, and
		// (3-1)+(3-1)+(1-1) = 4 amortized steps.
		{"full", func(s *Series) error { return s.ReadPackedRange(0, h.Steps, nop) }, 3, 0, 7, 4},
		// A one-step range is one chunk lookup and one decode.
		{"one-step", func(s *Series) error { return s.ReadPackedRange(4, 5, nop) }, 1, 0, 1, 0},
		// ReadPacked is a one-step range: a second step of the same
		// chunk is a hit on the cursor's chunk.
		{"read-packed", func(s *Series) error {
			if _, err := s.ReadPacked(3, nil); err != nil {
				return err
			}
			_, err := s.ReadPacked(5, nil)
			return err
		}, 1, 1, 2, 0},
	} {
		s, err := r.Series(0, 1)
		if err != nil {
			t.Fatal(err)
		}
		sink := &countingSink{m: map[string]int64{}}
		s.SetObserver(sink)
		if err := tc.read(s); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := sink.get(MetricChunkMisses); got != tc.misses {
			t.Errorf("%s: chunk misses = %d, want %d", tc.name, got, tc.misses)
		}
		if got := sink.get(MetricChunkHits); got != tc.hits {
			t.Errorf("%s: chunk hits = %d, want %d", tc.name, got, tc.hits)
		}
		if got := sink.get(MetricStepDecodes); got != tc.decodes {
			t.Errorf("%s: step decodes = %d, want %d", tc.name, got, tc.decodes)
		}
		if got := sink.get(MetricChunkAmortized); got != tc.amortized {
			t.Errorf("%s: chunk amortized = %d, want %d", tc.name, got, tc.amortized)
		}
		if got := sink.get(MetricReadBytes); got <= 0 {
			t.Errorf("%s: read bytes = %d, want > 0", tc.name, got)
		}
	}
}

// TestSeriesEachFieldMatchesReadFieldInto pins the batched field replay
// against per-step synthesis: same plan tables, same decode values, so
// the fields must be bit-identical.
func TestSeriesEachFieldMatchesReadFieldInto(t *testing.T) {
	const L = 8
	r, h, _ := openTestArchive(t, L, mixedBands(L))
	ref, err := r.Series(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]sphere.Field, h.Steps)
	for tt := 0; tt < h.Steps; tt++ {
		want[tt] = sphere.NewField(h.Grid)
		if err := ref.ReadFieldInto(want[tt], tt); err != nil {
			t.Fatal(err)
		}
	}
	s, err := r.Series(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	if err := s.EachField(0, h.Steps, func(tt int, f sphere.Field) error {
		steps++
		for i := range f.Data {
			if math.Float64bits(f.Data[i]) != math.Float64bits(want[tt].Data[i]) {
				t.Fatalf("step %d pixel %d: batched field differs", tt, i)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if steps != h.Steps {
		t.Fatalf("visited %d steps, want %d", steps, h.Steps)
	}
}

// TestReadPackedRangeConcurrent is the -race hammer: many goroutines
// walk the same series through independent cursors — batch ranges,
// per-step cursor reads, and shared-shard Reader reads — all of which
// must agree byte for byte with no data races.
func TestReadPackedRangeConcurrent(t *testing.T) {
	const L = 8
	r, h, _ := openTestArchive(t, L, mixedBands(L))
	ref, err := r.Series(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]float64, h.Steps)
	for tt := 0; tt < h.Steps; tt++ {
		want[tt], err = ref.ReadPacked(tt, nil)
		if err != nil {
			t.Fatal(err)
		}
	}
	const goroutines = 12
	const rounds = 20
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			check := func(tt int, packed []float64) error {
				for i := range packed {
					if math.Float64bits(packed[i]) != math.Float64bits(want[tt][i]) {
						t.Errorf("goroutine %d step %d coeff %d differs", g, tt, i)
					}
				}
				return nil
			}
			switch g % 3 {
			case 0: // batched range walks on a private cursor
				s, err := r.Series(0, 0)
				if err != nil {
					errs[g] = err
					return
				}
				for i := 0; i < rounds; i++ {
					lo := (g + i) % h.Steps
					hi := h.Steps - (i % 2)
					if lo > hi {
						lo, hi = hi, lo
					}
					if err := s.ReadPackedRange(lo, hi, check); err != nil {
						errs[g] = err
						return
					}
				}
			case 1: // per-step reads on a private cursor
				s, err := r.Series(0, 0)
				if err != nil {
					errs[g] = err
					return
				}
				var buf []float64
				for i := 0; i < rounds; i++ {
					for tt := 0; tt < h.Steps; tt++ {
						buf, err = s.ReadPacked(tt, buf)
						if err != nil {
							errs[g] = err
							return
						}
						if err := check(tt, buf); err != nil {
							return
						}
					}
				}
			default: // shared-shard reader reads
				var buf []float64
				var err error
				for i := 0; i < rounds; i++ {
					for tt := h.Steps - 1; tt >= 0; tt-- {
						buf, err = r.ReadPacked(0, 0, tt, buf)
						if err != nil {
							errs[g] = err
							return
						}
						if err := check(tt, buf); err != nil {
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
}
