package archive

import (
	"fmt"

	"exaclim/internal/sht"
	"exaclim/internal/sphere"
)

// Chunk-granular batch decode: series queries (/v1/point, /v1/points,
// /v1/box) and replay cursors iterate many consecutive steps that live
// in the same archive chunk. ReadPackedRange walks a step range one
// chunk at a time — coordinate checks, chunk bookkeeping and metric
// events amortize to once per chunk instead of once per step. It is the
// cursor's only chunk walk: Series.ReadPacked is a one-step range.

// ReadPackedRange decodes steps [t0, t1) in ascending order, calling fn
// with each step's packed coefficient vector. Consecutive steps of one
// chunk are served from a single chunk load with per-chunk (not
// per-step) bookkeeping, so a same-chunk range is substantially cheaper
// than t1-t0 ReadPacked calls.
//
// Unlike ReadPacked, the vector passed to fn is cursor-owned scratch,
// valid only for the duration of the call — copy it to retain it. A
// non-nil error from fn stops the walk and is returned. An empty range
// (t0 == t1) is a no-op.
//
// Metrics: MetricStepDecodes and MetricChunkHits/Misses count as for
// per-step reads, and every step beyond a chunk's first adds to
// MetricChunkAmortized — the count of decodes that skipped per-step
// chunk lookups because a batched walk kept the chunk in hand.
func (s *Series) ReadPackedRange(t0, t1 int, fn func(t int, packed []float64) error) error {
	if t0 == t1 {
		return nil
	}
	if t1 < t0 {
		return fmt.Errorf("archive: invalid step range [%d, %d)", t0, t1)
	}
	if err := s.r.h.checkCoord(s.member, s.scenario, t0); err != nil {
		return err
	}
	if err := s.r.h.checkCoord(s.member, s.scenario, t1-1); err != nil {
		return err
	}
	if cap(s.rangeBuf) < s.r.dim {
		s.rangeBuf = make([]float64, s.r.dim)
	}
	buf := s.rangeBuf[:s.r.dim]
	cs := s.r.h.ChunkSteps
	for t := t0; t < t1; {
		k := t / cs
		if s.chunk != k {
			// Invalidate before reading: a failed readChunk clobbers the
			// reused buffer, so the old cache key must not survive it.
			s.chunk = -1
			s.observe(MetricChunkMisses, 1)
			raw, _, ct0, err := s.r.readChunk(s.sid, k, s.buf)
			if err != nil {
				return err
			}
			if s.sink != nil {
				// readChunk reports its byte count to the reader sink only;
				// mirror it to the cursor sink so per-request attribution
				// sees the I/O its own chunk misses caused.
				s.sink.Add(MetricReadBytes, int64(len(raw)))
			}
			s.buf, s.t0, s.chunk = raw, ct0, k
		} else {
			s.observe(MetricChunkHits, 1)
		}
		payload := s.buf[chunkHeaderLen : len(s.buf)-4]
		end := min((k+1)*cs, t1)
		steps := int64(end - t)
		for ; t < end; t++ {
			rec := payload[(t-s.t0)*s.r.stepB : (t-s.t0+1)*s.r.stepB]
			if err := decodeStep(rec, s.r.h.Bands, buf); err != nil {
				return err
			}
			if err := fn(t, buf); err != nil {
				return err
			}
		}
		s.observe(MetricStepDecodes, steps)
		if steps > 1 {
			s.observe(MetricChunkAmortized, steps-1)
		}
	}
	return nil
}

// EachField streams the fields of steps [t0, t1) through fn in step
// order over the batched range decode, reusing one decode and synthesis
// scratch set (copy the field to retain it). A non-nil error from fn
// stops the replay and is returned.
func (s *Series) EachField(t0, t1 int, fn func(t int, f sphere.Field) error) error {
	plan, err := s.ensurePlan()
	if err != nil {
		return err
	}
	if s.coeffs.L == 0 {
		s.coeffs = sht.NewCoeffs(s.r.h.L)
	}
	field := sphere.NewField(s.r.h.Grid)
	return s.ReadPackedRange(t0, t1, func(t int, packed []float64) error {
		plan.SynthesizeInto(field, sht.UnpackRealInto(s.coeffs, packed))
		return fn(t, field)
	})
}
