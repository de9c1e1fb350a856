package main

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"time"

	"exaclim"
	"exaclim/internal/emulator"
	"exaclim/internal/obs/trace"
)

// campaign: the paper's offline boost. Each cycle emulates an ensemble
// with EmulateEnsemble, streams every field into an in-memory archive
// writer, closes it, reopens the archive and refits the emulator from it
// with TrainFrom. Every cycle uses the same campaign seed, so every
// cycle does identical work and produces identical bytes.

// campOracleSteps is how many leading steps of each member the oracle
// re-emulates and compares: with every member checked, the largest error
// is a maximum over enough fields to be steady from seed to seed.
const campOracleSteps = 16

type campEnv struct {
	o     options
	model *exaclim.Model
	rf    []float64
	h     exaclim.ArchiveHeader
	spec  exaclim.EnsembleSpec
	plan  *exaclim.SHT // oracle analysis, sequential
	refs  map[[2]int][]float64
}

func setupCampaign(o options) (env, error) {
	sc := o.scale
	gen, err := exaclim.NewSynthetic(exaclim.SyntheticConfig{
		Grid: exaclim.GridForBandLimit(sc.campGridL), L: sc.campGridL,
		Seed: fixtureSeed, StartYear: 1990, StepsPerDay: 1,
	})
	if err != nil {
		return nil, err
	}
	sim := gen.Run(sc.campYears * exaclim.DaysPerYear)
	model, err := exaclim.Train([][]exaclim.Field{sim}, gen.AnnualRF(15, sc.campYears+3), 15,
		exaclim.Config{
			L: sc.campL, P: 2, Variant: exaclim.DPHP, SenderConvert: true,
			Trend: exaclim.TrendOptions{
				StepsPerYear: exaclim.DaysPerYear, K: 2,
				RhoGrid: []float64{0.5, 0.85},
			},
		})
	if err != nil {
		return nil, err
	}
	plan, err := exaclim.NewSHT(model.Grid, model.Cfg.L)
	if err != nil {
		return nil, err
	}
	plan = plan.Sequential()
	// Plan the archive's bands from the spectrum of a short emulated
	// series; emulating it also builds the model's lazy sampling state.
	probe, err := model.Emulate(o.seed+1, 0, 8)
	if err != nil {
		return nil, err
	}
	e := &campEnv{
		o: o, model: model, rf: model.Trend.AnnualRF(), plan: plan,
		spec: exaclim.EnsembleSpec{Members: sc.campMembers, Steps: sc.campSteps, BaseSeed: o.seed*17 + 3},
	}
	e.h = exaclim.ArchiveHeader{
		Grid: model.Grid, L: model.Cfg.L, Members: sc.campMembers, Scenarios: 1, Steps: sc.campSteps,
		Bands:     exaclim.DefaultArchivePolicy().PlanBands(exaclim.MeanPowerSpectrum(plan, probe)),
		MaxRelErr: exaclim.DefaultArchivePolicy().MaxRelErr,
	}
	return e, nil
}

func (e *campEnv) close() {}

func (e *campEnv) stamp() map[string]any {
	bands := make([]string, len(e.h.Bands))
	for i, b := range e.h.Bands {
		bands[i] = b.String()
	}
	return map[string]any{
		"model_L":       e.model.Cfg.L,
		"model_grid":    e.model.Grid.String(),
		"cov_dim":       e.model.Diag.CovDim,
		"archive_bands": bands,
		"members":       e.spec.Members,
		"steps":         e.spec.Steps,
		"synth_block":   e.plan.SynthBlock(),
	}
}

// cycleRec is what one cycle measured.
type cycleRec struct {
	fields     int
	bytes      int
	writeS     float64 // EmulateEnsemble start to Writer.Close end
	retrainS   float64 // TrainFrom wall time
	addMS      []float64
	addIv      []interval // AddField calls
	ensemble   interval   // the EmulateEnsemble call
	closeD     time.Duration
	trainStart time.Time
	readIv     []interval                // traced: cursor ReadInto calls during TrainFrom
	diag       emulator.TrainDiagnostics // of the refit model
	maxRelErr  float64
}

// timedSource wraps a field source so the time its cursors spend in
// ReadInto during a refit is recorded.
type timedSource struct {
	exaclim.FieldSource
	rec *readRec
}

// readRec collects read intervals from concurrent cursors.
type readRec struct {
	mu  sync.Mutex
	ivs []interval
}

func (s timedSource) Series(r int) (exaclim.FieldCursor, error) {
	c, err := s.FieldSource.Series(r)
	if err != nil {
		return nil, err
	}
	return timedCursor{FieldCursor: c, rec: s.rec}, nil
}

type timedCursor struct {
	exaclim.FieldCursor
	rec *readRec
}

func (c timedCursor) ReadInto(dst exaclim.Field, t int) error {
	start := time.Now()
	err := c.FieldCursor.ReadInto(dst, t)
	end := time.Now()
	c.rec.mu.Lock()
	c.rec.ivs = append(c.rec.ivs, interval{start, end})
	c.rec.mu.Unlock()
	return err
}

// cycle runs one emulate -> archive -> retrain cycle and checks its
// output against the oracle.
func (e *campEnv) cycle(traced bool, t *tally) (cycleRec, error) {
	var rec cycleRec
	var buf bytes.Buffer
	w, err := exaclim.NewArchiveWriter(&buf, e.h)
	if err != nil {
		return rec, err
	}
	var mu sync.Mutex
	var addErr error
	start := time.Now()
	err = e.model.EmulateEnsemble(e.spec, func(member, scenario, step int, f exaclim.Field) {
		a := time.Now()
		err := w.AddField(member, scenario, step, f)
		b := time.Now()
		mu.Lock()
		rec.addMS = append(rec.addMS, ms(b.Sub(a)))
		rec.addIv = append(rec.addIv, interval{a, b})
		if err != nil && addErr == nil {
			addErr = err
		}
		mu.Unlock()
	})
	ensEnd := time.Now()
	if err == nil {
		err = addErr
	}
	if err != nil {
		return rec, err
	}
	if err := w.Close(); err != nil {
		return rec, err
	}
	end := time.Now()
	rec.ensemble = interval{start, ensEnd}
	rec.closeD = end.Sub(ensEnd)
	rec.writeS = end.Sub(start).Seconds()
	rec.fields = e.spec.Members * e.spec.Steps
	rec.bytes = buf.Len()
	t.attempted += int64(rec.fields)

	r, err := exaclim.NewArchiveReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		return rec, err
	}
	src, err := exaclim.SourceFromArchive(r, 0)
	if err != nil {
		return rec, err
	}
	var reads readRec
	if traced {
		src = timedSource{FieldSource: src, rec: &reads}
	}
	rec.trainStart = time.Now()
	refit, err := exaclim.TrainFrom(src, e.rf, e.model.Trend.Lead, e.model.Cfg)
	rec.retrainS = time.Since(rec.trainStart).Seconds()
	if err != nil {
		return rec, err
	}
	rec.readIv = reads.ivs
	rec.diag = refit.Diag
	t.attempted++
	if d := refit.Diag; d.CovDim != e.h.L*e.h.L || d.Members != e.spec.Members || d.StepsPerMember != e.spec.Steps {
		t.fail("refit diagnostics %+v do not match the %d-member %d-step campaign", d, e.spec.Members, e.spec.Steps)
	}
	rec.maxRelErr, err = e.verify(r, t)
	return rec, err
}

// verify re-emulates every member, analyzes the fields and compares
// their coefficients with what the archive returns; a relative L2 error
// beyond the archive's budget is a failed field.
func (e *campEnv) verify(r *exaclim.ArchiveReader, t *tally) (float64, error) {
	worst := 0.0
	for m := 0; m < e.spec.Members; m++ {
		for step := 0; step < min(campOracleSteps, e.spec.Steps); step++ {
			want, err := e.ref(m, step)
			if err != nil {
				return 0, err
			}
			got, err := r.ReadPacked(m, 0, step, nil)
			if err != nil {
				return 0, err
			}
			var d2, n2 float64
			for i := range want {
				d := got[i] - want[i]
				d2 += d * d
				n2 += want[i] * want[i]
			}
			rel := math.Sqrt(d2 / n2)
			if rel > e.h.MaxRelErr || math.IsNaN(rel) {
				t.fail("member %d step %d: stored coefficients off by %.3g (budget %.0e)", m, step, rel, e.h.MaxRelErr)
				continue
			}
			worst = max(worst, rel)
		}
	}
	return worst, nil
}

// ref returns the oracle's packed coefficients of (member, step): the
// member re-emulated with Model.Emulate under its campaign seed and
// analyzed by the reference plan.
func (e *campEnv) ref(member, step int) ([]float64, error) {
	key := [2]int{member, step}
	if v, ok := e.refs[key]; ok {
		return v, nil
	}
	fields, err := e.model.Emulate(exaclim.MemberSeed(e.spec.BaseSeed, member, 0), e.spec.T0, campOracleSteps)
	if err != nil {
		return nil, err
	}
	if e.refs == nil {
		e.refs = make(map[[2]int][]float64)
	}
	for s, f := range fields {
		v := e.plan.Analyze(f).PackReal(nil)
		if e.o.corrupt {
			v[0] += 1e-2 * math.Abs(v[0])
		}
		e.refs[[2]int{member, s}] = v
	}
	return e.refs[key], nil
}

// cycles runs cycles until `seconds` have passed (at least one).
func (e *campEnv) cycles(seconds float64, traced bool, t *tally) ([]cycleRec, error) {
	var recs []cycleRec
	start := time.Now()
	for len(recs) == 0 || time.Since(start).Seconds() < seconds {
		rec, err := e.cycle(traced, t)
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// opsPerS is the cycles' throughput: stored fields per second of the
// whole emulate -> archive -> retrain cycles.
func opsPerS(recs []cycleRec) float64 {
	fields, busyS := 0, 0.0
	for _, r := range recs {
		fields += r.fields
		busyS += r.writeS + r.retrainS
	}
	return float64(fields) / busyS
}

// medianOf returns the median of f over the cycles.
func medianOf(recs []cycleRec, f func(cycleRec) float64) float64 {
	xs := make([]float64, len(recs))
	for i, r := range recs {
		xs[i] = f(r)
	}
	return median(xs)
}

func (e *campEnv) measure(o options) (map[string]float64, tally, error) {
	var t tally
	stop := watchRSS()
	recs, err := e.cycles(o.seconds, false, &t)
	peak := stop()
	if err != nil {
		return nil, t, err
	}
	var adds []float64
	worst := 0.0
	for _, r := range recs {
		adds = append(adds, r.addMS...)
		worst = max(worst, r.maxRelErr)
	}
	return map[string]float64{
		"ops_per_s":       opsPerS(recs),
		"p50_ms":          quantile(adds, 0.5),
		"p99_ms":          quantile(adds, 0.99),
		"max_rel_err":     worst,
		"bytes_per_field": float64(recs[0].bytes) / float64(recs[0].fields),
		"peak_rss_mb":     peak,
	}, t, nil
}

// layers runs untraced cycles, then traced ones that record a span
// tree per cycle around each call into the layers, and reports the
// per-layer medians over the traced cycles.
func (e *campEnv) layers(o options) (map[string]float64, tally, error) {
	var t tally
	out := zeroLayers()
	base, err := e.cycles(o.seconds/2, false, &t)
	if err != nil {
		return nil, t, err
	}
	recs, err := e.cycles(o.seconds/2, true, &t)
	if err != nil {
		return nil, t, err
	}
	store := trace.NewStore(len(recs))
	for i := range recs {
		store.Add(cycleTrace(&recs[i]))
	}
	med := func(f func(cycleRec) float64) float64 { return medianOf(recs, f) }
	out["emulator.ensemble.self_s"] = med(func(c cycleRec) float64 {
		return (c.ensemble.end.Sub(c.ensemble.start) - covered(c.addIv)).Seconds()
	})
	out["archive.write.addfield_ms"] = med(func(c cycleRec) float64 {
		sum := 0.0
		for _, v := range c.addMS {
			sum += v
		}
		return sum / float64(len(c.addMS))
	})
	out["archive.write.close_ms"] = med(func(c cycleRec) float64 { return ms(c.closeD) })
	out["archive.write.fields_per_s"] = med(func(c cycleRec) float64 { return float64(c.fields) / c.writeS })
	out["archive.source.read_ms_per_field"] = med(func(c cycleRec) float64 {
		sum := 0.0
		for _, iv := range c.readIv {
			sum += ms(iv.end.Sub(iv.start))
		}
		return ratio(sum, float64(len(c.readIv)))
	})
	out["emulator.train.retrain_s"] = med(func(c cycleRec) float64 { return c.retrainS })
	out["mpchol.factor_s"] = med(func(c cycleRec) float64 { return c.diag.FactorSeconds })
	out["mpchol.conversions"] = med(func(c cycleRec) float64 { return float64(c.diag.Conversions) })
	out["mpchol.moved_bytes"] = med(func(c cycleRec) float64 { return float64(c.diag.MovedBytes) })
	out["emulator.train.rest_s"] = med(func(c cycleRec) float64 {
		return c.retrainS - covered(c.readIv).Seconds() - c.diag.FactorSeconds
	})
	out["obs.trace_overhead"] = ratio(opsPerS(recs), opsPerS(base))
	writeTraceFile(o.traceDir, fmt.Sprintf("campaign-seed%d.json", o.seed), store.Export())
	return out, t, nil
}

// cycleTrace renders one traced cycle as a span tree: the cycle, the
// ensemble call with the AddField time it covers, the writer's Close,
// and the refit with its archive reads and its factorization.
func cycleTrace(c *cycleRec) *trace.Trace {
	tr, root := trace.New("campaign.cycle", trace.Options{Sampled: true})
	root.SetAttr("fields", int64(c.fields))
	root.SetAttr("bytes", int64(c.bytes))
	ens := root.Child("emulator.ensemble")
	ens.EndAggregate(c.ensemble.start, c.ensemble.end.Sub(c.ensemble.start))
	add := ens.Child("archive.addfield")
	add.SetAttr("calls", int64(len(c.addIv)))
	add.EndAggregate(c.ensemble.start, covered(c.addIv))
	cl := root.Child("archive.close")
	cl.EndAggregate(c.ensemble.end, c.closeD)
	train := root.Child("emulator.train")
	train.EndAggregate(c.trainStart, time.Duration(c.retrainS*float64(time.Second)))
	rd := train.Child("archive.source.read")
	rd.SetAttr("calls", int64(len(c.readIv)))
	rd.EndAggregate(c.trainStart, covered(c.readIv))
	fac := train.Child("mpchol.factor")
	fac.SetAttr("conversions", c.diag.Conversions)
	fac.SetAttr("moved_bytes", c.diag.MovedBytes)
	fac.EndAggregate(c.trainStart, time.Duration(c.diag.FactorSeconds*float64(time.Second)))
	root.EndAggregate(c.ensemble.start, c.trainStart.Sub(c.ensemble.start)+time.Duration(c.retrainS*float64(time.Second)))
	return tr
}
