package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"exaclim"
	"exaclim/internal/sht"
)

// archive-mix: the serving path the storage claim exists for. A seeded
// query mix over an L=64 archive of members x steps fields, served
// from a field cache holding a fraction of the Zipf-popular working set.

// Request kinds of the mix. The repository holds no measured request
// log, so the mix is an assumption: every kind gets an equal share of
// the load, and field popularity over (member, t) is Zipf with
// mixZipfS and mixZipfV.
const (
	kFieldJSON  = iota // /v1/field, JSON, identity
	kFieldF32          // /v1/field?format=f32, identity
	kPointShort        // 8-step /v1/point at a repeated dashboard location
	kPointLong         // 64-step /v1/point at a fresh location
	kPoints            // 16-location 64-step /v1/points, gzip
	kBox               // 64-step /v1/box
	kStats             // /v1/stats, gzip
	numMixKinds
)

var mixKindNames = [numMixKinds]string{"field-json", "field-f32", "point-short", "point-long", "points", "box", "stats"}

// Oracle tolerances per request kind, relative to the largest reference
// magnitude of the response. The float64 paths synthesize and evaluate
// with kernels that agree with the reference to rounding; the float32
// path decodes and synthesizes in float32.
var mixTol = [numMixKinds]float64{1e-12, 1e-5, 1e-10, 1e-10, 1e-10, 1e-10, 1e-10}

const (
	shortSteps  = 8
	seriesSteps = 64
	batchPoints = 16
	dashboards  = 8
	mixPerBlock = 4 // requests of each kind per shuffled block
	mixProbes   = 3 // oracle probes per request kind
	mixZipfS    = 1.1
	mixZipfV    = 4
	// mixUsers is the connection count of both load phases. Two
	// connections on a 2-vCPU virtual machine keep both cores busy with
	// the client and two handlers, and runs spread twice as far (six
	// interleaved 10 s runs each: IQR/median of req/s 0.19 at two
	// connections, 0.09 at one). One connection leaves the other core to
	// the garbage collector and the host's other work.
	mixUsers = 1
)

// mixParam holds one request's parameters for the oracle.
type mixParam struct {
	member, t, t0, t1 int
	lats, lons        []float64
	box               exaclim.QueryBox
}

type mixEnv struct {
	o       options
	h       exaclim.ArchiveHeader
	data    []byte
	oracleR *exaclim.ArchiveReader

	s    *serving
	plan *exaclim.SHT // oracle synthesis, sequential

	params   []mixParam
	closed   []*request // closed-loop sequence
	open     []*request // open-loop sequence (scheduled by poissonSchedule)
	probes   []*request // fixed oracle probe set
	warm     []*request // one request per kind, sent during setup
	refCache map[[2]int][]float64
}

// mixSpectrum is the planning spectrum: a dominant mean term and a
// steeply decaying weather spectrum, so the planner keeps degree 0 in
// float64, the energetic low degrees in float32 and the tail in
// binary16.
func mixSpectrum(L int) (sigma, spectrum []float64) {
	sigma = make([]float64, L)
	spectrum = make([]float64, L)
	sigma[0] = 1000
	for l := 1; l < L; l++ {
		sigma[l] = math.Exp(-20 * float64(l) / float64(L))
	}
	for l := range sigma {
		spectrum[l] = sigma[l] * sigma[l]
	}
	return sigma, spectrum
}

// mixPolicy is the default archive policy at a budget tight enough to
// use every storage width: at the default 1e-4 budget a float32 degree
// never becomes the largest error contributor, so no float64 band would
// be planned and the float64 decoder would go unmeasured.
func mixPolicy() exaclim.ArchivePolicy {
	p := exaclim.DefaultArchivePolicy()
	p.MaxRelErr = 1e-7
	return p
}

func setupArchiveMix(o options) (env, error) {
	sc := o.scale
	L := sc.mixL
	grid := exaclim.GridForBandLimit(L)
	sigma, spectrum := mixSpectrum(L)
	pol := mixPolicy()
	h := exaclim.ArchiveHeader{
		Grid: grid, L: L, Members: sc.mixMembers, Scenarios: 1, Steps: sc.mixSteps,
		Bands: pol.PlanBands(spectrum), MaxRelErr: pol.MaxRelErr,
	}
	var buf bytes.Buffer
	w, err := exaclim.NewArchiveWriter(&buf, h)
	if err != nil {
		return nil, err
	}
	// The archive is a fixture like the models of the other workloads:
	// the seed varies the queries, not the data they read.
	rng := rand.New(rand.NewSource(fixtureSeed))
	packed := make([]float64, L*L)
	for m := 0; m < h.Members; m++ {
		for t := 0; t < h.Steps; t++ {
			for p := range packed {
				packed[p] = sigma[sht.PackDegree(p)] * rng.NormFloat64()
			}
			packed[0] += 3 * sigma[0]
			if err := w.AddPacked(m, 0, t, packed); err != nil {
				return nil, err
			}
		}
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	e := &mixEnv{o: o, h: w.Header(), data: buf.Bytes()}
	if e.plan, err = exaclim.NewSHT(grid, L); err != nil {
		return nil, err
	}
	e.plan = e.plan.Sequential()
	// A first synthesis runs the plan's timing-based block calibration,
	// whose pick the run stamp records.
	e.plan.Synthesize(exaclim.Coeffs(sht.NewCoeffs(L)))
	// Warm-up and oracle probes are fixed, so max_rel_err compares the
	// same answers on every run; the load is drawn from the seed.
	e.drawRequests(fixtureSeed, false)
	e.drawRequests(o.seed^0x5eed, true)
	if e.s, err = e.serve(false); err != nil {
		return nil, err
	}
	return e, nil
}

// serve starts a server over the archive and warms it with one request
// of every kind (plan calibration, the lazily built FP16 table,
// evaluator tables). The field cache holds mixCacheFields float64
// fields and, in its float32 half, twice as many float32 fields.
func (e *mixEnv) serve(traced bool) (*serving, error) {
	cfg := exaclim.ServeConfig{CacheBytes: 2 * int64(e.o.scale.mixCacheFields) * int64(e.h.Grid.Points()*8)}
	return startServing(e.data, nil, cfg, traced, mixUsers, e.warm, e.o.seed, e.check)
}

func (e *mixEnv) close() { e.s.close() }

func (e *mixEnv) stamp() map[string]any {
	bands := make([]string, len(e.h.Bands))
	for i, b := range e.h.Bands {
		bands[i] = b.String()
	}
	return map[string]any{
		"archive_bands":  bands,
		"archive_bytes":  len(e.data),
		"synth_block":    e.plan.SynthBlock(),
		"users":          mixUsers,
		"open_rate_rps":  e.o.scale.mixRate,
		"cache_fields":   e.o.scale.mixCacheFields,
		"working_fields": e.h.Members * e.h.Steps,
	}
}

// seqNext hands out the requests of a fixed list in order across
// users, then nil.
func seqNext(reqs []*request) func(int) *request {
	var mu sync.Mutex
	i := 0
	return func(int) *request {
		mu.Lock()
		defer mu.Unlock()
		if i >= len(reqs) {
			return nil
		}
		i++
		return reqs[i-1]
	}
}

// cycleNext hands out a long seeded sequence in order, wrapping around.
func cycleNext(reqs []*request) func(int) *request {
	var mu sync.Mutex
	i := 0
	return func(int) *request {
		mu.Lock()
		defer mu.Unlock()
		r := reqs[i%len(reqs)]
		i++
		return r
	}
}

// drawRequests draws request sequences from seed: the open- and
// closed-loop load when load is set, else the warm-up requests and the
// oracle probes.
func (e *mixEnv) drawRequests(seed int64, load bool) {
	h := e.h
	rng := rand.New(rand.NewSource(seed))
	nf := h.Members * h.Steps
	// Zipf popularity over (member, t), scattered by a permutation so the
	// popular fields are not all neighbours in one chunk.
	perm := rng.Perm(nf)
	zipf := rand.NewZipf(rng, mixZipfS, mixZipfV, uint64(nf-1))
	popular := func() (member, t int) {
		k := perm[int(zipf.Uint64())]
		return k % h.Members, k / h.Members
	}
	dash := make([][2]float64, dashboards)
	for i := range dash {
		dash[i] = [2]float64{roundTo(rng.Float64()*150-75, 0.01), roundTo(rng.Float64()*360, 0.01)}
	}
	location := func() (lat, lon float64) {
		return roundTo(rng.Float64()*178-89, 0.001), roundTo(rng.Float64()*360, 0.001)
	}
	newReq := func(kind int, sample bool) *request {
		p := mixParam{member: rng.Intn(h.Members)}
		r := &request{kind: kind, arg: len(e.params), sample: sample}
		switch kind {
		case kFieldJSON, kFieldF32:
			p.member, p.t = popular()
			r.path = fmt.Sprintf("/v1/field?member=%d&scenario=0&t=%d", p.member, p.t)
			if kind == kFieldF32 {
				r.path += "&format=f32"
			}
		case kPointShort:
			d := dash[rng.Intn(dashboards)]
			p.lats, p.lons = []float64{d[0]}, []float64{d[1]}
			p.t0 = rng.Intn(h.Steps - shortSteps + 1)
			p.t1 = p.t0 + shortSteps
			r.path = fmt.Sprintf("/v1/point?member=%d&scenario=0&lat=%s&lon=%s&t0=%d&t1=%d",
				p.member, fmtF(d[0]), fmtF(d[1]), p.t0, p.t1)
		case kPointLong:
			lat, lon := location()
			p.lats, p.lons = []float64{lat}, []float64{lon}
			p.t0 = rng.Intn(h.Steps - seriesSteps + 1)
			p.t1 = p.t0 + seriesSteps
			r.path = fmt.Sprintf("/v1/point?member=%d&scenario=0&lat=%s&lon=%s&t0=%d&t1=%d",
				p.member, fmtF(lat), fmtF(lon), p.t0, p.t1)
		case kPoints:
			var la, lo []byte
			for i := 0; i < batchPoints; i++ {
				lat, lon := location()
				p.lats, p.lons = append(p.lats, lat), append(p.lons, lon)
				if i > 0 {
					la, lo = append(la, ','), append(lo, ',')
				}
				la, lo = append(la, fmtF(lat)...), append(lo, fmtF(lon)...)
			}
			p.t0 = rng.Intn(h.Steps - seriesSteps + 1)
			p.t1 = p.t0 + seriesSteps
			r.path = fmt.Sprintf("/v1/points?member=%d&scenario=0&lat=%s&lon=%s&t0=%d&t1=%d",
				p.member, la, lo, p.t0, p.t1)
			r.gzip = true
		case kBox:
			lat0 := roundTo(rng.Float64()*100-60, 0.1)
			lon0 := roundTo(rng.Float64()*300, 0.1)
			p.box = exaclim.QueryBox{LatMin: lat0, LatMax: lat0 + 20, LonMin: lon0, LonMax: lon0 + 40}
			p.t0 = rng.Intn(h.Steps - seriesSteps + 1)
			p.t1 = p.t0 + seriesSteps
			r.path = fmt.Sprintf("/v1/box?member=%d&scenario=0&lat0=%s&lat1=%s&lon0=%s&lon1=%s&t0=%d&t1=%d",
				p.member, fmtF(p.box.LatMin), fmtF(p.box.LatMax), fmtF(p.box.LonMin), fmtF(p.box.LonMax), p.t0, p.t1)
		case kStats:
			_, p.t = popular()
			r.path = fmt.Sprintf("/v1/stats?scenario=0&t=%d", p.t)
			r.gzip = true
		}
		e.params = append(e.params, p)
		return r
	}
	// Kinds come in shuffled blocks holding every kind equally often, so
	// every stretch of the sequence has the same composition.
	var block []int
	pick := func() int {
		if len(block) == 0 {
			for k := 0; k < numMixKinds; k++ {
				for i := 0; i < mixPerBlock; i++ {
					block = append(block, k)
				}
			}
			rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		}
		k := block[len(block)-1]
		block = block[:len(block)-1]
		return k
	}
	if load {
		every := e.o.scale.sampleEvery
		const seqLen = 1 << 16
		for i := 0; i < seqLen; i++ {
			e.open = append(e.open, newReq(pick(), rng.Intn(every) == 0))
		}
		for i := 0; i < seqLen; i++ {
			e.closed = append(e.closed, newReq(pick(), rng.Intn(every) == 0))
		}
		return
	}
	for k := 0; k < numMixKinds; k++ {
		e.warm = append(e.warm, newReq(k, false))
		n := mixProbes
		if k == kFieldF32 {
			// The float32 path carries the largest error; more probes
			// steady its maximum.
			n = 8 * mixProbes
		}
		for i := 0; i < n; i++ {
			e.probes = append(e.probes, newReq(k, true))
		}
	}
}

func fmtF(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func roundTo(v, q float64) float64 { return math.Round(v/q) * q }

// check validates a response's status, encoding and shape. Field and
// statistics bodies are grid-sized, so their JSON shape is checked by
// counting separators instead of a full parse; the full parse and value
// comparison happen in the oracle for the sampled responses.
func (e *mixEnv) check(r *request, resp *response) ([]byte, error) {
	body, err := decodeBody(r, resp)
	if err != nil {
		return nil, err
	}
	n := e.h.Grid.Points()
	p := &e.params[r.arg]
	switch r.kind {
	case kFieldJSON:
		if !bytes.HasPrefix(body, []byte(`{"member":`)) || bytes.Count(body, []byte{','}) != n+4 {
			return nil, fmt.Errorf("field body is not a %d-value field", n)
		}
	case kFieldF32:
		if len(body) != 4*n || resp.header.Get("X-Exaclim-NLat") != strconv.Itoa(e.h.Grid.NLat) {
			return nil, fmt.Errorf("f32 body has %d bytes, want %d", len(body), 4*n)
		}
	case kPointShort, kPointLong, kBox:
		var s exaclim.SeriesResponse
		if err := json.Unmarshal(body, &s); err != nil {
			return nil, err
		}
		if len(s.Values) != p.t1-p.t0 || s.T0 != p.t0 {
			return nil, fmt.Errorf("series has %d values from t0=%d, want %d from %d", len(s.Values), s.T0, p.t1-p.t0, p.t0)
		}
	case kPoints:
		var s struct {
			Series [][]float64 `json:"series"`
		}
		if err := json.Unmarshal(body, &s); err != nil {
			return nil, err
		}
		if len(s.Series) != len(p.lats) {
			return nil, fmt.Errorf("%d series, want %d", len(s.Series), len(p.lats))
		}
		for _, v := range s.Series {
			if len(v) != p.t1-p.t0 {
				return nil, fmt.Errorf("series of %d values, want %d", len(v), p.t1-p.t0)
			}
		}
	case kStats:
		if !bytes.HasPrefix(body, []byte(`{"scenario":`)) || bytes.Count(body, []byte{','}) != 2*n+6 {
			return nil, fmt.Errorf("stats body is not two %d-value fields", n)
		}
	}
	return body, nil
}

// loadPhases runs the open-loop phase, then the closed-loop phase, each
// for half of seconds.
func (e *mixEnv) loadPhases(g *gen, seconds float64) (open, closed *phase) {
	rng := rand.New(rand.NewSource(e.o.seed ^ 0xa441))
	d := time.Duration(seconds / 2 * float64(time.Second))
	open = g.openLoop(1, poissonSchedule(rng, e.o.scale.mixRate, d, e.open))
	closed = g.closedLoop(2, d, cycleNext(e.closed))
	return open, closed
}

// measure runs the closed loop for the whole measured time. Its
// latencies carry no generator timer or idle wake-up delay, which on a
// small virtual machine dominate an open loop's latency at moderate
// rates; the open loop's figures are reported by the traced run.
func (e *mixEnv) measure(o options) (map[string]float64, tally, error) {
	var t tally
	stop := watchRSS()
	closed := e.s.g.closedLoop(2, time.Duration(o.seconds*float64(time.Second)), cycleNext(e.closed))
	peak := stop()
	t.add(closed.t)
	verifyAll(closed.kept, e.verify, &t)
	worst := e.s.g.probe(e.probes, e.verify, &t)
	if len(closed.latMS) == 0 {
		return nil, t, fmt.Errorf("closed loop completed no request")
	}
	return map[string]float64{
		"ops_per_s":       closed.rate(),
		"p50_ms":          quantile(closed.latMS, 0.5),
		"p99_ms":          quantile(closed.latMS, 0.99),
		"max_rel_err":     worst,
		"bytes_per_field": float64(len(e.data)) / float64(e.h.Members*e.h.Steps),
		"peak_rss_mb":     peak,
	}, t, nil
}

// layers runs the open- and closed-loop phases on the setup's server,
// then on a fresh traced one.
func (e *mixEnv) layers(o options) (map[string]float64, tally, error) {
	var t tally
	out := zeroLayers()
	open0, closed0 := e.loadPhases(e.s.g, o.seconds/2)
	t.add(open0.t)
	t.add(closed0.t)
	verifyAll(open0.kept, e.verify, &t)
	verifyAll(closed0.kept, e.verify, &t)
	out["gen.late_p99_ms"] = quantile(open0.lateMS, 0.99)
	out["gen.open_p50_ms"] = quantile(open0.latMS, 0.5)
	out["gen.open_p99_ms"] = quantile(open0.latMS, 0.99)

	s, err := e.serve(true)
	if err != nil {
		return nil, t, err
	}
	defer s.close()
	phases, err := s.tracedRun(o, fmt.Sprintf("archive-mix-seed%d.json", o.seed), func(g *gen) []*phase {
		open, closed := e.loadPhases(g, o.seconds/2)
		return []*phase{open, closed}
	}, out, &t)
	if err != nil {
		return nil, t, err
	}
	for _, ph := range phases {
		verifyAll(ph.kept, e.verify, &t)
	}
	closed1 := phases[1]
	out["obs.trace_overhead"] = ratio(closed1.rate(), closed0.rate())
	return out, t, nil
}

// ref returns the oracle's float64 field of (member, t): the archived
// coefficients synthesized by the sequential reference plan.
func (e *mixEnv) ref(r *exaclim.ArchiveReader, member, t int) ([]float64, error) {
	key := [2]int{member, t}
	if f, ok := e.refCache[key]; ok {
		return f, nil
	}
	packed, err := r.ReadPacked(member, 0, t, nil)
	if err != nil {
		return nil, err
	}
	f := e.plan.Synthesize(sht.UnpackReal(packed)).Data
	if e.o.corrupt {
		f[0] += 1e-3 * math.Abs(f[0])
	}
	if e.refCache == nil || len(e.refCache) >= 512 {
		e.refCache = make(map[[2]int][]float64)
	}
	e.refCache[key] = f
	return f, nil
}

// refPoint is the oracle's value of (member, t) at one location: the
// archived coefficients evaluated by sht.EvalPoint.
func (e *mixEnv) refPoint(r *exaclim.ArchiveReader, member, t int, lat, lon float64) (float64, error) {
	packed, err := r.ReadPacked(member, 0, t, nil)
	if err != nil {
		return 0, err
	}
	v := sht.EvalPoint(sht.UnpackReal(packed), (90-lat)*math.Pi/180, lon*math.Pi/180)
	if e.o.corrupt {
		v += 1e-3 * math.Abs(v)
	}
	return v, nil
}

// relErr returns max|got-want| / max|want|, with a length check.
func relErr(got, want []float64) (float64, error) {
	if len(got) != len(want) {
		return 0, fmt.Errorf("%d values, want %d", len(got), len(want))
	}
	var d, s float64
	for i := range want {
		if math.IsNaN(got[i]) || math.IsInf(got[i], 0) {
			return 0, fmt.Errorf("value %d is %v", i, got[i])
		}
		d = max(d, math.Abs(got[i]-want[i]))
		s = max(s, math.Abs(want[i]))
	}
	if s == 0 {
		return d, nil
	}
	return d / s, nil
}

// verify compares one retained response against the oracle and returns
// its relative error; an error beyond the kind's tolerance is a failure.
func (e *mixEnv) verify(k kept) (float64, error) {
	if e.oracleR == nil {
		r, err := exaclim.NewArchiveReader(bytes.NewReader(e.data), int64(len(e.data)))
		if err != nil {
			return 0, err
		}
		e.oracleR = r
	}
	r := e.oracleR
	var err error
	p := &e.params[k.req.arg]
	var rel float64
	switch k.req.kind {
	case kFieldJSON:
		var f exaclim.FieldResponse
		if err := json.Unmarshal(k.body, &f); err != nil {
			return 0, err
		}
		want, err := e.ref(r, p.member, p.t)
		if err != nil {
			return 0, err
		}
		if rel, err = relErr(f.Data, want); err != nil {
			return 0, err
		}
	case kFieldF32:
		want, err := e.ref(r, p.member, p.t)
		if err != nil {
			return 0, err
		}
		got := make([]float64, len(k.body)/4)
		for i := range got {
			got[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(k.body[4*i:])))
		}
		if rel, err = relErr(got, want); err != nil {
			return 0, err
		}
	case kPointShort, kPointLong, kBox:
		var s exaclim.SeriesResponse
		if err := json.Unmarshal(k.body, &s); err != nil {
			return 0, err
		}
		want := make([]float64, p.t1-p.t0)
		for t := p.t0; t < p.t1; t++ {
			var v float64
			if k.req.kind == kBox {
				f, err := e.ref(r, p.member, t)
				if err != nil {
					return 0, err
				}
				v = e.boxMean(f, p.box)
			} else if v, err = e.refPoint(r, p.member, t, p.lats[0], p.lons[0]); err != nil {
				return 0, err
			}
			want[t-p.t0] = v
		}
		if rel, err = relErr(s.Values, want); err != nil {
			return 0, err
		}
	case kPoints:
		var s struct {
			Series [][]float64 `json:"series"`
		}
		if err := json.Unmarshal(k.body, &s); err != nil {
			return 0, err
		}
		for i := range p.lats {
			want := make([]float64, p.t1-p.t0)
			for t := p.t0; t < p.t1; t++ {
				if want[t-p.t0], err = e.refPoint(r, p.member, t, p.lats[i], p.lons[i]); err != nil {
					return 0, err
				}
			}
			ri, err := relErr(s.Series[i], want)
			if err != nil {
				return 0, err
			}
			rel = max(rel, ri)
		}
	case kStats:
		var s exaclim.StatsResponse
		if err := json.Unmarshal(k.body, &s); err != nil {
			return 0, err
		}
		n := e.h.Grid.Points()
		mean := make([]float64, n)
		fields := make([][]float64, e.h.Members)
		for m := range fields {
			if fields[m], err = e.ref(r, m, p.t); err != nil {
				return 0, err
			}
			for i, v := range fields[m] {
				mean[i] += v / float64(e.h.Members)
			}
		}
		spread := make([]float64, n)
		for i := range spread {
			ss := 0.0
			for m := range fields {
				d := fields[m][i] - mean[i]
				ss += d * d
			}
			spread[i] = math.Sqrt(ss / float64(max(1, e.h.Members-1)))
		}
		rm, err := relErr(s.Mean, mean)
		if err != nil {
			return 0, err
		}
		rs, err := relErr(s.Spread, spread)
		if err != nil {
			return 0, err
		}
		rel = max(rm, rs)
	}
	if rel > mixTol[k.req.kind] {
		return rel, fmt.Errorf("relative error %.3g exceeds the %s tolerance %.0e", rel, mixKindNames[k.req.kind], mixTol[k.req.kind])
	}
	return rel, nil
}

// boxMean is the oracle's area-weighted box mean over the grid points
// inside b (boxes never wrap in longitude here).
func (e *mixEnv) boxMean(f []float64, b exaclim.QueryBox) float64 {
	g := e.h.Grid
	aw := g.AreaWeights()
	var sum, wsum float64
	for i := 0; i < g.NLat; i++ {
		if lat := g.Latitude(i); lat < b.LatMin || lat > b.LatMax {
			continue
		}
		for j := 0; j < g.NLon; j++ {
			if lon := g.LongitudeDeg(j); lon < b.LonMin || lon > b.LonMax {
				continue
			}
			sum += aw[i] * f[i*g.NLon+j]
			wsum += aw[i]
		}
	}
	return sum / wsum
}
