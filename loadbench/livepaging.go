package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"exaclim"
)

// live-paging: the what-if scenario path. Users page a live (member,
// what-if scenario) series forward one /v1/field?format=f32 request per
// step, then ask for a /v1/point series over the paged range. Members
// repeat between consecutive sessions, so two users sometimes page the
// same series at once — the coalescing case.

// Request kinds of the paging load.
const (
	kLiveField = iota // /v1/field?format=f32 of one live step
	kLivePoint        // /v1/point over a paged range
)

// liveRepeatEvery makes every liveRepeatEvery-th session page the
// member of the session before it, which the other user is typically
// still paging; the other sessions page fresh members.
const liveRepeatEvery = 3

// liveProbeSteps is the length of the fixed probe series.
const liveProbeSteps = 16

// liveParam holds one request's parameters for the oracle.
type liveParam struct {
	member, t, t1 int
	lat, lon      float64
}

type liveEnv struct {
	o        options
	model    *exaclim.Model
	whatIf   []float64
	data     []byte
	h        exaclim.ArchiveHeader
	liveScen int
	baseSeed int64
	s        *serving

	params   []liveParam
	sessions [][]*request // each user's paging sessions, in order
	warm     []*request
	probes   []*request
	refs     map[int][]exaclim.Field // oracle series by member
}

func setupLivePaging(o options) (env, error) {
	sc := o.scale
	gen, err := exaclim.NewSynthetic(exaclim.SyntheticConfig{
		Grid: exaclim.GridForBandLimit(sc.liveGridL), L: sc.liveGridL,
		Seed: fixtureSeed, StartYear: 1990, StepsPerDay: 1,
	})
	if err != nil {
		return nil, err
	}
	sim := gen.Run(sc.liveYears * exaclim.DaysPerYear)
	model, err := exaclim.Train([][]exaclim.Field{sim}, gen.AnnualRF(15, sc.liveYears+3), 15,
		exaclim.Config{
			L: sc.liveL, P: 2, Variant: exaclim.DPHP, SenderConvert: true,
			Trend: exaclim.TrendOptions{
				StepsPerYear: exaclim.DaysPerYear, K: 2,
				RhoGrid: []float64{0.5, 0.85},
			},
		})
	if err != nil {
		return nil, err
	}
	rf := model.Trend.AnnualRF()
	whatIf := make([]float64, len(rf))
	for i, v := range rf {
		whatIf[i] = v + 2
	}
	// The archive behind the live scenario: one archived step per member,
	// there to fix the grid and the member range.
	h := exaclim.ArchiveHeader{Grid: model.Grid, L: model.Cfg.L, Members: sc.liveMembers, Scenarios: 1, Steps: 1, ChunkSteps: 1}
	var buf bytes.Buffer
	w, err := exaclim.NewArchiveWriter(&buf, h)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(o.seed ^ 0x11fe))
	packed := make([]float64, h.L*h.L)
	for m := 0; m < h.Members; m++ {
		for i := range packed {
			packed[i] = rng.NormFloat64()
		}
		if err := w.AddPacked(m, 0, 0, packed); err != nil {
			return nil, err
		}
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	e := &liveEnv{
		o: o, model: model, whatIf: whatIf, data: buf.Bytes(), h: w.Header(),
		liveScen: 1, baseSeed: o.seed*31 + 7,
	}
	e.buildSessions()
	if e.s, err = e.serve(false); err != nil {
		return nil, err
	}
	return e, nil
}

// liveCacheBytes bounds the live server's field caches. Half of it holds
// the float64 steps of about the last 27 sessions, the other half the
// float32 steps of about twice as many: enough that a session's point series and a repeated
// member's pages are cache hits, so paging cost is the emulation's
// alone. The caches fill within the first seconds of the load, so the
// resident set reaches its steady state early; with the 256 MiB default
// it would grow with the number of sessions paged, and peak_rss_mb would
// follow throughput.
const liveCacheBytes = 32 << 20

// serve starts a live server with its own empty caches and warms it
// with a short session on a member the load never pages.
func (e *liveEnv) serve(traced bool) (*serving, error) {
	cfg := exaclim.ServeConfig{
		CacheBytes:   liveCacheBytes,
		LivePathways: []exaclim.Pathway{{Name: "whatif", Annual: e.whatIf}},
		LiveSteps:    e.o.scale.liveSteps,
		BaseSeed:     e.baseSeed,
	}
	return startServing(e.data, e.model, cfg, traced, loadUsers(), e.warm, e.o.seed, e.check)
}

func (e *liveEnv) close() { e.s.close() }

func (e *liveEnv) stamp() map[string]any {
	return map[string]any{
		"model_L":       e.model.Cfg.L,
		"model_grid":    e.model.Grid.String(),
		"live_steps":    e.o.scale.liveSteps,
		"users":         loadUsers(),
		"script_length": e.o.scale.liveScriptSessions,
	}
}

// buildSessions draws the seeded session sequence, the warm-up session
// and the oracle probes. The load pages members 0..Members-2; the last
// member is reserved for warm-up and probes.
func (e *liveEnv) buildSessions() {
	sc := e.o.scale
	rng := rand.New(rand.NewSource(e.o.seed ^ 0x9a9e))
	newSession := func(member, depth int, sample func() bool) []*request {
		lat := math.Round((rng.Float64()*170-85)*100) / 100
		lon := math.Round(rng.Float64()*36000) / 100
		var s []*request
		for t := 0; t < depth; t++ {
			s = append(s, &request{
				path: fmt.Sprintf("/v1/field?member=%d&scenario=%d&t=%d&format=f32", member, e.liveScen, t),
				kind: kLiveField, arg: len(e.params), sample: sample(),
			})
			e.params = append(e.params, liveParam{member: member, t: t})
		}
		s = append(s, &request{
			path: fmt.Sprintf("/v1/point?member=%d&scenario=%d&lat=%s&lon=%s&t0=0&t1=%d",
				member, e.liveScen, fmtF(lat), fmtF(lon), depth),
			kind: kLivePoint, arg: len(e.params), sample: sample(),
		})
		e.params = append(e.params, liveParam{member: member, t1: depth, lat: lat, lon: lon})
		return s
	}
	sampleRate := func() bool { return rng.Intn(sc.sampleEvery) == 0 }
	// Members are a seeded permutation, so the seed decides which series
	// are paged while every seed pages the same amount.
	members := rng.Perm(sc.liveMembers - 1)
	fresh, member := 0, 0
	const maxSessions = 512 // the pager wraps around after these
	for k := 0; k < maxSessions; k++ {
		if k%liveRepeatEvery != liveRepeatEvery-1 {
			member = members[fresh%len(members)]
			fresh++
		}
		e.sessions = append(e.sessions, newSession(member, sc.liveDepth, sampleRate))
	}
	reserved := sc.liveMembers - 1
	e.warm = newSession(reserved, 4, func() bool { return false })
	e.probes = newSession(reserved, liveProbeSteps, func() bool { return true })
}

// pager hands each user its next request: users take whole sessions,
// in sequence order, from a shared counter. limit > 0 ends the load
// after that many sessions (the fixed traced script).
func (e *liveEnv) pager(limit int) func(user int) *request {
	var mu sync.Mutex
	next := 0
	type cursor struct{ s, pos int }
	cur := make([]cursor, loadUsers())
	for u := range cur {
		cur[u].s = -1
	}
	return func(u int) *request {
		c := &cur[u]
		if c.s < 0 || c.pos >= len(e.sessions[c.s]) {
			mu.Lock()
			if limit > 0 && next >= limit {
				mu.Unlock()
				return nil
			}
			c.s, c.pos = next%len(e.sessions), 0
			next++
			mu.Unlock()
		}
		r := e.sessions[c.s][c.pos]
		c.pos++
		return r
	}
}

// check validates a response's status, encoding and shape.
func (e *liveEnv) check(r *request, resp *response) ([]byte, error) {
	body, err := decodeBody(r, resp)
	if err != nil {
		return nil, err
	}
	switch r.kind {
	case kLiveField:
		if n := e.h.Grid.Points(); len(body) != 4*n {
			return nil, fmt.Errorf("f32 body has %d bytes, want %d", len(body), 4*n)
		}
	case kLivePoint:
		var s exaclim.SeriesResponse
		if err := json.Unmarshal(body, &s); err != nil {
			return nil, err
		}
		if want := e.params[r.arg].t1; len(s.Values) != want {
			return nil, fmt.Errorf("series has %d values, want %d", len(s.Values), want)
		}
	}
	return body, nil
}

// series returns the oracle's live series of member: Model.EmulateUnder
// under the what-if pathway with the server's member seed.
func (e *liveEnv) series(member int) ([]exaclim.Field, error) {
	if f, ok := e.refs[member]; ok {
		return f, nil
	}
	seed := exaclim.MemberSeed(e.baseSeed, member, e.liveScen)
	f, err := e.model.EmulateUnder(e.whatIf, seed, 0, e.o.scale.liveSteps)
	if err != nil {
		return nil, err
	}
	if e.o.corrupt {
		f[0].Data[0] += 1e-3 * math.Abs(f[0].Data[0])
	}
	if e.refs == nil {
		e.refs = make(map[int][]exaclim.Field)
	}
	e.refs[member] = f
	return f, nil
}

// verify compares one retained response against the oracle: live f32
// fields must equal the float32 narrowing of the emulated field bit for
// bit, and point series the bilinear samples of the emulated fields.
// It returns the served values' relative error against the float64
// reference.
func (e *liveEnv) verify(k kept) (float64, error) {
	p := e.params[k.req.arg]
	ref, err := e.series(p.member)
	if err != nil {
		return 0, err
	}
	switch k.req.kind {
	case kLiveField:
		// Narrowing error is relative to each value: a maximum over the
		// field would depend on where its largest value sits in its binade.
		want := ref[p.t].Data
		worst := 0.0
		for i := range want {
			v := math.Float32frombits(binary.LittleEndian.Uint32(k.body[4*i:]))
			if v != float32(want[i]) {
				return 0, fmt.Errorf("step %d value %d is %v, want float32(%v)", p.t, i, v, want[i])
			}
			if want[i] != 0 {
				worst = max(worst, math.Abs(float64(v)-want[i])/math.Abs(want[i]))
			}
		}
		return worst, nil
	case kLivePoint:
		var s exaclim.SeriesResponse
		if err := json.Unmarshal(k.body, &s); err != nil {
			return 0, err
		}
		theta, phi := (90-p.lat)*math.Pi/180, p.lon*math.Pi/180
		want := make([]float64, p.t1)
		for t := range want {
			want[t] = bilinear(e.h.Grid, ref[t].Data, theta, phi)
		}
		rel, err := relErr(s.Values, want)
		if err == nil && rel > 1e-12 {
			err = fmt.Errorf("point series relative error %.3g exceeds 1e-12", rel)
		}
		return rel, err
	}
	return 0, fmt.Errorf("unknown request kind %d", k.req.kind)
}

func (e *liveEnv) measure(o options) (map[string]float64, tally, error) {
	var t tally
	stop := watchRSS()
	ph := e.s.g.closedLoop(1, time.Duration(o.seconds*float64(time.Second)), e.pager(0))
	peak := stop()
	t.add(ph.t)
	verifyAll(ph.kept, e.verify, &t)
	worst := e.s.g.probe(e.probes, e.verify, &t)
	if len(ph.latMS) == 0 {
		return nil, t, fmt.Errorf("no request completed")
	}
	return map[string]float64{
		"ops_per_s":       ph.rate(),
		"p50_ms":          quantile(ph.latMS, 0.5),
		"p99_ms":          quantile(ph.latMS, 0.99),
		"max_rel_err":     worst,
		"bytes_per_field": float64(len(e.data)) / float64(e.h.Members*e.h.Steps),
		"peak_rss_mb":     peak,
	}, t, nil
}

// layers runs the fixed session script on a fresh untraced server and on
// a fresh traced one. The script is finite and pages ascending from
// step 0, and the cache holds every paged step, so the emulation counts
// it produces are exact.
func (e *liveEnv) layers(o options) (map[string]float64, tally, error) {
	var t tally
	out := zeroLayers()
	script := o.scale.liveScriptSessions

	s0, err := e.serve(false)
	if err != nil {
		return nil, t, err
	}
	ph0 := s0.g.closedLoop(1, time.Hour, e.pager(script))
	s0.close()
	t.add(ph0.t)
	verifyAll(ph0.kept, e.verify, &t)

	s, err := e.serve(true)
	if err != nil {
		return nil, t, err
	}
	defer s.close()
	phases, err := s.tracedRun(o, fmt.Sprintf("live-paging-seed%d.json", o.seed), func(g *gen) []*phase {
		return []*phase{g.closedLoop(1, time.Hour, e.pager(script))}
	}, out, &t)
	if err != nil {
		return nil, t, err
	}
	ph := phases[0]
	verifyAll(ph.kept, e.verify, &t)
	out["obs.trace_overhead"] = ratio(ph.rate(), ph0.rate())
	return out, t, nil
}

// bilinear samples a row-major grid field at (theta, phi) by bilinear
// interpolation, periodic in longitude and clamped at the poles: the
// sampling rule the server documents for live fields, restated here as
// the oracle.
func bilinear(g exaclim.Grid, data []float64, theta, phi float64) float64 {
	fi := theta / math.Pi * float64(g.NLat-1)
	i0 := min(max(int(math.Floor(fi)), 0), g.NLat-2)
	ti := min(max(fi-float64(i0), 0), 1)
	fj := math.Mod(math.Mod(phi, 2*math.Pi)+2*math.Pi, 2*math.Pi) / (2 * math.Pi) * float64(g.NLon)
	j0 := int(math.Floor(fj)) % g.NLon
	tj := fj - math.Floor(fj)
	j1 := (j0 + 1) % g.NLon
	top := data[i0*g.NLon+j0]*(1-tj) + data[i0*g.NLon+j1]*tj
	bot := data[(i0+1)*g.NLon+j0]*(1-tj) + data[(i0+1)*g.NLon+j1]*tj
	return top*(1-ti) + bot*ti
}
