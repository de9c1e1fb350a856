package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The load generator ("gen" layer): one process, at most `users`
// connections, a seeded request sequence. Latency is timed from when a
// request was due — its scheduled send time in an open loop, its actual
// send in a closed loop — to the end of its body.

// request is one HTTP request of a workload's seeded sequence.
type request struct {
	path   string // path and query
	gzip   bool   // Accept-Encoding: gzip; otherwise identity
	kind   int    // workload-defined request kind
	arg    int    // workload-defined parameter index
	sample bool   // keep the body for the post-run oracle check
}

// response is what the generator hands the shape check.
type response struct {
	status   int
	encoding string // Content-Encoding
	header   http.Header
	body     []byte // as received on the wire (compressed when gzip)
}

// kept is a sampled response retained for the oracle.
type kept struct {
	req  *request
	body []byte // decoded (gunzipped) body
}

// clientSpan is the client side of one traced request.
type clientSpan struct{ sent, done time.Time }

// phase is the outcome of one load phase.
type phase struct {
	latMS   []float64 // latency of OK responses, from due time
	lateMS  []float64 // open loop: send time minus due time
	ok      int64
	t       tally
	elapsed time.Duration
	bodyB   int64 // body bytes received
	kept    []kept
	spans   map[string]clientSpan // traced: trace id -> client span
}

// keepCap bounds the sampled bodies a phase retains for the oracle.
const keepCap = 256

// maxUsers is the live-paging load's connection count on machines with
// at least as many cores; it never exceeds nproc.
const maxUsers = 2

// loadUsers returns the number of users (connections) of the
// live-paging load.
func loadUsers() int { return max(1, min(maxUsers, runtime.NumCPU())) }

// gen issues a workload's requests against one server.
type gen struct {
	hc     *http.Client
	tr     *http.Transport
	base   string
	users  int
	traced bool
	seed   int64
	// check validates every response's status and shape and returns its
	// decoded body.
	check func(r *request, resp *response) ([]byte, error)
}

// newGen builds a generator with `users` keep-alive connections to addr.
// Compression is never negotiated implicitly: every request states its
// Accept-Encoding.
func newGen(addr string, users int, seed int64, check func(*request, *response) ([]byte, error)) *gen {
	tr := &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		MaxConnsPerHost:     users,
		MaxIdleConns:        users,
		MaxIdleConnsPerHost: users,
		IdleConnTimeout:     time.Minute,
		DisableCompression:  true,
	}
	return &gen{
		hc:    &http.Client{Transport: tr, Timeout: 60 * time.Second},
		tr:    tr,
		base:  "http://" + addr,
		users: users,
		seed:  seed,
		check: check,
	}
}

// close drops the generator's idle connections.
func (g *gen) close() { g.tr.CloseIdleConnections() }

// userState is one user's private accumulators, merged after the phase.
type userState struct {
	buf   bytes.Buffer
	rng   *rand.Rand // trace ids
	p     phase
	kept  int
	spans map[string]clientSpan
}

func (g *gen) newUser(u, phaseID int) *userState {
	us := &userState{rng: rand.New(rand.NewSource(g.seed*1_000_003 + int64(phaseID)*7919 + int64(u)))}
	if g.traced {
		us.spans = make(map[string]clientSpan)
	}
	return us
}

// send issues one request and accounts its outcome against due.
func (g *gen) send(us *userState, r *request, due time.Time, open bool) {
	us.p.t.attempted++
	req, err := http.NewRequestWithContext(context.Background(), http.MethodGet, g.base+r.path, nil)
	if err != nil {
		us.p.t.fail("%s: %v", r.path, err)
		return
	}
	if r.gzip {
		req.Header.Set("Accept-Encoding", "gzip")
	} else {
		req.Header.Set("Accept-Encoding", "identity")
	}
	var traceID string
	if g.traced {
		var tid [16]byte
		var sid [8]byte
		us.rng.Read(tid[:])
		us.rng.Read(sid[:])
		traceID = fmt.Sprintf("%x", tid)
		req.Header.Set("Traceparent", fmt.Sprintf("00-%s-%x-01", traceID, sid))
	}
	sent := time.Now()
	if open {
		us.p.lateMS = append(us.p.lateMS, ms(sent.Sub(due)))
	} else {
		due = sent
	}
	resp, err := g.hc.Do(req)
	if err != nil {
		us.p.t.fail("%s: %v", r.path, err)
		return
	}
	us.buf.Reset()
	_, err = us.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	done := time.Now()
	if err != nil {
		us.p.t.fail("%s: reading body: %v", r.path, err)
		return
	}
	body := us.buf.Bytes()
	us.p.bodyB += int64(len(body))
	if g.traced {
		us.spans[traceID] = clientSpan{sent: sent, done: done}
	}
	rr := &response{status: resp.StatusCode, encoding: resp.Header.Get("Content-Encoding"), header: resp.Header, body: body}
	decoded, err := g.check(r, rr)
	if err != nil {
		us.p.t.fail("%s: %v", r.path, err)
		return
	}
	us.p.ok++
	us.p.latMS = append(us.p.latMS, ms(done.Sub(due)))
	if r.sample && us.kept < keepCap/g.users {
		us.kept++
		us.p.kept = append(us.p.kept, kept{req: r, body: append([]byte(nil), decoded...)})
	}
}

// merge folds the users' accumulators into one phase.
func (g *gen) merge(users []*userState, elapsed time.Duration) *phase {
	p := &phase{elapsed: elapsed}
	if g.traced {
		p.spans = make(map[string]clientSpan)
	}
	for _, us := range users {
		p.latMS = append(p.latMS, us.p.latMS...)
		p.lateMS = append(p.lateMS, us.p.lateMS...)
		p.ok += us.p.ok
		p.t.add(us.p.t)
		p.bodyB += us.p.bodyB
		p.kept = append(p.kept, us.p.kept...)
		for k, v := range us.spans {
			p.spans[k] = v
		}
	}
	return p
}

// closedLoop runs g.users users, each sending its next request as soon
// as the previous one completed, until next returns nil or the deadline
// passes (requests in flight at the deadline complete and count).
func (g *gen) closedLoop(phaseID int, d time.Duration, next func(user int) *request) *phase {
	users := make([]*userState, g.users)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for u := range users {
		users[u] = g.newUser(u, phaseID)
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				r := next(u)
				if r == nil {
					return
				}
				g.send(users[u], r, time.Time{}, false)
			}
		}(u)
	}
	wg.Wait()
	return g.merge(users, time.Since(start))
}

// scheduled is one open-loop arrival.
type scheduled struct {
	at  time.Duration // offset from the phase start
	req *request
}

// openLoop sends every scheduled request at its due time over g.users
// connections. A request whose connections are all busy waits; its
// latency still counts from the due time, so a stall shows in every
// request queued behind it.
func (g *gen) openLoop(phaseID int, sched []scheduled) *phase {
	users := make([]*userState, g.users)
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for u := range users {
		users[u] = g.newUser(u, phaseID)
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(sched) {
					return
				}
				due := start.Add(sched[i].at)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				g.send(users[u], sched[i].req, due, true)
			}
		}(u)
	}
	wg.Wait()
	return g.merge(users, time.Since(start))
}

// rate returns the phase's OK responses per second.
func (p *phase) rate() float64 { return float64(p.ok) / p.elapsed.Seconds() }

// poissonSchedule draws arrivals at `rate` per second for d, requests
// taken in order from reqs (wrapping when exhausted).
func poissonSchedule(rng *rand.Rand, rate float64, d time.Duration, reqs []*request) []scheduled {
	var out []scheduled
	at := 0.0
	for i := 0; ; i++ {
		at += rng.ExpFloat64() / rate
		if at >= d.Seconds() {
			return out
		}
		out = append(out, scheduled{at: time.Duration(at * float64(time.Second)), req: reqs[i%len(reqs)]})
	}
}

// gunzip decodes a gzip body completely, verifying its checksum.
func gunzip(body []byte) ([]byte, error) {
	zr, err := gzip.NewReader(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	out, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	if err := zr.Close(); err != nil {
		return nil, err
	}
	return out, nil
}

// decodeBody checks the response's status and negotiated encoding and
// returns the identity body: a request that asked for gzip must get a
// gzip body that round-trips, one that asked for identity must not.
func decodeBody(r *request, resp *response) ([]byte, error) {
	if resp.status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %.200s", resp.status, resp.body)
	}
	gz := resp.encoding == "gzip"
	if gz != r.gzip {
		return nil, fmt.Errorf("asked gzip=%v, got Content-Encoding %q", r.gzip, resp.encoding)
	}
	if !gz {
		return resp.body, nil
	}
	out, err := gunzip(resp.body)
	if err != nil {
		return nil, fmt.Errorf("gzip body does not round-trip: %w", err)
	}
	return out, nil
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// getBody fetches one admin or probe URL with an identity body.
func getBody(hc *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept-Encoding", "identity")
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return body, nil
}
