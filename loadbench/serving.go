package main

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"time"

	"exaclim"
)

// serving is an in-process server over an in-memory archive, behind a
// real loopback listener, with the generator that loads it.
type serving struct {
	srv  *http.Server
	ln   net.Listener
	done chan struct{}
	g    *gen
}

// startServing builds a server, starts it on an ephemeral loopback port,
// connects a generator of `users` connections and warms the server with
// the warm requests. A traced server samples every request and keeps
// every trace for /debug/traces.
func startServing(data []byte, model *exaclim.Model, cfg exaclim.ServeConfig, traced bool, users int,
	warm []*request, seed int64, check func(*request, *response) ([]byte, error)) (*serving, error) {
	r, err := exaclim.NewArchiveReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return nil, err
	}
	if traced {
		cfg.TraceSampleRate = 1
		cfg.EnableTraceDebug = true
		cfg.TraceStoreCapacity = 1 << 17
	}
	srv, err := exaclim.NewServer(r, model, cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &serving{
		srv:  &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		ln:   ln,
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	s.g = newGen(ln.Addr().String(), users, seed, check)
	if ph := s.g.closedLoop(-1, time.Minute, seqNext(warm)); ph.t.failed > 0 {
		s.close()
		return nil, fmt.Errorf("warm-up failed: %v", ph.t.notes)
	}
	s.g.traced = traced
	return s, nil
}

// close stops the server and waits for its accept loop to exit.
func (s *serving) close() {
	s.g.close()
	s.srv.Close()
	<-s.done
}

// tracedRun runs load against a traced server and fills out with the
// per-layer metrics of the serve, archive, sht and emulator layers: the
// /metrics counter deltas across the load and the spans of every
// request, joined to the client's by trace id. The spans are written to
// traceFile under o.traceDir.
func (s *serving) tracedRun(o options, traceFile string, load func(g *gen) []*phase, out map[string]float64, t *tally) ([]*phase, error) {
	before, err := scrapeCounters(s.g.hc, s.g.base)
	if err != nil {
		return nil, err
	}
	phases := load(s.g)
	after, err := scrapeCounters(s.g.hc, s.g.base)
	if err != nil {
		return nil, err
	}
	doc, err := fetchTraces(s.g.hc, s.g.base)
	if err != nil {
		return nil, err
	}
	client := make(map[string]clientSpan)
	var bodyB, ok int64
	for _, ph := range phases {
		t.add(ph.t)
		bodyB += ph.bodyB
		ok += ph.ok
		for k, v := range ph.spans {
			client[k] = v
		}
	}
	counterLayers(before, after, out)
	joined, blocks := spanLayers(doc, client, out)
	if joined != len(client) {
		t.fail("%d of %d traced requests have no server trace", len(client)-joined, len(client))
	}
	out["serve.encode.bytes"] = ratio(float64(bodyB), float64(ok))
	if len(blocks) > 0 {
		writeJSONLine(o.stampw, map[string]any{"stamp": true, "server_synth_blocks": blocks})
	}
	writeTraceFile(o.traceDir, traceFile, doc)
	return phases, nil
}

// verifyAll runs an oracle over retained responses, counting each wrong
// answer as a failed operation, and returns the largest relative error
// among the right ones.
func verifyAll(kept []kept, verify func(kept) (float64, error), t *tally) float64 {
	worst := 0.0
	for _, k := range kept {
		rel, err := verify(k)
		if err != nil {
			t.fail("%s: %v", k.req.path, err)
			continue
		}
		worst = max(worst, rel)
	}
	return worst
}

// probe sends a fixed probe set and returns its largest relative error
// against the oracle.
func (g *gen) probe(probes []*request, verify func(kept) (float64, error), t *tally) float64 {
	ph := g.closedLoop(3, time.Hour, seqNext(probes))
	t.add(ph.t)
	if len(ph.kept) != len(probes) {
		t.fail("only %d of %d probes answered", len(ph.kept), len(probes))
	}
	return verifyAll(ph.kept, verify, t)
}
