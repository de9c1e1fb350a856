package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"exaclim/internal/obs/trace"
	"exaclim/internal/serve"
)

// counters is a scrape of the server's unlabeled /metrics samples plus
// the float32 field cache counters, which /metrics does not export and
// /v1/info does.
type counters map[string]float64

// scrapeCounters reads /metrics and /v1/info.
func scrapeCounters(hc *http.Client, base string) (counters, error) {
	body, err := getBody(hc, base+"/metrics")
	if err != nil {
		return nil, err
	}
	c := counters{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.ContainsRune(line, '{') {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			continue
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			continue
		}
		c[f[0]] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("parsing /metrics: %w", err)
	}
	body, err = getBody(hc, base+"/v1/info")
	if err != nil {
		return nil, err
	}
	var info serve.InfoResponse
	if err := json.Unmarshal(body, &info); err != nil {
		return nil, fmt.Errorf("parsing /v1/info: %w", err)
	}
	f32 := info.Stats.CacheF32
	c["f32_cache_hits"] = float64(f32.Hits)
	c["f32_cache_misses"] = float64(f32.Misses)
	c["f32_cache_coalesced"] = float64(f32.Coalesced)
	c["f32_cache_evictions"] = float64(f32.Evictions)
	return c, nil
}

// delta returns after[name] - before[name].
func delta(before, after counters, name string) float64 { return after[name] - before[name] }

// counterLayers derives the counter-based per-layer metrics of a
// serving run from the scrapes before and after it.
func counterLayers(before, after counters, out map[string]float64) {
	d := func(n string) float64 { return delta(before, after, n) }
	hits := d("exaclim_cache_hits_total") + d("f32_cache_hits")
	misses := d("exaclim_cache_misses_total") + d("f32_cache_misses")
	coal := d("exaclim_cache_coalesced_total") + d("f32_cache_coalesced")
	out["serve.cache.hit_ratio"] = ratio(hits, hits+misses+coal)
	out["serve.cache.evictions"] = d("exaclim_cache_evictions_total") + d("f32_cache_evictions")
	out["serve.cache.coalesced"] = coal
	eh, em := d("exaclim_evalcache_hits_total"), d("exaclim_evalcache_misses_total")
	out["serve.evalcache.hit_ratio"] = ratio(eh, eh+em)
	out["archive.step_decodes"] = d("exaclim_archive_step_decodes_total")
	ch, cm := d("exaclim_archive_chunk_hits_total"), d("exaclim_archive_chunk_misses_total")
	out["archive.chunk_hit_ratio"] = ratio(ch, ch+cm)
	out["archive.read_bytes"] = d("exaclim_archive_read_bytes_total")
	out["archive.chunk_amortized"] = d("exaclim_archive_chunk_amortized_total")
	out["sht.synthesis.fields"] = d("exaclim_field_loads_total")
	out["emulator.live.loads"] = d("exaclim_live_loads_total")
}

// fetchTraces reads the server's captured span trees.
func fetchTraces(hc *http.Client, base string) (trace.StoreJSON, error) {
	var doc trace.StoreJSON
	body, err := getBody(hc, base+"/debug/traces")
	if err != nil {
		return doc, err
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return doc, fmt.Errorf("parsing /debug/traces: %w", err)
	}
	return doc, nil
}

// attrInt reads an integer span attribute (JSON numbers decode as
// float64), or def when absent.
func attrInt(sp trace.SpanJSON, key string, def float64) float64 {
	if v, ok := sp.Attrs[key].(float64); ok {
		return v
	}
	return def
}

// spanLayers derives the span-based per-layer metrics of a traced
// serving run. Every request's server trace is joined to its client
// span by trace id. Serving stages run sequentially within a request,
// so the time a span's children cover is the sum of their durations.
// It returns the number of client requests whose server trace was
// found and the synthesis block sizes seen.
func spanLayers(doc trace.StoreJSON, client map[string]clientSpan, out map[string]float64) (joined int, blocks []int) {
	var rootSelf, transport float64
	var encMS, encN, waitMS, waitN float64
	var decMS, decSteps, synMS, synN, evalUS, evalPS float64
	var emuMS, emuN, emuSteps float64
	seenBlock := map[int]bool{}
	for _, tr := range doc.Traces {
		cs, ok := client[tr.TraceID]
		if !ok || len(tr.Spans) == 0 {
			continue
		}
		joined++
		root := tr.Spans[0]
		childSum := 0.0
		for _, sp := range tr.Spans[1:] {
			if sp.ParentID == root.SpanID {
				childSum += sp.DurationMS
			}
			switch sp.Name {
			case "encode":
				encMS += sp.DurationMS
				encN++
			case "cache_wait":
				waitMS += sp.DurationMS
				waitN++
			case "decode":
				decMS += sp.DurationMS
				decSteps += attrInt(sp, "steps", 1)
			case "synthesis":
				synMS += sp.DurationMS
				synN++
				if b := int(attrInt(sp, "block", 0)); b > 0 && !seenBlock[b] {
					seenBlock[b] = true
					blocks = append(blocks, b)
				}
			case "eval":
				evalUS += sp.DurationMS * 1000
				evalPS += attrInt(sp, "steps", 1) * attrInt(sp, "points", 1)
			case "emulate":
				emuMS += sp.DurationMS
				emuN++
				emuSteps += attrInt(sp, "steps", 0)
			}
		}
		rootSelf += max(0, root.DurationMS-childSum)
		transport += ms(cs.done.Sub(cs.sent)) - root.DurationMS
	}
	n := float64(joined)
	out["serve.root_self_ms"] = ratio(rootSelf, n)
	out["serve.transport_ms"] = ratio(transport, n)
	out["serve.encode.ms"] = ratio(encMS, encN)
	out["serve.cache.wait_ms"] = ratio(waitMS, waitN)
	out["archive.decode.ms_per_step"] = ratio(decMS, decSteps)
	out["sht.synthesis.ms_per_field"] = ratio(synMS, synN)
	out["sht.eval.us_per_point_step"] = ratio(evalUS, evalPS)
	out["emulator.live.ms"] = ratio(emuMS, emuN)
	out["emulator.live.steps"] = emuSteps
	sort.Ints(blocks)
	return joined, blocks
}

// interval is a [start, end) stretch of wall time.
type interval struct{ start, end time.Time }

// covered returns the total length of the union of ivs — the time at
// least one of them was running. ivs is sorted in place.
func covered(ivs []interval) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start.Before(ivs[j].start) })
	var total time.Duration
	var cur interval
	for i, iv := range ivs {
		if i == 0 || iv.start.After(cur.end) {
			if i > 0 {
				total += cur.end.Sub(cur.start)
			}
			cur = iv
			continue
		}
		if iv.end.After(cur.end) {
			cur.end = iv.end
		}
	}
	if len(ivs) > 0 {
		total += cur.end.Sub(cur.start)
	}
	return total
}

// zeroLayers sets every per-layer metric to 0, the value of a layer a
// workload does not exercise; workloads then fill in their own.
func zeroLayers() map[string]float64 {
	out := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		out[d.name] = 0
	}
	return out
}
