package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// TestSelfCheck runs every workload at tiny sizes, untraced and traced,
// and with a wrong expected value injected into the oracle.
func TestSelfCheck(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("runs every workload end to end; skipped in -short and -race runs")
	}
	var log strings.Builder
	if err := selfCheck(&log); err != nil {
		t.Fatalf("%v\n%s", err, log.String())
	}
	t.Log(log.String())
}

// TestBenchmarkJSONMatchesMetrics pins BENCHMARK.json to the workloads
// and metric tables the benchmark prints.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for name := range workloads {
		want = append(want, name)
	}
	sort.Strings(names)
	sort.Strings(want)
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, want)
	}
	for _, c := range []struct {
		section string
		got     []metric
		want    []metricDef
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d printed", c.section, len(c.got), len(c.want))
			continue
		}
		for i, m := range c.got {
			if m.Name != c.want[i].name || m.Unit != c.want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), benchmark prints %s (%s)",
					c.section, i, m.Name, m.Unit, c.want[i].name, c.want[i].unit)
			}
		}
	}
}
