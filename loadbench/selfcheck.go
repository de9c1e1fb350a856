package main

import (
	"fmt"
	"io"
	"sort"
)

// selfCheck runs every workload at tiny sizes, untraced and traced, and
// checks the output contract: every named metric is emitted with its
// unit, every run is correct, and an injected wrong expected value is
// counted as a failure.
func selfCheck(log io.Writer) error {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, traced := range []bool{false, true} {
			o := options{seed: 7, seconds: 0.4, trace: traced, scale: tinyScale}
			res, err := run(name, o)
			if err != nil {
				return fmt.Errorf("%s trace=%v: %w", name, traced, err)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if err := checkResult(res, defs); err != nil {
				return fmt.Errorf("%s trace=%v: %w", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 {
				return fmt.Errorf("%s trace=%v: %d of %d operations failed", name, traced, res.Failed, res.Attempted)
			}
			fmt.Fprintf(log, "selfcheck: %s trace=%v: %d operations, %d metrics\n", name, traced, res.Attempted, len(res.Metrics))
		}
		o := options{seed: 7, seconds: 0.4, scale: tinyScale, corrupt: true}
		res, err := run(name, o)
		if err != nil {
			return fmt.Errorf("%s with a wrong expected value: %w", name, err)
		}
		if res.Correct || res.Failed == 0 {
			return fmt.Errorf("%s: a wrong expected value was not counted as a failure", name)
		}
		fmt.Fprintf(log, "selfcheck: %s with a wrong expected value: %d of %d operations failed\n", name, res.Failed, res.Attempted)
	}
	return nil
}

// checkResult verifies a result carries exactly the named metrics, each
// with its unit.
func checkResult(res result, defs []metricDef) error {
	if res.Attempted < 1 {
		return fmt.Errorf("attempted %d operations", res.Attempted)
	}
	if len(res.Metrics) != len(defs) {
		return fmt.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s missing", d.name)
		}
		if m.Unit != d.unit {
			return fmt.Errorf("metric %s has unit %q, want %q", d.name, m.Unit, d.unit)
		}
	}
	return nil
}
