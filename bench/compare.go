package main

import "fmt"

// benchmarkFile is the part of BENCHMARK.json the comparison needs.
type benchmarkFile struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// compareFiles prints, per workload and end-to-end metric, the medians of two
// result sets, how much worse the new one is, the bound from BENCHMARK.json
// and a verdict: "worse" when the new median is worse by more than the
// bound, "unresolved" when either set's own spread (quartile distance over
// median) is wider than the bound and so cannot tell, "ok" otherwise.
// lat_p95_ms is "not judged" where a run of either set has fewer than
// tailSamples samples: there it is one slow statement, which qps carries.
// Any "worse" is an error.
func compareFiles(paths []string) error {
	if len(paths) != 2 {
		return fmt.Errorf("-compare takes two result files: old.json new.json")
	}
	var spec benchmarkFile
	if err := readJSON("BENCHMARK.json", &spec); err != nil {
		return err
	}
	var sets [2]resultSet
	for i, p := range paths {
		if err := readJSON(p, &sets[i]); err != nil {
			return err
		}
	}
	// values returns a metric's value in each timed run of a workload, and
	// the fewest latency samples any of those runs had.
	values := func(set resultSet, workload, name string) (xs []float64, samples int) {
		for _, r := range set.Runs {
			if m, ok := r.Result.Metrics[name]; ok && r.Workload == workload && r.Trace == 0 {
				xs = append(xs, m.Value)
				if len(xs) == 1 || r.Samples < samples {
					samples = r.Samples
				}
			}
		}
		return xs, samples
	}

	for i, label := range []string{"old", "new"} {
		if len(sets[i].Runs) == 0 {
			return fmt.Errorf("%s: no runs", paths[i])
		}
		h := sets[i].Runs[0].Header
		fmt.Printf("%s: commit %s  %s  %d cpus  GOMAXPROCS %d  %s\n", label, h.GitHead, h.CPUModel, h.NProc, h.GOMAXPROCS, h.GoVersion)
	}
	fmt.Printf("%-14s %-22s %12s %12s %9s %7s %7s  %s\n", "workload", "metric", "old", "new", "worse by", "spread", "bound", "verdict")
	worse := 0
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			a, na := values(sets[0], w.Name, m.Name)
			b, nb := values(sets[1], w.Name, m.Name)
			if len(a) == 0 || len(b) == 0 {
				return fmt.Errorf("%s %s: missing from a result file", w.Name, m.Name)
			}
			ma, mb := median(a), median(b)
			delta := (mb - ma) / ma
			if m.Better == "higher" {
				delta = -delta
			}
			spread := quartileSpread(a)
			if s := quartileSpread(b); s > spread {
				spread = s
			}
			verdict := "ok"
			switch {
			case m.Name == "lat_p95_ms" && (na < tailSamples || nb < tailSamples):
				verdict = "not judged"
			case delta > m.Bound:
				verdict = "worse"
				worse++
			case spread > m.Bound:
				verdict = "unresolved"
			}
			fmt.Printf("%-14s %-22s %12.4f %12.4f %+8.1f%% %6.1f%% %6.1f%%  %s\n",
				w.Name, m.Name, ma, mb, 100*delta, 100*spread, 100*m.Bound, verdict)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d metric(s) worse than the bound allows", worse)
	}
	return nil
}
