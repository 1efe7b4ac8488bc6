// Command bench is the repository's benchmark: four workloads over the TPC-H
// harness with every engine knob at its default, end-to-end metrics from a
// timed phase with tracing off, per-layer metrics from a separate traced
// run, and a plaintext oracle behind every result. See README.md.
//
//	go run ./bench -workload ua_hot -seed 1 -seconds 20 -trace 0   one run
//	go run ./bench -out bench/out/a.json                           a full set
//	go run ./bench -compare bench/out/a.json bench/out/b.json      two sets
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// record is one run as stored in a result file.
type record struct {
	Header   header     `json:"header"`
	Workload string     `json:"workload"`
	Seed     int64      `json:"seed"`
	Seconds  float64    `json:"seconds"`
	Trace    int        `json:"trace"`
	Passes   int        `json:"passes"`
	Samples  int        `json:"samples"`
	Result   resultLine `json:"result"`
}

const (
	// defaultSeconds is run_seconds of BENCHMARK.json.
	defaultSeconds = 20
	// timedRuns is how many timed runs of each workload a full set holds:
	// enough for quartiles, and with the traced run about ten minutes in all.
	timedRuns = 5
	// summaryFormat is the first line a run prints; a full set reads the
	// counts of its records back from it.
	summaryFormat = "workload %s seed %d trace %d passes %d samples %d\n"
)

// resultSet is what -out writes and -compare reads: every run of one
// invocation over all workloads.
type resultSet struct {
	Runs []record `json:"runs"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: all four, each in its own process)")
		seed    = flag.Int64("seed", 1, "seed of the generated data, statements and client orders")
		seconds = flag.Float64("seconds", defaultSeconds, "least length of the timed phase; it ends on a pass boundary")
		trace   = flag.Int("trace", 0, "0: timed phase, end-to-end metrics; 1: traced run, per-layer metrics")
		out     = flag.String("out", "bench/out/results.json", "without -workload: result file to write")
		compare = flag.Bool("compare", false, "compare two result files: -compare old.json new.json")
	)
	flag.Parse()
	var err error
	switch {
	case *compare:
		err = compareFiles(flag.Args())
	case *name == "":
		err = runAll(*seed, *seconds, *out)
	default:
		err = runOne(*name, *seed, *seconds, *trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOne runs one workload in this process and prints every metric by name
// with its unit; the last line of standard output is the result object.
func runOne(name string, seed int64, seconds float64, trace int) error {
	if p := runtime.GOMAXPROCS(0); p < 2 {
		return fmt.Errorf("refusing to record: GOMAXPROCS is %d, and the parallel runtime, the crypto worker pool and the two-client workload need at least 2 to show what they do", p)
	}
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	var res *result
	if trace == 0 {
		res, err = runTimed(w, seed, seconds)
	} else {
		res, err = runTraced(w, seed)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}

	fmt.Printf(summaryFormat, name, seed, trace, res.Passes, res.Samples)
	for _, n := range sortedNames(res.Metrics) {
		fmt.Printf("  %-32s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	for _, n := range res.Notes {
		fmt.Println("note:", n)
	}
	for _, f := range res.Failures {
		fmt.Println("FAILED:", f)
	}
	line, err := json.Marshal(res.resultLine)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed the oracle check", name, res.Failed, res.Attempted)
	}
	return nil
}

// runAll records a full set: for each workload, timedRuns timed runs and one
// traced run, each in a process of its own so peak RSS and the process-wide
// crypto counters belong to one workload.
func runAll(seed int64, seconds float64, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var set resultSet
	head := hostHeader()
	for _, w := range workloads {
		for r := 0; r <= timedRuns; r++ {
			rec := record{Header: head, Workload: w.name, Seed: seed, Seconds: seconds}
			if r == timedRuns {
				rec.Trace = 1
			}
			cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(seed),
				"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(rec.Trace))
			var stdout bytes.Buffer
			cmd.Stdout, cmd.Stderr = io.MultiWriter(os.Stdout, &stdout), os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s trace %d: %w", w.name, rec.Trace, err)
			}
			if err := rec.read(stdout.String()); err != nil {
				return fmt.Errorf("%s trace %d: %w", w.name, rec.Trace, err)
			}
			set.Runs = append(set.Runs, rec)
		}
	}
	if err := writeJSON(out, set); err != nil {
		return err
	}
	fmt.Println("wrote", out)
	return nil
}

// read fills the record's counts and result from what a run printed: the
// summary on the first line, the result object on the last.
func (rec *record) read(stdout string) error {
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	var (
		name        string
		seed, trace int64
	)
	if _, err := fmt.Sscanf(lines[0]+"\n", summaryFormat, &name, &seed, &trace, &rec.Passes, &rec.Samples); err != nil {
		return fmt.Errorf("summary line %q: %w", lines[0], err)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec.Result); err != nil {
		return fmt.Errorf("result line: %w", err)
	}
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
