// Command benchmark is the repository's benchmark of record. One run
// simulates one workload — a whole core.System built only from public
// constructors — several times in one process, checks that every
// repeat produced the same request outcomes, and prints every metric
// by name with its unit. The last line of standard output is a JSON
// object: end-to-end metrics with --trace 0, per-layer metrics from a
// separately traced run with --trace 1.
//
//	go run . --workload fleet1k-lc --seed 1 --seconds 10 --trace 0
//
// See README.md for the workloads, the metrics and what each layer
// metric is expected to move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// minRepeats is the fewest timed repeats a run makes, however long each
// takes; host metrics are medians over the repeats.
const minRepeats = 3

// setupRepeats is the number of set-ups setup_s is the median of. A
// set-up takes milliseconds, so extra set-ups without a run are made
// to reach it.
const setupRepeats = 31

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: testbed-train | fleet-infer | fleet1k-lc")
	seed := flag.Int64("seed", 1, "workload seed (arrivals and scheduler random streams)")
	seconds := flag.Float64("seconds", 10, "host seconds of timed repeats to measure (at least 3 repeats run)")
	traceFlag := flag.Int("trace", 0, "1 = also make traced repeats and report per-layer metrics")
	spansPath := flag.String("spans", "", "with --trace 1, write the last traced repeat's spans to this file as JSON lines")
	flag.Parse()
	w, err := lookup(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "benchmark: --trace must be 0 or 1")
		os.Exit(2)
	}
	b := &bench{w: w, seed: *seed, out: os.Stdout}
	res := b.measure(time.Duration(*seconds*float64(time.Second)), *traceFlag == 1)
	if *spansPath != "" && b.lastSpans != nil {
		if err := saveSpans(*spansPath, b.lastSpans); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func saveSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeSpans(f, spans); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
