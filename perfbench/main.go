// Command perfbench is the repository benchmark. One invocation runs one
// named workload with a seeded input draw for a fixed time, checks that the
// system's outputs are correct, and prints every metric named in
// BENCHMARK.json at the repository root:
//
//	bash perfbench/run.sh --workload profile --seed 1 --seconds 10 --trace 0
//
// run.sh builds this package from source and runs it from the repository
// root. Human-readable report lines come first; the last line of standard
// output is one JSON object with the keys correct, attempted, failed and
// metrics. With --trace 0 the metrics are the end-to-end metrics; with
// --trace 1 the run repeats the workload with span tracing on and reports
// the per-layer metrics, writing the spans under --out. A failed
// correctness check prints the failure to standard error, prints no
// metrics and exits 1.
//
// The workloads and metrics are described in README.md beside this file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// workers is the closed-loop workers and connections the load uses: one
// per core of the two-core machine the benchmark was sized on, so the
// ingest workload has two producers.
const workers = 2

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	small    bool   // smallest size, for tests: test-scale programs, tiny draws
	root     string // repository root (holds ref_results.txt)
	out      string // directory for trace files and durable stores
	hooks    hooks
}

// hooks let the benchmark's tests corrupt a reference, to show that each
// correctness check fires. Real runs leave them nil.
type hooks struct {
	counts func(counts []int64)   // alters acknowledged counts before the local merge
	log    func(dir string) error // alters the durable log between close and reopen
}

// outcome is what one pass of a workload measured. Metric values are keyed
// by the names in the catalog (metrics.go); the report lines are printed
// before the JSON result.
type outcome struct {
	attempted, failed int64
	metrics           map[string]float64
	report            []string
}

func newOutcome() *outcome { return &outcome{metrics: map[string]float64{}} }

func (o *outcome) set(name string, v float64) { o.metrics[name] = v }

func (o *outcome) note(format string, args ...any) {
	o.report = append(o.report, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its pass. A pass sets up (several
// times when measuring setup_s), runs the timed section, checks the
// outputs and returns the measurements; tr is nil for untraced passes.
var workloads = map[string]func(cfg config, tr *tracer) (*outcome, error){
	"profile": runProfile,
	"ingest":  runIngest,
	"query":   runQuery,
	"durable": runDurable,
}

func main() {
	cfg := config{root: ".", out: ".bench_out"}
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: profile, ingest, query or durable")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the input draw")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed section in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	cfg.trace = trace == 1
	if _, ok := workloads[cfg.workload]; !ok || (trace != 0 && trace != 1) || cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload profile|ingest|query|durable --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	res, report, err := execute(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", cfg.workload, cfg.seed, err)
		os.Exit(1)
	}
	for _, line := range report {
		fmt.Println(line)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// execute runs the configured workload and assembles the result. An
// untraced run reports the end-to-end metrics of one pass. A traced run
// makes an untraced pass and then a traced pass on the same seed; it
// reports the traced pass's per-layer metrics plus the tracing overhead
// (how much longer the traced pass's median op took), and writes the
// spans.
func execute(cfg config) (*result, []string, error) {
	pass := workloads[cfg.workload]
	var report []string
	header := fmt.Sprintf("perfbench: workload=%s seed=%d seconds=%g trace=%v small=%v workers=%d",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, cfg.small, workers)
	report = append(report, header)

	plain, err := pass(cfg, nil)
	if err != nil {
		return nil, nil, err
	}
	out := plain
	set := endToEnd
	if cfg.trace {
		tr := newTracer()
		traced, err := pass(cfg, tr)
		if err != nil {
			return nil, nil, fmt.Errorf("traced pass: %w", err)
		}
		traced.set("bench.trace_overhead_pct", 100*(traced.metrics["op_p50_ms"]/plain.metrics["op_p50_ms"]-1))
		path, err := tr.write(cfg)
		if err != nil {
			return nil, nil, err
		}
		report = append(report, plain.report...)
		report = append(report, "--- traced pass ---")
		traced.note("spans: %d written to %s", tr.len(), path)
		out = traced
		set = perLayer
	}
	report = append(report, out.report...)

	res := &result{Correct: true, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}}
	for _, m := range set {
		v, ok := out.metrics[m.name]
		if !ok && !cfg.trace {
			return nil, nil, fmt.Errorf("end-to-end metric %s was not measured", m.name)
		}
		// A per-layer metric a workload does not exercise reads 0: that
		// layer did no work there.
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	other := perLayer
	if cfg.trace {
		other = endToEnd
	}
	report = append(report, "in the result:")
	report = append(report, metricLines(set, out.metrics)...)
	report = append(report, "also measured:")
	report = append(report, metricLines(other, out.metrics)...)
	return res, report, nil
}

// metricLines renders, in catalog order, the metrics of defs that vals
// holds as "name value unit" lines.
func metricLines(defs []metricDef, vals map[string]float64) []string {
	var lines []string
	for _, m := range defs {
		if v, ok := vals[m.name]; ok {
			lines = append(lines, fmt.Sprintf("  %-40s %14.6g %s", m.name, v, m.unit))
		}
	}
	return lines
}

// deadline returns when a timed section that starts now must stop.
func (cfg config) deadline() time.Time {
	return time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
}
