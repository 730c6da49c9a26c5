// Command perfbench is the repository's end-to-end benchmark. One run sets
// up one workload several times, measures its operations for a fixed
// number of seconds, checks every operation's output and prints one JSON
// result line:
//
//	bash perfbench/run.sh --workload paper-grid --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics of a traced run instead, and the spans
// are written to the --out directory. --workload all runs every workload
// untraced and traced and prints every metric as workload/name, the
// layer × workload share table and the tracing overhead. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// spec describes one workload: how to build it and how often to set it up.
type spec struct {
	name string
	// setups is how many times one run sets the workload up; setup_s is
	// the median.
	setups int
	// make builds a fresh, not yet set-up instance for the workload seed.
	make func(seed uint64, tr *tracer) (workload, error)
	// Benchmark seed n runs the workload at seed base + (n-1)*stride, so the
	// default n = 1 gives paper-grid seed 1 (the golden capture) and fleet
	// seed 11 (the fleet smoke point). A fleet gives device i seed s + i,
	// so its stride keeps the device seeds of two benchmark seeds disjoint.
	base, stride uint64
}

func (s spec) workloadSeed(n uint64) uint64 { return s.base + (n-1)*s.stride }

// workload is one set of inputs the benchmark runs.
type workload interface {
	// setup builds the state the operations share; it is timed as setup_s.
	setup() error
	// run measures operations for d. It returns one latency in ms per
	// operation attempted and how many of them failed their call or their
	// output check.
	run(d time.Duration) (lat []float64, failed int, err error)
	// layers returns the workload's per-layer metrics of a traced run,
	// averaged over the ops it measured.
	layers(ops int) map[string]float64
	// close releases everything setup started and waits for it to stop.
	close()
}

var specs = []spec{
	{name: "paper-grid", setups: 3, make: newPaperGrid, base: 1, stride: 1},
	{name: "fleet-capped", setups: 5, make: newFleetCapped, base: 11, stride: fleetSeedStride},
	{name: "fleet-tier", setups: 15, make: newFleetTier, base: 11, stride: fleetSeedStride},
	{name: "live-label", setups: 9, make: newLiveLabel, base: 1, stride: 1},
}

func lookupSpec(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	names := make([]string, 0, len(specs))
	for _, s := range specs {
		names = append(names, s.name)
	}
	return spec{}, fmt.Errorf("unknown workload %q (want one of %v or all)", name, names)
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runReport is everything one measured run produced.
type runReport struct {
	workload  string
	seed      uint64
	attempted int
	failed    int
	endToEnd  map[string]float64
	perLayer  map[string]float64 // nil unless traced
	opMeanMs  float64
	noise     noiseReport
	tracer    *tracer
}

func main() {
	if err := mainErr(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: paper-grid, fleet-capped, fleet-tier, live-label or all")
	seed := fs.Uint64("seed", 1, "benchmark seed; 1 selects the golden paper-grid seed and fleet seed 11")
	seconds := fs.Int("seconds", 10, "how long one run measures operations")
	trace := fs.Int("trace", 0, "1 runs traced and reports per-layer metrics instead of end-to-end ones")
	out := fs.String("out", ".bench_build", "directory the span files of traced runs are written to")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1, got %d", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	fp := fingerprint()
	printComment(stdout, "machine", fp)
	d := time.Duration(*seconds) * time.Second

	if *name == "all" {
		return runAll(stdout, *seed, d, *out, fp)
	}
	sp, err := lookupSpec(*name)
	if err != nil {
		return err
	}
	rep, err := measure(sp, *seed, d, *trace == 1)
	if err != nil {
		return err
	}
	printComment(stdout, "noise", rep.noise)
	res := result{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metric{}}
	if *trace == 1 {
		path, err := writeTrace(*out, rep, fp)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "# spans written to %s\n", path)
		fmt.Fprintf(stdout, "# traced op mean %.3f ms (compare with the untraced op_p50_ms for the tracing overhead)\n", rep.opMeanMs)
		for _, m := range perLayerMetrics {
			res.Metrics[m.name] = metric{Value: rep.perLayer[m.name], Unit: m.unit}
		}
	} else {
		for _, m := range endToEndMetrics {
			res.Metrics[m.name] = metric{Value: rep.endToEnd[m.name], Unit: m.unit}
		}
	}
	printMetrics(stdout, rep.workload, res.Metrics)
	return printJSON(stdout, res)
}

// measure sets a workload up sp.setups times, keeps the last instance and
// measures its operations for d.
func measure(sp spec, seed uint64, d time.Duration, traced bool) (*runReport, error) {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	noise := startNoise()
	wseed := sp.workloadSeed(seed)
	setupS := make([]float64, 0, sp.setups)
	var w workload
	for i := 0; i < sp.setups; i++ {
		if w != nil {
			w.close()
		}
		var err error
		if w, err = sp.make(wseed, tr); err != nil {
			return nil, fmt.Errorf("%s: %w", sp.name, err)
		}
		runtime.GC() // no set-up pays for collecting the one before it
		start := time.Now()
		if err := w.setup(); err != nil {
			w.close()
			return nil, fmt.Errorf("%s setup: %w", sp.name, err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer w.close()

	runtime.GC() // set-up garbage is not charged to the operations
	before := readProc()
	lat, failed, err := w.run(d)
	after := readProc()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", sp.name, err)
	}
	if len(lat) == 0 {
		return nil, fmt.Errorf("%s: no operation completed in %v", sp.name, d)
	}
	ops := float64(len(lat))
	rep := &runReport{
		workload:  sp.name,
		seed:      seed,
		attempted: len(lat),
		failed:    failed,
		opMeanMs:  mean(lat),
		noise:     noise.finish(),
		tracer:    tr,
		endToEnd: map[string]float64{
			"setup_s":         median(setupS),
			"op_p50_ms":       median(lat),
			"cpu_ms_per_op":   (after.cpuSec - before.cpuSec) * 1e3 / ops,
			"alloc_mb_per_op": (after.allocBytes - before.allocBytes) / (1 << 20) / ops,
			"peak_rss_mb":     after.peakRSSMB,
		},
	}
	if traced {
		rep.perLayer = make(map[string]float64, len(perLayerMetrics))
		for _, m := range perLayerMetrics {
			rep.perLayer[m.name] = 0
		}
		for k, v := range w.layers(len(lat)) {
			rep.perLayer[k] = v
		}
		rep.perLayer["runtime.gc_cpu_ms"] = (after.gcCPUSec - before.gcCPUSec) * 1e3 / ops
		rep.perLayer["runtime.gc_cycles"] = (after.gcCycles - before.gcCycles) / ops
	}
	return rep, nil
}

// runAll runs every workload once untraced and once traced, then prints
// every metric as workload/name, the layer × workload share table and the
// tracing overhead.
func runAll(stdout io.Writer, seed uint64, d time.Duration, out string, fp machine) error {
	res := result{Correct: true, Metrics: map[string]metric{}}
	traced := make(map[string]*runReport, len(specs))
	untraced := make(map[string]*runReport, len(specs))
	for _, sp := range specs {
		for _, t := range []bool{false, true} {
			rep, err := measure(sp, seed, d, t)
			if err != nil {
				return err
			}
			res.Attempted += rep.attempted
			res.Failed += rep.failed
			if t {
				traced[sp.name] = rep
				if _, err := writeTrace(out, rep, fp); err != nil {
					return err
				}
			} else {
				untraced[sp.name] = rep
			}
		}
	}
	res.Correct = res.Failed == 0
	for _, sp := range specs {
		u, t := untraced[sp.name], traced[sp.name]
		for _, m := range endToEndMetrics {
			res.Metrics[sp.name+"/"+m.name] = metric{Value: u.endToEnd[m.name], Unit: m.unit}
		}
		for _, m := range perLayerMetrics {
			res.Metrics[sp.name+"/"+m.name] = metric{Value: t.perLayer[m.name], Unit: m.unit}
		}
		printComment(stdout, "noise "+sp.name, u.noise)
	}
	printMetrics(stdout, "", res.Metrics)
	fmt.Fprintln(stdout, "# peak_rss_mb here is the high-water mark of every workload run so far; run a workload alone for its own")
	printShareTable(stdout, traced)
	fmt.Fprintln(stdout, "# tracing overhead: traced minus untraced op_p50_ms")
	for _, sp := range specs {
		u, t := untraced[sp.name].endToEnd["op_p50_ms"], traced[sp.name].endToEnd["op_p50_ms"]
		fmt.Fprintf(stdout, "#   %-13s %10.3f ms  (%+.1f%% of %.3f ms)\n", sp.name, t-u, pct(t-u, u), u)
	}
	return printJSON(stdout, res)
}

// shareLayers are the per-layer time metrics the share table relates to
// each workload's traced mean op time.
var shareLayers = []string{
	"detect.infer_ms", "detect.train_ms", "metrics.finish_ms", "video.render_ms", "core.other_ms",
	"sim.advance_ms", "sim.merge_ms", "sim.serial_ms", "shoggoth.cluster_other_ms",
	"rpc.handler_ms", "rpc.wire_ms", "runtime.gc_cpu_ms",
}

func printShareTable(w io.Writer, traced map[string]*runReport) {
	fmt.Fprintln(w, "# layer share of the traced mean op time, per workload")
	fmt.Fprintf(w, "# %-26s", "layer")
	for _, sp := range specs {
		fmt.Fprintf(w, " %13s", sp.name)
	}
	fmt.Fprintf(w, "  %s\n", "most / least")
	for _, layer := range shareLayers {
		fmt.Fprintf(w, "# %-26s", layer)
		hi, lo := "", ""
		var hiV, loV float64
		for _, sp := range specs {
			r := traced[sp.name]
			v := pct(r.perLayer[layer], r.opMeanMs)
			fmt.Fprintf(w, " %12.1f%%", v)
			if hi == "" || v > hiV {
				hi, hiV = sp.name, v
			}
			if lo == "" || v < loV {
				lo, loV = sp.name, v
			}
		}
		fmt.Fprintf(w, "  %s / %s\n", hi, lo)
	}
}

func pct(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole * 100
}

// printComment prints a diagnostic line: a label and v as JSON.
func printComment(w io.Writer, label string, v any) {
	data, _ := json.Marshal(v) // only ever plain structs of numbers and strings
	fmt.Fprintf(w, "# %s %s\n", label, data)
}

// printMetrics prints one "name value unit" line per metric, sorted, with
// the workload prefixed when given.
func printMetrics(w io.Writer, workload string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		label := n
		if workload != "" {
			label = workload + "/" + n
		}
		fmt.Fprintf(w, "# %-40s %16.4f %s\n", label, ms[n].Value, ms[n].Unit)
	}
}

func printJSON(w io.Writer, res result) error {
	data, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// writeTrace writes a traced run's spans, self times and machine
// fingerprint to out and returns the file's path.
func writeTrace(out string, rep *runReport, fp machine) (string, error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(out, fmt.Sprintf("trace-%s-seed%d.json", rep.workload, rep.seed))
	doc := struct {
		Workload string             `json:"workload"`
		Seed     uint64             `json:"seed"`
		Machine  machine            `json:"machine"`
		Noise    noiseReport        `json:"noise"`
		SelfMs   map[string]float64 `json:"self_ms"`
		Spans    []span             `json:"spans"`
	}{rep.workload, rep.seed, fp, rep.noise, rep.tracer.selfTimes(), rep.tracer.spans}
	data, err := json.Marshal(&doc)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
