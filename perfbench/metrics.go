package main

import (
	"bufio"
	"bytes"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// metricDef names one reported metric. The lists below are the benchmark's
// contract and must match BENCHMARK.json (checked by TestMetricsMatchManifest).
type metricDef struct {
	name, unit, better string
}

// endToEndMetrics are what a user of the system sees, measured untraced.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"op_p50_ms", "ms", "lower"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"alloc_mb_per_op", "MB", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayerMetrics are measured in a traced run, per operation unless the
// name says otherwise. A layer a workload does not exercise reads 0.
var perLayerMetrics = []metricDef{
	{"detect.infer_ms", "ms", "lower"},
	{"detect.infer_frames", "count", "lower"},
	{"detect.train_ms", "ms", "lower"},
	{"detect.train_steps", "count", "lower"},
	{"metrics.finish_ms", "ms", "lower"},
	{"video.render_ms", "ms", "lower"},
	{"core.other_ms", "ms", "lower"},
	{"detect.pretrain_s", "s", "lower"},
	{"sim.advance_ms", "ms", "lower"},
	{"sim.merge_ms", "ms", "lower"},
	{"sim.serial_ms", "ms", "lower"},
	{"shoggoth.cluster_other_ms", "ms", "lower"},
	{"sim.events", "count", "lower"},
	{"sim.epochs", "count", "lower"},
	{"cloud.batches", "count", "higher"},
	{"cloud.dropped_batches", "count", "lower"},
	{"cloud.served_pct", "%", "higher"},
	{"cloud.busy_s", "s", "lower"},
	{"cloud.queue_delay_mean_s", "s", "lower"},
	{"scenario.configs_ms", "ms", "lower"},
	{"rpc.handler_ms", "ms", "lower"},
	{"rpc.client_ms", "ms", "lower"},
	{"rpc.client_p90_ms", "ms", "lower"},
	{"rpc.wire_ms", "ms", "lower"},
	{"rpc.rejected", "count", "lower"},
	{"rpc.register_ms", "ms", "lower"},
	{"runtime.gc_cpu_ms", "ms", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for no samples). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// procSample is a snapshot of the process's own resource counters.
type procSample struct {
	cpuSec     float64 // user plus system CPU time
	allocBytes float64 // cumulative heap allocation
	gcCPUSec   float64 // CPU time spent in the garbage collector
	gcCycles   float64 // completed GC cycles
	peakRSSMB  float64 // resident set high-water mark
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

func readProc() procSample {
	var p procSample
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		p.cpuSec = float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
	}
	samples := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		samples[i].Name = name
	}
	metrics.Read(samples)
	vals := make([]float64, len(samples))
	for i, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			vals[i] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			vals[i] = s.Value.Float64()
		}
	}
	p.allocBytes, p.gcCPUSec, p.gcCycles = vals[0], vals[1], vals[2]
	p.peakRSSMB = statusKB("VmHWM") / 1024
	return p
}

// statusKB reads one kB-valued field of /proc/self/status (0 if absent).
func statusKB(field string) float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				v, _ := strconv.ParseFloat(f[0], 64)
				return v
			}
		}
	}
	return 0
}

// machine is the fingerprint every run records, so a noisy run can be told
// apart from a regression.
type machine struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	AVX2       bool   `json:"avx2"`
	FMA        bool   `json:"fma"`
}

func fingerprint() machine {
	m := machine{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return m
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	flagsSeen := false
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		switch {
		case key == "model name" && m.CPU == "":
			m.CPU = val
		case key == "flags" && !flagsSeen:
			flagsSeen = true
			for _, flag := range strings.Fields(val) {
				m.AVX2 = m.AVX2 || flag == "avx2"
				m.FMA = m.FMA || flag == "fma"
			}
		}
	}
	return m
}

// noise tracks host contention over one run: the share of CPU time the
// hypervisor stole and the load average at both ends.
type noise struct {
	steal, total float64
	load         float64
}

type noiseReport struct {
	StealPct     float64 `json:"steal_pct"`
	LoadAvgStart float64 `json:"loadavg_start"`
	LoadAvgEnd   float64 `json:"loadavg_end"`
}

func startNoise() noise {
	steal, total := cpuJiffies()
	return noise{steal: steal, total: total, load: loadAvg()}
}

func (n noise) finish() noiseReport {
	steal, total := cpuJiffies()
	return noiseReport{
		StealPct:     pct(steal-n.steal, total-n.total),
		LoadAvgStart: n.load,
		LoadAvgEnd:   loadAvg(),
	}
}

// cpuJiffies returns the steal and total jiffies of the aggregate cpu line
// of /proc/stat (zeros where it is unreadable).
func cpuJiffies() (steal, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := bytes.Cut(data, []byte("\n"))
	f := strings.Fields(string(line))
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal [guest guest_nice];
	// guest time is already counted in user, so it is left out of total.
	for i, s := range f[1:min(len(f), 9)] {
		v, _ := strconv.ParseFloat(s, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// loadAvg returns the one-minute load average (0 where unreadable).
func loadAvg() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(f[0], 64)
	return v
}
