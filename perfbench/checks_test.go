package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// Each output check must fail on a corrupted output, or a faster-but-wrong
// change would count as a win instead of as failed ops.

func TestCheckBytesCatchesOneChangedGoldenByte(t *testing.T) {
	golden, err := os.ReadFile("../" + goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkBytes(goldenPath, golden, golden); err != nil {
		t.Fatalf("identical bytes rejected: %v", err)
	}
	for _, at := range []int{0, len(golden) / 2, len(golden) - 1} {
		bad := append([]byte(nil), golden...)
		bad[at] ^= 1
		if err := checkBytes(goldenPath, bad, golden); err == nil {
			t.Errorf("byte %d changed, check passed", at)
		}
	}
	if err := checkBytes(goldenPath, golden[:len(golden)-1], golden); err == nil {
		t.Error("truncated output passed")
	}
}

func TestCheckEventsCatchesWrongCount(t *testing.T) {
	if err := checkEvents(fleetCappedEvents, fleetCappedEvents); err != nil {
		t.Fatalf("pinned count rejected: %v", err)
	}
	for _, got := range []int64{fleetCappedEvents - 1, fleetCappedEvents + 1, 0} {
		if err := checkEvents(got, fleetCappedEvents); err == nil {
			t.Errorf("%d events passed, want %d", got, int64(fleetCappedEvents))
		}
	}
	if err := checkEvents(12345, 0); err != nil {
		t.Errorf("unpinned count rejected: %v", err)
	}
}

func TestCheckLabelsCatchesShortList(t *testing.T) {
	if err := checkLabels(liveBatchFrames, liveBatchFrames); err != nil {
		t.Fatalf("full label list rejected: %v", err)
	}
	if err := checkLabels(liveBatchFrames, liveBatchFrames-1); err == nil {
		t.Error("short label list passed")
	}
}

func TestCheckFramesLabeledCatchesMismatch(t *testing.T) {
	if err := checkFramesLabeled(40, 40); err != nil {
		t.Fatalf("matching count rejected: %v", err)
	}
	for _, labeled := range []int64{0, 20, 60} {
		if err := checkFramesLabeled(labeled, 40); err == nil {
			t.Errorf("%d frames labeled of 40 sent passed", labeled)
		}
	}
}

func TestSelfTimesSubtractsChildUnion(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 10, Parent: -1},
		{Name: "a", Start: 1, End: 4, Parent: 0},
		{Name: "a", Start: 3, End: 6, Parent: 0},  // overlaps the first child
		{Name: "b", Start: 8, End: 12, Parent: 0}, // runs past its parent
		{Name: "c", Start: 2, End: 3, Parent: 1},
	}
	got := selfTimes(spans)
	want := map[string]float64{"op": 10 - 5 - 2, "a": (3 - 1) + 3, "b": 4, "c": 1}
	for name, w := range want {
		if math.Abs(got[name]-w) > 1e-12 {
			t.Errorf("self(%s) = %g, want %g", name, got[name], w)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {0.9, 3.7}, {1, 4}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Error("quantile sorted its input in place")
	}
}

// TestMetricsMatchManifest keeps the metric tables and workloads in step
// with BENCHMARK.json, which the results are read against.
func TestMetricsMatchManifest(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &manifest); err != nil {
		t.Fatal(err)
	}
	if len(manifest.Workloads) != len(specs) {
		t.Fatalf("manifest has %d workloads, benchmark %d", len(manifest.Workloads), len(specs))
	}
	for i, w := range manifest.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d: manifest %q, benchmark %q", i, w.Name, specs[i].name)
		}
	}
	compare := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: manifest has %d metrics, benchmark %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if w := want[i]; m.Name != w.name || m.Unit != w.unit || m.Better != w.better {
				t.Errorf("%s %d: manifest %+v, benchmark %+v", kind, i, m, w)
			}
		}
	}
	compare("end_to_end", manifest.EndToEnd, endToEndMetrics)
	compare("per_layer", manifest.PerLayer, perLayerMetrics)
}
