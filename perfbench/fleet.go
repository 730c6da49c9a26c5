package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"shoggoth"
)

const (
	// fleetSeedStride separates the fleet seeds of consecutive benchmark
	// seeds by more than the largest fleet's device count.
	fleetSeedStride = 1 << 20

	// Engine event counts the fleets must execute at their default seed 11.
	fleetCappedEvents = 43_400_120 // the fleet smoke operating point
	fleetTierEvents   = 10_855_311
)

// fleet runs one rush-hour cluster at events fidelity per op. Set-up is
// building the device configs.
type fleet struct {
	seed    uint64
	tr      *tracer
	devices int
	cycles  float64
	// cluster returns the op's cluster; every op gets a fresh one so no
	// cache or state carries over.
	cluster func() *shoggoth.Cluster
	// wantEvents pins the engine event count (0: not pinned at this seed).
	wantEvents int64

	cfgs []shoggoth.Config
	// ref is the first op's ClusterResults JSON; every later op must
	// reproduce it byte for byte.
	ref []byte

	phases  shoggoth.EnginePhases // summed over ops of a traced run
	results *shoggoth.ClusterResults
}

// newFleetCapped is the CI fleet smoke point: 100,000 devices against a
// capped teacher queue, aggregate-only results.
func newFleetCapped(seed uint64, tr *tracer) (workload, error) {
	f := &fleet{seed: seed, tr: tr, devices: 100_000, cycles: 0.02,
		cluster: func() *shoggoth.Cluster {
			return &shoggoth.Cluster{AggregateOnly: true, QueueCap: 256, EngineWorkers: 1}
		}}
	if seed == 11 {
		f.wantEvents = fleetCappedEvents
	}
	return f, nil
}

// newFleetTier drives the routed cloud tier with a deep pending queue:
// 10,000 devices, 4 least-loaded replicas under WFQ, coalescing up to 4
// batches per teacher forward.
func newFleetTier(seed uint64, tr *tracer) (workload, error) {
	f := &fleet{seed: seed, tr: tr, devices: 10_000, cycles: 0.05,
		cluster: func() *shoggoth.Cluster {
			return &shoggoth.Cluster{AggregateOnly: true, Replicas: 4, Router: "least-loaded",
				Policy: "wfq", Coalesce: 4, EngineWorkers: 1}
		}}
	if seed == 11 {
		f.wantEvents = fleetTierEvents
	}
	return f, nil
}

func (f *fleet) setup() error {
	sp := f.tr.begin("scenario.configs", -1, -1)
	defer f.tr.end(sp)
	sc, err := shoggoth.ScenarioByName("rush-hour")
	if err != nil {
		return err
	}
	f.cfgs, err = shoggoth.ScenarioConfigs(sc, shoggoth.Shoggoth, f.devices,
		shoggoth.WithSeed(f.seed), shoggoth.WithCycles(f.cycles),
		shoggoth.WithFidelity(shoggoth.FidelityEvents))
	if err != nil {
		return err
	}
	var clock func() float64
	if f.tr != nil {
		clock = shoggoth.WallClock()
	}
	for i := range f.cfgs {
		f.cfgs[i].UploadMaxWaitSec = 5 // the short horizon must still exercise the cloud path
		f.cfgs[i].PerfClock = clock
	}
	return nil
}

func (f *fleet) run(d time.Duration) ([]float64, int, error) {
	var lat []float64
	failed := 0
	start := time.Now()
	for id := 0; time.Since(start) < d; id++ {
		ms, err := f.op(id)
		lat = append(lat, ms)
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: fleet op %d: %v\n", id, err)
		}
	}
	return lat, failed, nil
}

// op runs the cluster once and checks its results.
func (f *fleet) op(id int) (float64, error) {
	cl := f.cluster()
	var phases shoggoth.EnginePhases
	if f.tr != nil {
		cl.Phases = &phases
	}
	root := f.tr.begin("op", -1, id)
	start := time.Now()
	res, err := cl.Run(context.Background(), f.cfgs)
	ms := msSince(start)
	f.tr.end(root)
	if err != nil {
		return ms, err
	}
	f.phases.AdvanceSec += phases.AdvanceSec
	f.phases.MergeSec += phases.MergeSec
	f.phases.SerialSec += phases.SerialSec
	f.results = res

	if err := checkEvents(res.Engine.Events, f.wantEvents); err != nil {
		return ms, err
	}
	data, err := json.Marshal(res)
	if err != nil {
		return ms, err
	}
	if f.ref == nil {
		f.ref = data
		return ms, nil
	}
	return ms, checkBytes("the run's first op", data, f.ref)
}

func (f *fleet) layers(ops int) map[string]float64 {
	n := float64(ops)
	ph := f.phases
	out := map[string]float64{
		"sim.advance_ms":            ph.AdvanceSec * 1e3 / n,
		"sim.merge_ms":              ph.MergeSec * 1e3 / n,
		"sim.serial_ms":             ph.SerialSec * 1e3 / n,
		"shoggoth.cluster_other_ms": (f.tr.total("op") - (ph.AdvanceSec+ph.MergeSec+ph.SerialSec)*1e3) / n,
		"scenario.configs_ms":       median(f.tr.durations("scenario.configs")),
	}
	if r := f.results; r != nil {
		c := r.Cloud
		out["sim.events"] = float64(r.Engine.Events)
		out["sim.epochs"] = float64(r.Engine.Epochs)
		out["cloud.batches"] = float64(c.Batches)
		out["cloud.dropped_batches"] = float64(c.DroppedBatches)
		out["cloud.served_pct"] = pct(float64(c.Batches), float64(c.Batches+c.DroppedBatches))
		out["cloud.busy_s"] = c.BusySeconds
		out["cloud.queue_delay_mean_s"] = c.QueueDelayMeanSec
	}
	return out
}

func (f *fleet) close() {}
