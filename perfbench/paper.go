package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"shoggoth"
	"shoggoth/internal/core"
	"shoggoth/internal/video"
)

// goldenPath is the Results JSON the paper grid must reproduce at seed 1,
// relative to the repository root the benchmark runs from.
const goldenPath = "testdata/golden_results.json"

// paperGrid runs the five stock strategies on UA-DETRAC for one scenario
// cycle, one session at a time against one pretrained student: the Table I
// quick-mode run. Set-up is pretraining that student.
type paperGrid struct {
	seed    uint64
	tr      *tracer
	profile *shoggoth.Profile
	cfgs    []shoggoth.Config
	// want is the Results JSON every op must reproduce: the golden capture
	// at seed 1, otherwise the first op's output.
	want     []byte
	wantFrom string

	perf shoggoth.PerfCounters // summed over ops of a traced run
}

func newPaperGrid(seed uint64, tr *tracer) (workload, error) {
	profile, err := shoggoth.ProfileByName(shoggoth.ProfileDETRAC)
	if err != nil {
		return nil, err
	}
	p := &paperGrid{seed: seed, tr: tr, profile: profile}
	if seed == 1 {
		if p.want, err = os.ReadFile(goldenPath); err != nil {
			return nil, fmt.Errorf("golden results: %w", err)
		}
		p.wantFrom = goldenPath
	}
	return p, nil
}

func (p *paperGrid) setup() error {
	sp := p.tr.begin("detect.pretrain", -1, -1)
	student := shoggoth.PretrainedStudent(p.profile)
	p.tr.end(sp)
	p.cfgs = shoggoth.Grid([]*shoggoth.Profile{p.profile}, shoggoth.StrategyKinds(),
		shoggoth.WithSeed(p.seed), shoggoth.WithCycles(1))
	var clock func() float64
	if p.tr != nil {
		clock = shoggoth.WallClock()
	}
	for i := range p.cfgs {
		// The rule Fleet applies: only strategies that deploy a student get
		// the shared pretrained one.
		if d, ok := core.Lookup(p.cfgs[i].Kind); ok && d.Traits.Student {
			p.cfgs[i].Pretrained = student
		}
		p.cfgs[i].PerfClock = clock
	}
	return nil
}

func (p *paperGrid) run(d time.Duration) ([]float64, int, error) {
	var lat []float64
	failed := 0
	start := time.Now()
	for id := 0; time.Since(start) < d; id++ {
		ms, err := p.op(id)
		lat = append(lat, ms)
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: paper-grid op %d: %v\n", id, err)
		}
	}
	return lat, failed, nil
}

// op runs the grid once and checks its Results JSON.
func (p *paperGrid) op(id int) (float64, error) {
	root := p.tr.begin("op", -1, id)
	start := time.Now()
	results := make([]*shoggoth.Results, len(p.cfgs))
	for i, cfg := range p.cfgs {
		sp := p.tr.begin("core.session", root, id)
		sess, err := shoggoth.NewSession(cfg)
		if err != nil {
			return msSince(start), err
		}
		for sess.Step() {
		}
		p.tr.end(sp)
		sp = p.tr.begin("metrics.finish", root, id)
		results[i] = sess.Results()
		p.tr.end(sp)
		if p.tr != nil {
			p.perf.Add(sess.System().Workspace().Perf)
		}
	}
	ms := msSince(start)
	p.tr.end(root)

	if p.tr != nil {
		// Frame rendering happens inside Step; replay each session's stream
		// outside the op to time it on its own.
		for i, r := range results {
			sp := p.tr.begin("video.render", -1, id)
			st := video.NewStream(p.profile, p.cfgs[i].Seed)
			for k := 0; k < r.FramesTotal; k++ {
				st.Next()
			}
			p.tr.end(sp)
		}
	}

	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(results); err != nil {
		return ms, err
	}
	if p.want == nil {
		p.want, p.wantFrom = buf.Bytes(), "the run's first op"
		return ms, nil
	}
	return ms, checkBytes(p.wantFrom, buf.Bytes(), p.want)
}

func (p *paperGrid) layers(ops int) map[string]float64 {
	n := float64(ops)
	self := p.tr.selfTimes()
	infer, train := p.perf.InferSeconds*1e3, p.perf.TrainSeconds*1e3
	render := self["video.render"]
	return map[string]float64{
		"detect.infer_ms":     infer / n,
		"detect.infer_frames": float64(p.perf.InferFrames) / n,
		"detect.train_ms":     train / n,
		"detect.train_steps":  float64(p.perf.TrainSteps) / n,
		"metrics.finish_ms":   self["metrics.finish"] / n,
		"video.render_ms":     render / n,
		"core.other_ms":       (self["core.session"] - infer - train - render) / n,
		"detect.pretrain_s":   median(p.tr.durations("detect.pretrain")) / 1e3,
	}
}

func (p *paperGrid) close() {}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
