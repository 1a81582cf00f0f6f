package expt

import (
	"testing"

	"repro/internal/des"
)

func TestAllScenariosWellFormed(t *testing.T) {
	scs := All()
	if len(scs) != 13 {
		t.Fatalf("got %d scenarios, want 13", len(scs))
	}
	seen := map[string]bool{}
	for _, sc := range scs {
		if seen[sc.ID] {
			t.Errorf("duplicate id %s", sc.ID)
		}
		seen[sc.ID] = true
		if sc.Name == "" || sc.Figure == "" || sc.Description == "" {
			t.Errorf("scenario %s under-documented", sc.ID)
		}
		for _, v := range []Variant{NoAdapt, Adaptive, MonitorOnly} {
			p := sc.Build(v, 1)
			if err := p.Validate(); err == nil {
				p.Defaults()
				if err2 := p.Validate(); err2 != nil {
					t.Errorf("scenario %s variant %s invalid: %v", sc.ID, v, err2)
				}
			}
			switch v {
			case NoAdapt:
				if p.Adapt != nil || p.Mon.Enabled {
					t.Errorf("scenario %s: no-adapt variant has monitoring on", sc.ID)
				}
			case Adaptive:
				// A run has exactly one objective: the WAE band for batch
				// scenarios, the latency SLO for streaming ones.
				if (p.Adapt == nil) == (p.StreamSLO == nil) || !p.Mon.Enabled || p.MonitorOnly {
					t.Errorf("scenario %s: adaptive variant misconfigured", sc.ID)
				}
			case MonitorOnly:
				if !p.MonitorOnly || !p.Mon.Enabled {
					t.Errorf("scenario %s: monitor-only variant misconfigured", sc.ID)
				}
			}
		}
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("2b"); !ok {
		t.Error("2b missing")
	}
	if _, ok := ByID("nope"); ok {
		t.Error("found nonexistent scenario")
	}
}

func TestOutcomeMath(t *testing.T) {
	o := &Outcome{Results: map[Variant]*des.Result{
		NoAdapt:     {Runtime: 200},
		Adaptive:    {Runtime: 150},
		MonitorOnly: {Runtime: 210},
	}}
	if got := o.Improvement(); got != 0.25 {
		t.Errorf("improvement = %v", got)
	}
	if got := o.Overhead(MonitorOnly); got != 0.05 {
		t.Errorf("overhead = %v", got)
	}
	empty := &Outcome{Results: map[Variant]*des.Result{}}
	if empty.Improvement() != 0 || empty.Overhead(Adaptive) != 0 {
		t.Error("missing variants should give 0")
	}
}

// Scenario 1 end to end, all three variants: the adaptivity-overhead
// measurement of §5.1. The monitoring cost must be positive but small.
func TestScenario1OverheadSmall(t *testing.T) {
	out := outcome(t, "1")
	na := out.Results[NoAdapt]
	ad := out.Results[Adaptive]
	mo := out.Results[MonitorOnly]
	if !na.Completed || !ad.Completed || !mo.Completed {
		t.Fatal("scenario 1 runs incomplete")
	}
	overhead := out.Overhead(MonitorOnly)
	t.Logf("runtimes: na=%.0f ad=%.0f mo=%.0f overhead=%.1f%%",
		na.Runtime, ad.Runtime, mo.Runtime, overhead*100)
	if overhead < 0 {
		t.Errorf("monitoring made the run faster? overhead=%v", overhead)
	}
	if overhead > 0.12 {
		t.Errorf("overhead %.1f%% too large (paper: a few percent)", overhead*100)
	}
	// In the no-disturbance scenario, the adaptive run must not wreck
	// the node set: the paper expects it to hold near the initial 36.
	if ad.FinalNodes < 24 {
		t.Errorf("adaptive run shrank to %d nodes in the ideal scenario", ad.FinalNodes)
	}
	if mo.BenchSec == 0 || na.BenchSec != 0 {
		t.Errorf("bench accounting: na=%v mo=%v", na.BenchSec, mo.BenchSec)
	}
}

// The paper's headline: scenarios 2a-6 all improve with adaptation.
func TestAdaptationImprovesAllDisturbedScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full evaluation")
	}
	for _, id := range []string{"2a", "2b", "3", "4", "5", "6"} {
		out := outcome(t, id)
		imp := out.Improvement()
		t.Logf("scenario %s: improvement %.0f%%", id, imp*100)
		if imp <= 0 {
			t.Errorf("scenario %s: adaptation did not improve runtime (%.1f%%)", id, imp*100)
		}
		if !out.Results[Adaptive].Completed {
			t.Errorf("scenario %s: adaptive run incomplete", id)
		}
	}
}

// Scenario 10 end to end: under the mid-stream slowdown the latency-SLO
// objective must bring mean item latency back inside the target while
// the static run's open-loop backlog blows far past it — the
// EXPERIMENTS.md streaming table.
func TestScenario10StreamingSLO(t *testing.T) {
	sc, _ := ByID("10")
	out := outcome(t, "10")
	na, ad := out.Results[NoAdapt], out.Results[Adaptive]
	if !na.Completed || !ad.Completed {
		t.Fatalf("scenario 10 runs incomplete: na=%v ad=%v", na.Completed, ad.Completed)
	}
	target := sc.Build(NoAdapt, sc.Seed).Stream.TargetLatency
	t.Logf("mean latency: na=%.1fs ad=%.1fs (target %.0fs); runtimes na=%.0f ad=%.0f",
		na.MeanStreamLatency(), ad.MeanStreamLatency(), target, na.Runtime, ad.Runtime)
	if m := ad.MeanStreamLatency(); m > target {
		t.Errorf("adaptive mean latency %.1fs misses the %.0fs target", m, target)
	}
	if m := na.MeanStreamLatency(); m < 4*target {
		t.Errorf("static run too healthy to demonstrate the slowdown (mean %.1fs)", m)
	}
	if ad.PeakNodes <= 10 {
		t.Errorf("SLO objective never grew past the initial 10 (peak %d)", ad.PeakNodes)
	}
}

// Scenario 8 end to end: the first badly connected site is evacuated
// and teaches a minimum-bandwidth requirement; the identically slow
// second site is then never allocated at all, even though it was never
// blacklisted.
func TestScenario8LearnedBandwidthRequirement(t *testing.T) {
	res := outcome(t, "8").Results[Adaptive]
	if !res.Completed {
		t.Fatal("incomplete")
	}
	foundDSL1 := false
	for _, c := range res.BlacklistedClusters {
		if c == "dsl1" {
			foundDSL1 = true
		}
		if c == "dsl2" {
			t.Error("dsl2 was blacklisted — it should have been excluded by the learned requirement, not tried")
		}
	}
	if !foundDSL1 {
		t.Errorf("dsl1 not blacklisted: %v", res.BlacklistedClusters)
	}
	if res.MinBandwidth <= 0 {
		t.Error("no minimum-bandwidth requirement learned")
	}
	for _, c := range res.UsedClusters {
		if c == "dsl2" {
			t.Error("dsl2 hosted nodes despite the learned bandwidth requirement")
		}
	}
}

// Scenario 5x: opportunistic migration strictly improves on scenario 5.
func TestScenario5xOpportunisticBeatsPlain(t *testing.T) {
	p, o := outcome(t, "5"), outcome(t, "5x")
	tp, to := p.Results[Adaptive].Runtime, o.Results[Adaptive].Runtime
	t.Logf("plain=%.0fs opportunistic=%.0fs", tp, to)
	if to >= tp {
		t.Errorf("opportunistic migration (%.0fs) did not beat plain adaptation (%.0fs)", to, tp)
	}
}

// Scenario 9: load-aware benchmarking shrinks the adaptivity overhead.
func TestScenario9LoadAwareBenchmarking(t *testing.T) {
	po, ao := outcome(t, "1"), outcome(t, "9")
	plainOverhead := po.Overhead(MonitorOnly)
	awareOverhead := ao.Overhead(MonitorOnly)
	t.Logf("plain overhead=%.2f%% load-aware=%.2f%%", plainOverhead*100, awareOverhead*100)
	if awareOverhead >= plainOverhead {
		t.Errorf("load-aware benchmarking did not reduce overhead: %.2f%% vs %.2f%%",
			awareOverhead*100, plainOverhead*100)
	}
	if ao.Results[MonitorOnly].BenchSec >= po.Results[MonitorOnly].BenchSec {
		t.Errorf("bench time not reduced: %.0f vs %.0f",
			ao.Results[MonitorOnly].BenchSec, po.Results[MonitorOnly].BenchSec)
	}
}
