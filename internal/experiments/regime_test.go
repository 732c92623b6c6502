package experiments

import (
	"testing"

	"quetzal/internal/engine"
)

// TestLatencyScalingRegime documents the Fig 11/12 divergence analysis in
// EXPERIMENTS.md: as task latencies scale up, NoAdapt collapses while the
// QZ-vs-FCFS gap persists — evidence that the inversion stems from the
// deferral-is-free and spawn-keeps-slot model properties rather than from
// the cost calibration alone.
func TestLatencyScalingRegime(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	for _, scale := range []float64{1.5, 2.0, 2.5} {
		s := DefaultSetup()
		s.NumEvents = 150
		s.Engine = engine.EventDriven
		p := s.Profile
		for i := range p.MLOptions {
			p.MLOptions[i].Texe *= scale
		}
		p.Compress.Texe *= scale
		for i := range p.RadioOptions {
			p.RadioOptions[i].Texe *= scale
		}
		s.Profile = p
		for _, id := range []string{SysQuetzal, SysQuetzalFCFS, FixedThresholdID(0.50), SysNoAdapt} {
			res, err := s.Run(id, Crowded)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("scale=%.1f %-12s discarded=%.1f%% ibo=%.1f%% fn=%.1f%%",
				scale, id, res.DiscardedFraction()*100, res.IBOFraction()*100,
				100*float64(res.FalseNegatives)/float64(res.InterestingArrivals))
			if id == SysNoAdapt && res.DiscardedFraction() < 0.5 {
				t.Errorf("scale %.1f: NoAdapt at %.1f%% — slow regime not biting",
					scale, res.DiscardedFraction()*100)
			}
			if id == SysQuetzal && res.DiscardedFraction() > 0.5 {
				t.Errorf("scale %.1f: Quetzal at %.1f%% — adaptation collapsed",
					scale, res.DiscardedFraction()*100)
			}
		}
	}
}
