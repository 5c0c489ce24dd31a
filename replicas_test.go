package advdiag_test

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"advdiag"
	"advdiag/internal/enzyme"
)

// referenceMM is the top of a target's published linear range, the
// largest over its registered probes. It stands for the physiologic
// scale in the option-space checks, which run samples from zero up to
// ten times it; 0 means the species has no registered probe.
func referenceMM(target string) float64 {
	top := 0.0
	for _, a := range enzyme.AllAssays() {
		if a.Target.Name == target {
			top = max(top, a.Perf().LinearHi.MilliMolar())
		}
	}
	return top
}

// optionPlatform designs a platform over targets with k replicas and,
// when cds is set, the CDS blank electrode.
func optionPlatform(targets []string, k int, cds bool) (*advdiag.Platform, error) {
	opts := []advdiag.PlatformOption{advdiag.WithReplicas(k), advdiag.WithPlatformSeed(7)}
	if cds {
		opts = append(opts, advdiag.WithCDSBlank())
	}
	return advdiag.DesignPlatform(targets, opts...)
}

// TestOptionSpacePanels runs every registered target alone, and all of
// them on one platform, at replicas {1, 2, 3} × CDS blank {off, on}.
// Every panel of a valid sample, from zero to ten times the reference
// concentration, must run and report one finite reading per target,
// merged over the replicas.
func TestOptionSpacePanels(t *testing.T) {
	sets := [][]string{}
	for _, target := range advdiag.Targets() {
		sets = append(sets, []string{target})
	}
	sets = append(sets, advdiag.Targets())
	for _, targets := range sets {
		name := targets[0]
		if len(targets) > 1 {
			name = fmt.Sprintf("all-%d", len(targets))
		}
		for k := 1; k <= 3; k++ {
			for _, cds := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/k%d/cds=%t", name, k, cds), func(t *testing.T) {
					p, err := optionPlatform(targets, k, cds)
					if err != nil {
						t.Fatal(err)
					}
					for _, scale := range []float64{0, 1, 10} {
						sample := map[string]float64{}
						for _, target := range targets {
							sample[target] = scale * referenceMM(target)
						}
						res, err := p.RunPanel(sample)
						if err != nil {
							t.Fatalf("%g× reference: %v", scale, err)
						}
						if len(res.Readings) != len(targets) {
							t.Fatalf("%g× reference: %d readings for %d targets", scale, len(res.Readings), len(targets))
						}
						for _, r := range res.Readings {
							if math.IsNaN(r.MeasuredMicroAmps) || math.IsInf(r.MeasuredMicroAmps, 0) ||
								math.IsNaN(r.EstimatedMM) || math.IsInf(r.EstimatedMM, 0) {
								t.Fatalf("%g× reference: %s reads %g µA, %g mM", scale, r.Target, r.MeasuredMicroAmps, r.EstimatedMM)
							}
							if k > 1 && !strings.Contains(r.WE, fmt.Sprintf("×%d", k)) {
								t.Fatalf("%s reading on %q is not merged over %d replicas", r.Target, r.WE, k)
							}
						}
					}
				})
			}
		}
	}
}

// TestReplicaBlankNoiseScalesAsRootK checks the paper's §II claim that
// WithReplicas documents: averaging k replicated electrodes cuts the
// uncorrelated blank noise by √k. Over 800 seeded blank panels through
// a Lab, the spread of the merged reading times √k must match the
// single-electrode spread within 15%, for a chronoamperometric target
// (glucose) and a voltammetric one (benzphetamine).
func TestReplicaBlankNoiseScalesAsRootK(t *testing.T) {
	const blanks = 800
	for _, target := range []string{"glucose", "benzphetamine"} {
		var sd [4]float64
		for k := 1; k <= 3; k++ {
			p, err := optionPlatform([]string{target}, k, false)
			if err != nil {
				t.Fatal(err)
			}
			lab, err := advdiag.NewLab(p, advdiag.WithLabWorkers(2))
			if err != nil {
				t.Fatal(err)
			}
			samples := make([]advdiag.Sample, blanks)
			for i := range samples {
				samples[i] = advdiag.Sample{Concentrations: map[string]float64{target: 0}}
			}
			var sum, sumSq float64
			for i, o := range lab.RunPanels(samples) {
				if o.Err != nil {
					t.Fatalf("%s k=%d blank %d: %v", target, k, i, o.Err)
				}
				x := o.Result.Readings[0].MeasuredMicroAmps
				sum += x
				sumSq += x * x
			}
			mean := sum / blanks
			sd[k] = math.Sqrt((sumSq - blanks*mean*mean) / (blanks - 1))
		}
		for k := 2; k <= 3; k++ {
			ratio := sd[k] * math.Sqrt(float64(k)) / sd[1]
			t.Logf("%s: sd(k=%d)·√%d / sd(k=1) = %.3f", target, k, k, ratio)
			if ratio < 0.85 || ratio > 1.15 {
				t.Errorf("%s: blank spread at k=%d is %.3f × sd(k=1)/√%d, want within [0.85, 1.15]", target, k, ratio, k)
			}
		}
	}
}

// TestColdPlatformConcurrentRuns races the first panels of a freshly
// designed platform, whose calibration is not yet built, against each
// other and against Fleet.AddShard of the same platform, while the
// fleet serves live traffic and a second shard of its live platform
// joins. Every run of one sample must read the same.
func TestColdPlatformConcurrentRuns(t *testing.T) {
	live, err := advdiag.DesignPlatform([]string{"glucose", "benzphetamine"}, advdiag.WithPlatformSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	f, err := advdiag.NewFleet([]*advdiag.Platform{live})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cold, err := optionPlatform([]string{"glucose", "benzphetamine"}, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	sample := map[string]float64{"glucose": 3, "benzphetamine": 0.6}

	const runners = 4
	var wg sync.WaitGroup
	prints := make([]uint64, runners)
	errs := make([]error, runners+3)
	for i := range runners {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := cold.RunPanel(sample)
			if err != nil {
				errs[i] = err
				return
			}
			prints[i] = res.Fingerprint()
		}()
	}
	wg.Add(3)
	go func() {
		defer wg.Done()
		for _, o := range f.RunPanels(labCohort(16)) {
			if o.Err != nil {
				errs[runners] = o.Err
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		_, errs[runners+1] = f.AddShard(cold)
	}()
	go func() {
		defer wg.Done()
		_, errs[runners+2] = f.AddShard(live)
	}()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	for i := 1; i < runners; i++ {
		if prints[i] != prints[0] {
			t.Fatalf("run %d fingerprint %016x, run 0 %016x", i, prints[i], prints[0])
		}
	}
}
