// Monitoring: continuous measurement two ways. First the paper's Fig. 3
// experiment — one glucose sensor, repeated injections, the ~30 s
// transient. Then the platform version: a stream of timed samples
// submitted to a one-shard Fleet, each panel stamped onto the
// instrument timeline derived from the acquisition schedule —
// longitudinal monitoring as a service rather than a single bench
// experiment.
package main

import (
	"fmt"
	"log"
	"sort"
	"strings"

	"advdiag"
)

func main() {
	// --- Part 1: the paper's Fig. 3 single-sensor transient. ---------
	sensor, err := advdiag.NewSensor("glucose", advdiag.WithSeed(5))
	if err != nil {
		log.Fatal(err)
	}

	// Three injections: 1 mM at t=20 s, +1 mM at t=120 s, +2 mM at t=220 s.
	mon, err := sensor.Monitor(320,
		advdiag.InjectionEvent{AtSeconds: 20, DeltaMM: 1},
		advdiag.InjectionEvent{AtSeconds: 120, DeltaMM: 1},
		advdiag.InjectionEvent{AtSeconds: 220, DeltaMM: 2},
	)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("continuous glucose monitoring (paper Fig. 3: ~30 s to steady state)")
	fmt.Printf("  first-injection response time t90 = %.1f s\n", mon.T90Seconds)
	fmt.Printf("  transient response time (max dI/dt) = %.1f s\n\n", mon.TransientSeconds)

	// ASCII strip chart, 4 s per row.
	maxI := 0.0
	for _, v := range mon.CurrentsMicroAmps {
		if v > maxI {
			maxI = v
		}
	}
	fmt.Println("  time    current")
	step := len(mon.TimesSeconds) / 40
	for i := 0; i < len(mon.TimesSeconds); i += step {
		frac := mon.CurrentsMicroAmps[i] / maxI
		if frac < 0 {
			frac = 0
		}
		bar := strings.Repeat("█", int(frac*50))
		fmt.Printf("  %5.0f s %8.4f µA |%s\n", mon.TimesSeconds[i], mon.CurrentsMicroAmps[i], bar)
	}

	// --- Part 2: longitudinal panels through a one-shard Fleet. -------
	// One patient, eight consecutive panel cycles; glucose climbs and
	// lactate follows — the glucose/lactate pair of the paper's
	// metabolic monitoring scenario. Samples are submitted as they
	// "arrive"; results stream back tagged with the instrument time each
	// panel starts (back-to-back cycles of the acquisition schedule).
	platform, err := advdiag.DesignPlatform([]string{"glucose", "lactate"},
		advdiag.WithPlatformSeed(5))
	if err != nil {
		log.Fatal(err)
	}
	fleet, err := advdiag.NewFleet([]*advdiag.Platform{platform})
	if err != nil {
		log.Fatal(err)
	}

	const cycles = 8
	go func() {
		for k := 0; k < cycles; k++ {
			err := fleet.Submit(advdiag.Sample{
				ID: fmt.Sprintf("cycle-%d", k+1),
				Concentrations: map[string]float64{
					"glucose": 2.0 + 0.5*float64(k),
					"lactate": 1.0 + 0.2*float64(k),
				},
			})
			if err != nil {
				log.Fatal(err)
			}
		}
		fleet.Close()
	}()

	var outs []advdiag.PanelOutcome
	for out := range fleet.Results() {
		if out.Err != nil {
			log.Fatalf("%s: %v", out.ID, out.Err)
		}
		outs = append(outs, out)
	}
	sort.Slice(outs, func(i, j int) bool { return outs[i].Index < outs[j].Index })

	fmt.Println("\nlongitudinal panels (glucose + lactate, instrument timeline):")
	fmt.Println("  time        glucose est/true      lactate est/true")
	for _, out := range outs {
		row := map[string]advdiag.TargetReading{}
		for _, r := range out.Result.Readings {
			row[r.Target] = r
		}
		g, l := row["glucose"], row["lactate"]
		fmt.Printf("  t+%5.0f s  %6.2f / %-6.2f mM    %6.2f / %-6.2f mM\n",
			out.ScheduledStartSeconds, g.EstimatedMM, g.TrueMM, l.EstimatedMM, l.TrueMM)
	}
	fmt.Println()
	fmt.Println(fleet.Stats().Shards[0].Lab)
}
