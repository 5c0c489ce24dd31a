package advdiag_test

import (
	"fmt"

	"advdiag"
)

// ExampleNewSensor builds the paper's canonical sensor — glucose
// oxidase on a carbon-nanotube electrode — and measures one sample.
func ExampleNewSensor() {
	sensor, err := advdiag.NewSensor("glucose", advdiag.WithSeed(2024))
	if err != nil {
		panic(err)
	}
	fmt.Println(sensor.Probe(), "/", sensor.Technique())
	// Output:
	// glucose oxidase / chronoamperometry
}

// ExampleSensor_RunVoltammetry shows the paper's multi-target trick:
// one CYP2B4 electrode senses two drugs at distinct reduction
// potentials.
func ExampleSensor_RunVoltammetry() {
	sensor, err := advdiag.NewSensor("benzphetamine", advdiag.WithSeed(7))
	if err != nil {
		panic(err)
	}
	vg, err := sensor.RunVoltammetry(map[string]float64{
		"benzphetamine": 1.0,
		"aminopyrine":   4.0,
	})
	if err != nil {
		panic(err)
	}
	for _, pk := range vg.Peaks {
		fmt.Printf("peak near %+.0f mV\n", pk.PotentialMV)
	}
	// Output:
	// peak near -250 mV
	// peak near -398 mV
}

// ExampleDesignPlatform reproduces the paper's §III design flow: six
// targets in, the Fig. 4 five-electrode platform out.
func ExampleDesignPlatform() {
	platform, err := advdiag.DesignPlatform([]string{
		"glucose", "lactate", "glutamate",
		"benzphetamine", "aminopyrine", "cholesterol",
	})
	if err != nil {
		panic(err)
	}
	fmt.Println(len(platform.WorkingElectrodes()), "working electrodes")
	// Output:
	// 5 working electrodes
}

// ExampleProbesFor lists the registered sensing routes for a target
// with more than one option.
func ExampleProbesFor() {
	for _, p := range advdiag.ProbesFor("cholesterol") {
		fmt.Println(p)
	}
	// Output:
	// CYP11A1
	// cholesterol oxidase
}
