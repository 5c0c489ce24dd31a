// Remote: the full service boundary in one process — a sharded fleet
// behind the HTTP front door, and a client on the other side of a real
// TCP connection submitting panels in all three shapes (single, batch,
// stream of binary frames). This is the deployment unit cmd/labserve
// runs for real; here server and client share a process so the example
// is self-contained.
//
// The punchline is the last block: the PanelResult fingerprints that
// crossed the wire are byte-identical to a local Lab run of the same
// samples — the versioned wire format is lossless and the server
// preserves submission order, so moving from library calls to HTTP
// changes no result bit.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"

	"advdiag"
)

func main() {
	// One platform design, sharded twice behind the front door.
	platform, err := advdiag.DesignPlatform(
		[]string{"glucose", "benzphetamine"},
		advdiag.WithPlatformSeed(21))
	if err != nil {
		log.Fatal(err)
	}
	fleet, err := advdiag.NewFleet(
		[]*advdiag.Platform{platform, platform},
		advdiag.WithFleetWorkers(2),
		advdiag.WithFleetQueueDepth(16),
	)
	if err != nil {
		log.Fatal(err)
	}
	server, err := advdiag.NewServer(fleet)
	if err != nil {
		log.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{Handler: server}
	go httpSrv.Serve(ln) //nolint:errcheck // torn down at the end
	defer httpSrv.Close()

	ctx := context.Background()
	client := advdiag.NewClient("http://" + ln.Addr().String())
	if err := client.Health(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("serving %v at %s\n\n", platform.Targets(), ln.Addr())

	// A ward's worth of samples: metabolic draws and drug monitoring.
	samples := []advdiag.Sample{
		{ID: "icu-07", Concentrations: map[string]float64{"glucose": 6.1}},
		{ID: "tox-12", Concentrations: map[string]float64{"benzphetamine": 0.6}},
		{ID: "icu-07-t2", Concentrations: map[string]float64{"glucose": 5.2, "benzphetamine": 0.1}},
		{ID: "ward-03", Concentrations: map[string]float64{"glucose": 4.4}},
	}

	// Shape 1: one panel, request/response.
	single, err := client.RunPanel(ctx, samples[0])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("single %s → shard %d\n%s\n", single.ID, single.Shard, single.Result)

	// Shape 2: a batch, outcomes in request order.
	batch, err := client.RunPanels(ctx, samples[1:])
	if err != nil {
		log.Fatal(err)
	}
	for _, o := range batch {
		if o.Err != nil {
			log.Fatalf("%s: %v", o.ID, o.Err)
		}
		fmt.Printf("batch %s → shard %d, fingerprint %016x\n", o.ID, o.Shard, o.Result.Fingerprint())
	}

	// Shape 3: a stream of binary frames, outcomes as they complete.
	fmt.Println()
	err = client.StreamPanels(ctx, samples, func(seq int, o advdiag.PanelOutcome) {
		if o.Err != nil {
			log.Fatalf("stream %s: %v", o.ID, o.Err)
		}
		fmt.Printf("stream frame %d (%s) done in %.1f ms\n", seq, o.ID, 1e3*o.WallSeconds)
	})
	if err != nil {
		log.Fatal(err)
	}

	// The wire changed nothing: re-run the first batch locally and
	// compare fingerprints bit-for-bit. (Fresh Lab, fresh fleet-index
	// sequence: the stream above continued the server's submission
	// counter, so we compare the very first server batch — the single
	// panel — against a local index-0 run.)
	lab, err := advdiag.NewLab(platform)
	if err != nil {
		log.Fatal(err)
	}
	local := lab.RunPanels(samples[:1])
	fmt.Printf("\nremote %016x == local %016x over the wire: %v\n",
		single.Result.Fingerprint(), local[0].Result.Fingerprint(),
		single.Result.Fingerprint() == local[0].Result.Fingerprint())

	st, err := client.Stats(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Print(st)
	if err := server.Close(); err != nil {
		log.Fatal(err)
	}
}
