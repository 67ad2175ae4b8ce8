// Autotune example: the paper's §VII future work in action. A server
// starts deliberately undersized (1 execution stream); the policy
// engine watches its live telemetry sampler and applies the
// paper's remediations by itself — growing the handler pool when the
// target handler time dominates (the C1→C2 move) and raising
// OFI_max_events when the progress loop keeps reading at its budget
// (the C5→C6 move). The workload's round-trip latency improves while
// it runs, without a restart.
//
// Run with:
//
//	go run ./examples/autotune
package main

import (
	"fmt"
	"log"
	"time"

	"symbiosys/internal/abt"
	"symbiosys/internal/core"
	"symbiosys/internal/margo"
	"symbiosys/internal/mercury"
	"symbiosys/internal/na"
	"symbiosys/internal/policy"
	"symbiosys/internal/telemetry"
)

func main() {
	fabric := na.NewFabric(na.DefaultConfig())
	server, err := margo.New(margo.Options{
		Mode: margo.ModeServer, Node: "n1", Name: "svc", Fabric: fabric,
		HandlerStreams: 1, // deliberately undersized
		Stage:          core.StageFull,
		Telemetry:      &telemetry.Options{Interval: 5 * time.Millisecond},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer server.Shutdown()
	server.Register("work_rpc", func(ctx *margo.Context) {
		ctx.Compute(time.Millisecond)
		ctx.Respond(mercury.Void{})
	})

	client, err := margo.New(margo.Options{
		Mode: margo.ModeClient, Node: "n0", Name: "app", Fabric: fabric,
		Stage: core.StageFull,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer client.Shutdown()
	client.RegisterClient("work_rpc")

	// Formulate the policies (paper §VII: rules governing response to
	// poor performance behavior).
	engine, err := policy.NewEngine(server)
	if err != nil {
		log.Fatal(err)
	}
	engine.AddRule("grow-handler-pool",
		policy.HandlerSaturated(0.30, time.Millisecond),
		policy.AddHandlerStreams{N: 4, Max: 16},
		50*time.Millisecond)
	engine.AddRule("raise-ofi-budget",
		policy.ProgressStarved(0.60),
		policy.RaiseOFIMaxEvents{Factor: 4, Max: 64},
		50*time.Millisecond)
	engine.Start()
	defer engine.Stop()

	// Drive rounds of bursty load and watch latency fall as the engine
	// reconfigures the service.
	const rounds = 5
	for round := 1; round <= rounds; round++ {
		const burst = 24
		start := time.Now()
		ults := make([]*abt.ULT, burst)
		for i := range ults {
			ults[i] = client.Run("issuer", func(self *abt.ULT) {
				client.Forward(self, server.Addr(), "work_rpc", &mercury.Void{}, nil)
			})
		}
		for _, u := range ults {
			u.Join(nil)
		}
		fmt.Printf("round %d: burst of %d RPCs took %8v   (streams=%d, OFI budget=%d)\n",
			round, burst, time.Since(start).Round(time.Millisecond),
			server.HandlerStreams(), server.OFIMaxEvents())
		time.Sleep(30 * time.Millisecond) // let the engine observe and act
	}

	fmt.Println("\npolicy decisions:")
	for _, d := range engine.Decisions() {
		status := "ok"
		if d.Err != nil {
			status = d.Err.Error()
		}
		fmt.Printf("  [%s] %s -> %s (%s)\n",
			d.At.Format("15:04:05.000"), d.Rule, d.Action, status)
	}
	if len(engine.Decisions()) == 0 {
		fmt.Println("  (none fired — try a slower machine or a bigger burst)")
	}
}
