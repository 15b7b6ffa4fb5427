// Quickstart: build a fully serverless Servo instance, drop a couple of
// player-built circuits into the world, connect players with the paper's
// random behavior, fast-forward five virtual minutes, and report QoS.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"time"

	"servo"
)

func main() {
	inst := servo.NewInstance(servo.Config{
		Seed:      7,
		WorldType: "flat",
		Servo:     servo.AllServerless(),
	})
	defer inst.Stop()

	// Players program the terrain with simulated constructs; Servo
	// offloads their simulation to serverless functions.
	inst.SpawnConstruct(servo.NewClockCircuit(), servo.At(8, 5, 8))
	inst.SpawnConstruct(servo.NewLampBank(4, 10), servo.At(-20, 5, 12))
	inst.SpawnConstruct(servo.NewConstructSized(252), servo.At(30, 5, -30))

	for i := 0; i < 20; i++ {
		inst.Connect(fmt.Sprintf("player-%d", i), servo.BehaviorRandom)
	}

	// Five minutes of game time pass in a blink of wall time: the whole
	// backend (FaaS platform, storage, game loop) runs on a virtual clock.
	inst.Run(5 * time.Minute)

	fmt.Println("tick durations:", inst.TickStats())
	sys := inst.System()
	fmt.Printf("construct offloads: %d invocations, %d cold starts, $%.4f billed\n",
		sys.SCFn.Invocations.Count(), sys.SCFn.ColdStarts.Value(), sys.SCFn.BilledDollars())
	spec := sys.Shards[0].SpecExec.Snapshot()
	fmt.Printf("construct steps: %d applied from speculation, %d replayed from loops, %d simulated locally\n",
		spec.RemoteSteps, spec.ReplaySteps, spec.LocalSteps)
	fmt.Printf("view margin: %d blocks (%d = perfect)\n",
		inst.ViewMargin(), inst.Server().Config().ViewDistance)
}
