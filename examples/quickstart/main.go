// Quickstart: run the paper's checkpointing algorithm on a synthetic
// distributed computation and compare it with a no-checkpointing run.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"ocsml"
)

func main() {
	base := ocsml.Config{
		N:                  8,
		Seed:               42,
		Steps:              2000,
		Think:              10 * time.Millisecond,
		Pattern:            ocsml.Uniform,
		CheckpointInterval: 4 * time.Second,
		ConvergenceTimeout: time.Second,
	}

	// Reference run without checkpointing.
	base.Protocol = ocsml.ProtoNone
	none, err := ocsml.Run(base)
	if err != nil {
		log.Fatal(err)
	}

	// The paper's algorithm.
	base.Protocol = ocsml.ProtoOCSML
	rep, err := ocsml.Run(base)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("workload: %d processes × %d steps, uniform random traffic\n\n", base.N, base.Steps)
	fmt.Printf("no checkpointing : makespan %.3fs\n", none.Makespan.Seconds())
	fmt.Printf("OCSML            : makespan %.3fs (overhead %.2f%%)\n",
		rep.Makespan.Seconds(),
		100*(rep.Makespan.Seconds()/none.Makespan.Seconds()-1))
	fmt.Println()
	fmt.Printf("consistent global checkpoints collected : %d (all verified orphan-free)\n", rep.GlobalCheckpoints)
	fmt.Printf("control messages                        : %d\n", rep.ControlMessages)
	fmt.Printf("mean finalization latency               : %.3fs\n", rep.MeanFinalizationLatency.Seconds())
	fmt.Printf("optimistic message log volume           : %d KiB\n", rep.LogBytes/1024)
	fmt.Printf("stable-storage peak queue               : %d (writes spread out)\n", rep.StoragePeakQueue)
	fmt.Printf("application blocked for checkpointing   : %.3fs total across %d processes\n",
		rep.BlockedSeconds, base.N)
}
