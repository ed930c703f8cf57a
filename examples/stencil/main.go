// Stencil: checkpointing a bulk-synchronous-parallel computation — the
// classic HPC workload the paper's periodic checkpointing targets. A 4×4
// process grid runs supersteps of compute + halo exchange + barrier;
// because the barrier couples everyone, a blocking checkpoint on any one
// process stalls the whole machine, while OCSML's tentative checkpoints
// cost only a memory copy. A mid-run crash then exercises recovery of the
// barrier state itself.
//
//	go run ./examples/stencil
package main

import (
	"fmt"
	"log"
	"time"

	"ocsml"
)

func run(proto string, fail *ocsml.FailureSpec) *ocsml.Report {
	rep, err := ocsml.Run(ocsml.Config{
		Protocol:           proto,
		N:                  16, // 4x4 grid
		Seed:               13,
		Steps:              400, // supersteps
		Think:              8 * time.Millisecond,
		Pattern:            ocsml.Stencil,
		MsgBytes:           32 << 10, // halo size
		StateBytes:         8 << 20,
		CheckpointInterval: 2 * time.Second,
		ConvergenceTimeout: 800 * time.Millisecond,
		Failure:            fail,
	})
	if err != nil {
		log.Fatal(err)
	}
	return rep
}

func main() {
	fmt.Println("4x4 stencil, 400 supersteps, halo exchange every step")
	fmt.Println()
	fmt.Printf("%-16s %12s %14s %14s\n", "protocol", "makespan", "blocked/proc", "peakQueue")
	for _, proto := range []string{ocsml.ProtoOCSML, ocsml.ProtoKooToueg, ocsml.ProtoChandyLamport} {
		rep := run(proto, nil)
		fmt.Printf("%-16s %11.2fs %13.2fs %14d\n",
			proto, rep.Makespan.Seconds(), rep.BlockedSeconds/16, rep.StoragePeakQueue)
	}

	fmt.Println()
	fmt.Println("now with a crash: P5 dies 5s in (OCSML, live recovery)")
	rep := run(ocsml.ProtoOCSML, &ocsml.FailureSpec{At: 5 * time.Second, Proc: 5})
	lr := rep.Recovery
	fmt.Printf("  completed            : %v (makespan %.2fs)\n", rep.Completed, rep.Makespan.Seconds())
	fmt.Printf("  rolled back to       : S_%d\n", lr.LineSeq)
	fmt.Printf("  halo msgs re-injected: %d (dups dropped %d)\n", lr.Reinjected, lr.DuplicatesDropped)
	fmt.Printf("  checkpoints verified : %d consistent global checkpoints\n", rep.GlobalCheckpoints)
}
