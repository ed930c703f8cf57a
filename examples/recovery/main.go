// Recovery: the domino effect. Uncoordinated checkpointing is cheap while
// everything works, but after a failure the processes must roll back to a
// mutually consistent set of checkpoints — and with no coordination,
// orphan messages cascade the rollback (paper §1). Every checkpoint OCSML
// finalizes already belongs to a consistent global checkpoint, so
// rollback is bounded by a single checkpoint interval, and the selective
// message logs reconstruct the in-flight channel contents.
//
// The OCSML rows crash P0 at 80% of the nominal run and report the
// recovery that ran; uncoordinated checkpointing has no live recovery, so
// its rows analyze a failure at the end of the run.
//
//	go run ./examples/recovery
package main

import (
	"fmt"
	"log"
	"time"

	"ocsml"
)

func main() {
	fmt.Println("failure: how far must the cluster roll back?")
	fmt.Println()
	fmt.Printf("%-15s %-14s %8s %11s %10s %10s\n",
		"protocol", "pattern", "depth", "iterations", "lostWork", "lostMsgs")

	for _, pattern := range []ocsml.Pattern{ocsml.Uniform, ocsml.Ring} {
		for _, proto := range []string{ocsml.ProtoOCSML, ocsml.ProtoUncoordinated} {
			cfg := ocsml.Config{
				Protocol:           proto,
				N:                  8,
				Seed:               11,
				Steps:              4000,
				Think:              5 * time.Millisecond,
				Pattern:            pattern,
				StateBytes:         4 << 20,
				CheckpointInterval: 4 * time.Second,
				ConvergenceTimeout: time.Second,
			}
			if proto == ocsml.ProtoOCSML {
				cfg.Failure = &ocsml.FailureSpec{At: 16 * time.Second} // 80% of 4000 × 5ms
			}
			rep, err := ocsml.Run(cfg)
			if err != nil {
				log.Fatal(err)
			}
			r := rep.Recovery
			if r == nil {
				fmt.Printf("%-15s %-14s  (no recovery analysis)\n", proto, pattern)
				continue
			}
			fmt.Printf("%-15s %-14s %8d %11d %9.1f%% %10d\n",
				proto, pattern, r.RollbackDepth, r.Iterations,
				100*r.LostWorkFraction, r.LostMessages)
		}
	}

	fmt.Println()
	fmt.Println("depth      — checkpoints a process had to discard (domino cascading)")
	fmt.Println("iterations — rounds choosing the line (one RB_* round, or domino iterations)")
	fmt.Println("lostWork   — fraction of completed work that must be re-executed")
	fmt.Println("lostMsgs   — in-flight messages no log can re-deliver")

	liveRecovery()
}

// liveRecovery actually crashes a process mid-run: the cluster rolls back
// to the last stable consistent global checkpoint, rebuilds the channel
// contents from the selective message logs (deduplicating re-deliveries),
// and resumes — then finishes the workload and keeps checkpointing.
func liveRecovery() {
	fmt.Println()
	fmt.Println("live failure: P3 crashes 10s into a 40s OCSML run")
	rep, err := ocsml.Run(ocsml.Config{
		Protocol:           ocsml.ProtoOCSML,
		N:                  8,
		Seed:               21,
		Steps:              4000,
		Think:              10 * time.Millisecond,
		StateBytes:         4 << 20,
		CheckpointInterval: 2 * time.Second,
		ConvergenceTimeout: 500 * time.Millisecond,
		Failure:            &ocsml.FailureSpec{At: 10 * time.Second, Proc: 3},
	})
	if err != nil {
		log.Fatal(err)
	}
	lr := rep.Recovery
	fmt.Printf("  completed            : %v (makespan %.1fs)\n", rep.Completed, rep.Makespan.Seconds())
	fmt.Printf("  rolled back to       : S_%d\n", lr.LineSeq)
	fmt.Printf("  checkpoints discarded: %d\n", lr.CheckpointsDiscarded)
	fmt.Printf("  log msgs re-injected : %d (duplicates dropped: %d)\n", lr.Reinjected, lr.DuplicatesDropped)
	fmt.Printf("  stale msgs discarded : %d\n", lr.StaleDropped)
	fmt.Printf("  post-recovery checkpoints verified consistent: %d\n", rep.GlobalCheckpoints)
}
