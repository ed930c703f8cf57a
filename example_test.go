package ocsml_test

import (
	"fmt"
	"log"
	"time"

	"ocsml"
)

// Example runs the paper's protocol on a small deterministic workload and
// verifies every collected global checkpoint.
func Example() {
	rep, err := ocsml.Run(ocsml.Config{
		Protocol:           ocsml.ProtoOCSML,
		N:                  4,
		Seed:               1,
		Steps:              300,
		Think:              10 * time.Millisecond,
		StateBytes:         4 << 20,
		CheckpointInterval: time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("completed:", rep.Completed)
	fmt.Println("collected global checkpoints:", rep.GlobalCheckpoints > 0)
	fmt.Println("all verified consistent:", len(rep.ConsistentSeqs) > 0)
	fmt.Println("application ever blocked for storage:", rep.BlockedSeconds > 0.5)
	// Output:
	// completed: true
	// collected global checkpoints: true
	// all verified consistent: true
	// application ever blocked for storage: false
}

// Example_compare contrasts the paper's protocol with a blocking
// coordinated baseline on identical workloads.
func Example_compare() {
	run := func(proto string) *ocsml.Report {
		rep, err := ocsml.Run(ocsml.Config{
			Protocol:           proto,
			N:                  8,
			Seed:               2,
			Steps:              800,
			Think:              10 * time.Millisecond,
			CheckpointInterval: 4 * time.Second,
		})
		if err != nil {
			log.Fatal(err)
		}
		return rep
	}
	oc := run(ocsml.ProtoOCSML)
	kt := run(ocsml.ProtoKooToueg)
	fmt.Println("OCSML storage queue stays at 1:", oc.StoragePeakQueue == 1)
	fmt.Println("Koo-Toueg queues a write burst:", kt.StoragePeakQueue >= 8)
	fmt.Println("OCSML blocks less:", oc.BlockedSeconds < kt.BlockedSeconds)
	// Output:
	// OCSML storage queue stays at 1: true
	// Koo-Toueg queues a write burst: true
	// OCSML blocks less: true
}

// Example_failure crashes a process mid-run; the cluster rolls back to
// the last stable consistent global checkpoint and finishes the job.
func Example_failure() {
	rep, err := ocsml.Run(ocsml.Config{
		Protocol:           ocsml.ProtoOCSML,
		N:                  6,
		Seed:               3,
		Steps:              600,
		Think:              10 * time.Millisecond,
		StateBytes:         2 << 20,
		CheckpointInterval: time.Second,
		ConvergenceTimeout: 300 * time.Millisecond,
		Failure:            &ocsml.FailureSpec{At: 2500 * time.Millisecond, Proc: 1},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("completed after crash:", rep.Completed)
	fmt.Println("rolled back to a committed line:", rep.Recovery.LineSeq >= 1)
	fmt.Println("post-recovery checkpoints consistent:", len(rep.ConsistentSeqs) > 0)
	// Output:
	// completed after crash: true
	// rolled back to a committed line: true
	// post-recovery checkpoints consistent: true
}
