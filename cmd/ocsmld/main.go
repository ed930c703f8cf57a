// Command ocsmld runs the OCSML protocol over a real network: actual
// TCP connections between processes, the wire codec on every envelope,
// and (with -datadir) checkpoints fsync'd to real files.
//
// One invocation hosts k of the cluster's N processes:
//
//	ocsmld -spawn-all -n 4 -datadir /tmp/ocsml        # all N, fresh localhost ports
//	ocsmld -id 0 -peers host0:7000,host1:7000,...     # one; start one ocsmld per entry
//
// Either way it is one transport.Cluster: it runs the workload to
// completion (or -run-for, or SIGINT/SIGTERM), stops gracefully — admin
// server, queued stable-storage writes, nodes, in that order — and
// prints the same headline metrics as the simulator (cmd/ckptsim) plus
// the wire-level ones only a real network produces (frames, encoded
// piggyback bytes, reconnects) and the durable S_k its processes heard
// from their peers. Hosting all N, it also verifies every global
// checkpoint against the recorded trace. A fresh start over a datadir
// that already holds a hosted process's checkpoints is refused: restart
// such a process with -recover (or the whole cluster with -resume), or
// start on an empty datadir.
//
// A killed daemon is restarted with -recover: before resuming it
// coordinates a wire-level recovery round (RB_BGN/RB_LINE/RB_CMT/RB_ACK,
// see DESIGN.md) that agrees the recovery line with the surviving
// daemons, rolls them back, and fences the pre-crash epoch; its own state
// is then reloaded from the -datadir manifest at the agreed line. -resume
// <seq> remains as the manual override when the line is known out of
// band.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"ocsml/internal/admin"
	"ocsml/internal/core"
	"ocsml/internal/des"
	"ocsml/internal/transport"
	"ocsml/internal/workload"
)

func main() {
	var (
		spawnAll  = flag.Bool("spawn-all", false, "launch an N-process localhost cluster in this one command")
		n         = flag.Int("n", 4, "cluster size (spawn-all)")
		id        = flag.Int("id", -1, "this process's id (daemon mode)")
		peers     = flag.String("peers", "", "comma-separated host:port list, one per process; entry -id is bound locally")
		datadir   = flag.String("datadir", "", "directory for file-backed stable storage (enables restart)")
		resume    = flag.Int("resume", -1, "restart from this finalized checkpoint seq (daemon mode; needs -datadir)")
		recoverF  = flag.Bool("recover", false, "coordinate a wire-level recovery round with the surviving peers before resuming (daemon mode; needs -datadir; overrides -resume)")
		seed      = flag.Int64("seed", 1, "deterministic seed")
		steps     = flag.Int64("steps", 400, "work steps per process")
		think     = flag.Duration("think", 4*time.Millisecond, "mean computation per step (real time)")
		pattern   = flag.String("pattern", "uniform", "workload: uniform|ring|client-server|mesh|bursty|stencil")
		msgBytes  = flag.Int64("msg", 2<<10, "application message payload bytes")
		interval  = flag.Duration("interval", 500*time.Millisecond, "checkpoint period (real time)")
		timeout   = flag.Duration("timeout", 150*time.Millisecond, "convergence timeout (real time)")
		runFor    = flag.Duration("run-for", 60*time.Second, "overall deadline")
		drain     = flag.Duration("drain", 750*time.Millisecond, "settle time after the workload completes")
		reliableF = flag.Bool("reliable", true, "ack/retransmit middleware (covers frames lost to reconnects)")
		jsonOut   = flag.Bool("json", false, "emit the report as JSON")
		chaos     = flag.Bool("chaos", false, "run one seeded fault-injection round (drops, delays, partitions, kill+restart) and verify the consistency invariants")
		chaosFor  = flag.Duration("chaos-for", 1500*time.Millisecond, "fault-phase length for -chaos")
		adminAddr = flag.String("admin-addr", "", "listen address for the admin control plane (status/recovery/checkpoint/metrics; see cmd/ocsmlctl)")
		gc        = flag.Bool("gc", false, "storage GC: every process prunes its own store below the durable line its peers report, which it hears with or without -gc (needs -datadir)")
	)
	flag.Parse()

	pat, err := workload.ParsePattern(*pattern)
	if err != nil {
		fatalf("%v", err)
	}
	opt := core.DefaultOptions()
	opt.Interval = des.Duration(*interval)
	opt.Timeout = des.Duration(*timeout)
	wl := workload.Config{Pattern: pat, Steps: *steps, Think: des.Duration(*think), MsgBytes: *msgBytes}

	if *chaos {
		runChaos(*n, *seed, *datadir, *chaosFor, *jsonOut)
		return
	}
	cfg := transport.ClusterConfig{
		N: *n, Seed: *seed, Datadir: *datadir, Opt: opt, Reliable: *reliableF,
		Workload: wl, Timeout: *runFor, Drain: *drain, GC: *gc,
	}
	switch {
	case !*spawnAll:
		// Daemon mode: the other members of the cluster are separate ocsmld
		// invocations (possibly on other machines).
		if *peers == "" {
			fatalf("daemon mode needs -peers (or use -spawn-all)")
		}
		cfg.Addrs = strings.Split(*peers, ",")
		cfg.N = len(cfg.Addrs)
		cfg.Local = []int{*id}
	case *recoverF || *resume >= 0:
		fatalf("-recover and -resume restart daemons: use -id/-peers")
	}
	line := *resume
	if *recoverF {
		line = -1 // the handshake agrees it
	}
	run(cfg, line, *recoverF, *adminAddr, *jsonOut)
}

// runChaos is -chaos: one seeded fault-injection round against a live
// localhost TCP cluster. Everything printed to stdout is a pure function
// of (-n, -seed, -chaos-for), so two runs with the same flags emit
// byte-identical schedules and invariant reports; timing-dependent fault
// counters go to stderr.
func runChaos(n int, seed int64, datadir string, faultFor time.Duration, jsonOut bool) {
	if datadir == "" {
		tmp, err := os.MkdirTemp("", "ocsml-chaos-*")
		if err != nil {
			fatalf("%v", err)
		}
		defer os.RemoveAll(tmp)
		datadir = tmp
	}
	cfg := transport.DefaultChaosConfig(n, seed, datadir, faultFor)
	rep, err := transport.RunChaos(cfg)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Fprintf(os.Stderr, "ocsmld: faults dropped=%d partitioned=%d dup=%d delayed=%d reordered=%d passed=%d\n",
		rep.FaultStats.Dropped, rep.FaultStats.Partitioned, rep.FaultStats.Duplicated,
		rep.FaultStats.Delayed, rep.FaultStats.Reordered, rep.FaultStats.Passed)
	if jsonOut {
		emitJSON(rep)
	} else {
		fmt.Print(rep.Render())
	}
	if !rep.OK() {
		os.Exit(1)
	}
}

// run hosts cfg's processes from bring-up to exit report. resume >= 0
// restarts them from their stores at that line in place of a fresh start;
// recoverFlag first runs the wire-level recovery round for the one hosted
// process.
func run(cfg transport.ClusterConfig, resume int, recoverFlag bool, adminAddr string, jsonOut bool) {
	c, err := transport.NewClusterAt(cfg, resume)
	if err != nil {
		fatalf("%v", err)
	}
	if recoverFlag {
		// Restart after a crash: survivors report their durable manifests,
		// the line is agreed as the highest fully-durable seq, they roll
		// back, and the committed epoch fences all pre-crash traffic.
		line, err := c.Recover(cfg.Local[0])
		if err != nil {
			fatalf("recovery coordination: %v", err)
		}
		fmt.Fprintf(os.Stderr, "ocsmld: P%d recovery committed line %d\n", cfg.Local[0], line)
	}
	hosted := len(c.Nodes())
	fmt.Fprintf(os.Stderr, "ocsmld: hosting %d of %d processes\n", hosted, cfg.N)

	// The admin server closes inside the graceful stop, while the nodes
	// still answer: an in-flight status read never races a dying node.
	var closeAdmin func()
	if adminAddr != "" {
		srv := admin.NewServer(admin.Config{Nodes: c.Nodes, Registry: c.Metrics})
		if err := srv.Start(adminAddr); err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintf(os.Stderr, "ocsmld: admin control plane on %s\n", srv.Addr())
		closeAdmin = func() {
			// shutdown path; a failed drain still force-closes the listener
			srv.Close()
		}
	}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if err := c.Run(ctx, closeAdmin); err != nil {
		fatalf("%v", err)
	}

	rep, err := c.Report()
	if err != nil {
		fatalf("consistency check failed: %v", err)
	}
	if jsonOut {
		emitJSON(rep)
		return
	}
	fmt.Printf("protocol            ocsml (tcp mesh)\n")
	fmt.Printf("processes           %d (%d hosted here)\n", rep.N, hosted)
	fmt.Printf("completed           %v\n", rep.Completed)
	fmt.Printf("makespan            %.3fs\n", rep.Makespan.Seconds())
	fmt.Printf("app messages        %d\n", rep.AppMessages)
	fmt.Printf("control messages    %d\n", rep.ControlMessages)
	fmt.Printf("piggyback bytes     %d (%.1f bytes/msg on the wire)\n", rep.PiggybackBytes, rep.PiggybackBytesPerMsg)
	if hosted == rep.N {
		fmt.Printf("global checkpoints  %d\n", rep.GlobalCheckpoints)
		fmt.Printf("consistency         OK (%d global checkpoints verified)\n", len(rep.ConsistentSeqs))
	} else {
		fmt.Printf("consistency         not checked (needs all %d processes in one host)\n", rep.N)
	}
	fmt.Printf("frames sent         %d (%d bytes)\n", rep.FramesSent, rep.FrameBytes)
	fmt.Printf("reconnects          %d\n", rep.Reconnects)
	fmt.Printf("frames dropped      %d\n", rep.Dropped)
	fmt.Printf("message log bytes   %d\n", rep.LogBytes)
	if cfg.Datadir != "" {
		printDurable(c.DurableLine(), rep.N)
	}
	names := make([]string, 0, len(rep.Counters))
	for name := range rep.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  %-24s %d\n", name, rep.Counters[name])
	}
}

// printDurable prints the durable S_k the hosted processes heard in their
// peers' reports (Cluster.DurableLine), whatever the datadir holds and
// however many of the n processes are hosted here.
func printDurable(line, n int) {
	if line >= 0 {
		fmt.Printf("durable S_k         %d (heard from all %d processes)\n", line, n)
	} else {
		fmt.Printf("durable S_k         -1 (not every one of the %d processes has reported a durable checkpoint)\n", n)
	}
}

func emitJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ocsmld: "+format+"\n", args...)
	os.Exit(1)
}
