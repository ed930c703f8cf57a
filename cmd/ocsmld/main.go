// Command ocsmld runs the OCSML protocol over a real network: actual
// TCP connections between processes, the wire codec on every envelope,
// and (with -datadir) checkpoints fsync'd to real files.
//
// Two modes:
//
//	ocsmld -spawn-all -n 4 -datadir /tmp/ocsml        # whole cluster, one command
//	ocsmld -id 0 -peers host0:7000,host1:7000,...     # one process of a cluster
//
// Spawn-all launches an N-process cluster on localhost, runs the
// workload to completion and prints the same headline metrics as the
// simulator (cmd/ckptsim) plus the wire-level ones only a real network
// produces (frames, encoded piggyback bytes, reconnects).
//
// Daemon mode hosts a single process; start one ocsmld per entry in
// -peers (the -id'th address is bound locally). A killed daemon is
// restarted with -recover: before resuming it coordinates a wire-level
// recovery round (RB_BGN/RB_LINE/RB_CMT/RB_ACK, see DESIGN.md) that
// agrees the recovery line with the surviving daemons, rolls them back,
// and fences the pre-crash epoch; its own state is then reloaded from
// the -datadir manifest at the agreed line. -resume <seq> remains as
// the manual override when the line is known out of band.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"ocsml/internal/admin"
	"ocsml/internal/checkpoint"
	"ocsml/internal/core"
	"ocsml/internal/des"
	"ocsml/internal/fsstore"
	"ocsml/internal/metrics"
	"ocsml/internal/trace"
	"ocsml/internal/transport"
	"ocsml/internal/workload"
)

var patterns = map[string]workload.Pattern{
	"uniform":       workload.UniformRandom,
	"ring":          workload.Ring,
	"client-server": workload.ClientServer,
	"mesh":          workload.Mesh,
	"bursty":        workload.Bursty,
	"stencil":       workload.BSPStencil,
}

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
		adminAddr = flag.String("admin-addr", "", "listen address for the admin control plane (status/manifest/recovery/checkpoint/metrics; see cmd/ocsmlctl)")
		gcEvery   = flag.Duration("gc-interval", 0, "storage GC period: prune finalized checkpoints below the globally durable S_k watermark (needs -datadir; 0 disables)")
	)
	flag.Parse()

	pat, ok := patterns[*pattern]
	if !ok {
		fatalf("unknown pattern %q", *pattern)
	}
	opt := core.DefaultOptions()
	opt.Interval = des.Duration(*interval)
	opt.Timeout = des.Duration(*timeout)
	wl := workload.Config{Pattern: pat, Steps: *steps, Think: des.Duration(*think), MsgBytes: *msgBytes}

	if *chaos {
		runChaos(*n, *seed, *datadir, *chaosFor, *jsonOut)
		return
	}
	if *spawnAll {
		runCluster(*n, *seed, *datadir, opt, wl, *reliableF, *runFor, *drain, *jsonOut, *adminAddr, *gcEvery)
		return
	}
	runDaemon(*id, *peers, *datadir, *resume, *recoverF, *seed, opt, wl, *reliableF, *runFor, *drain, *jsonOut, *adminAddr, *gcEvery)
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
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fatalf("%v", err)
		}
	} else {
		fmt.Print(rep.Render())
	}
	if !rep.OK() {
		os.Exit(1)
	}
}

// runCluster is -spawn-all: the whole cluster in one OS process, nodes
// talking over real localhost TCP.
func runCluster(n int, seed int64, datadir string, opt core.Options, wl workload.Config,
	rel bool, runFor, drain time.Duration, jsonOut bool, adminAddr string,
	gcEvery time.Duration) {
	c, err := transport.NewCluster(transport.ClusterConfig{
		N: n, Seed: seed, Datadir: datadir, Opt: opt, Reliable: rel,
		Workload: wl, Timeout: runFor, Drain: drain,
		GCInterval: gcEvery,
	})
	if err != nil {
		fatalf("%v", err)
	}
	// The admin server drains before the mesh closes (RunThen's
	// pre-stop hook), so an in-flight status read never races a dying
	// node.
	var beforeStop func()
	if adminAddr != "" {
		srv := admin.NewServer(admin.Config{
			Nodes: c.Nodes, Registry: c.Metrics, Datadir: datadir, N: n,
		})
		if err := srv.Start(adminAddr); err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintf(os.Stderr, "ocsmld: admin control plane on %s\n", srv.Addr())
		beforeStop = func() { srv.Close() }
	}
	if err := c.RunThen(beforeStop); err != nil {
		fatalf("%v", err)
	}
	rep, err := c.Report()
	if err != nil {
		fatalf("consistency check failed: %v", err)
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fatalf("%v", err)
		}
		return
	}
	fmt.Printf("protocol            ocsml (tcp mesh)\n")
	fmt.Printf("processes           %d\n", rep.N)
	fmt.Printf("completed           %v\n", rep.Completed)
	fmt.Printf("makespan            %.3fs\n", rep.Makespan.Seconds())
	fmt.Printf("app messages        %d\n", rep.AppMessages)
	fmt.Printf("control messages    %d\n", rep.ControlMessages)
	fmt.Printf("piggyback bytes     %d (%.1f bytes/msg on the wire)\n", rep.PiggybackBytes, rep.PiggybackBytesPerMsg)
	fmt.Printf("global checkpoints  %d\n", rep.GlobalCheckpoints)
	fmt.Printf("consistency         OK (%d global checkpoints verified)\n", len(rep.ConsistentSeqs))
	fmt.Printf("frames sent         %d (%d bytes)\n", rep.FramesSent, rep.FrameBytes)
	fmt.Printf("reconnects          %d\n", rep.Reconnects)
	fmt.Printf("frames dropped      %d\n", rep.Dropped)
	fmt.Printf("message log bytes   %d\n", rep.LogBytes)
	if datadir != "" {
		last, err := fsstore.LastCompleteSeq(datadir, rep.N)
		if err != nil {
			fatalf("manifest check: %v", err)
		}
		fmt.Printf("durable S_k         %d (all %d manifests)\n", last, rep.N)
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

// runDaemon hosts one process of a cluster whose other members are
// separate ocsmld invocations (possibly on other machines).
func runDaemon(id int, peerList, datadir string, resume int, recoverFlag bool, seed int64, opt core.Options,
	wl workload.Config, rel bool, runFor, drain time.Duration, jsonOut bool, adminAddr string,
	gcEvery time.Duration) {
	if peerList == "" {
		fatalf("daemon mode needs -peers (or use -spawn-all)")
	}
	addrs := strings.Split(peerList, ",")
	n := len(addrs)
	if id < 0 || id >= n {
		fatalf("-id %d out of range for %d peers", id, n)
	}
	if n < 2 {
		fatalf("need at least 2 peers")
	}
	// Local (per-daemon) recorder, checkpoint store and metric registry:
	// in daemon mode every process observes only itself. The free-form
	// counter namespace lands in the registry's events family, which the
	// admin server's /metrics and the exit report both read.
	rec := trace.NewRecorder()
	ckpts := checkpoint.NewStore(n)
	reg := metrics.NewRegistry()
	count := reg.EventSink()

	var fs *fsstore.Store
	var err error
	if datadir != "" {
		if fs, err = fsstore.Open(datadir, id, n); err != nil {
			fatalf("%v", err)
		}
		fs.SetMetrics(fsstore.NewStoreMetrics(reg, id))
	}

	epoch := 0
	if recoverFlag {
		// Restart after a crash: before resuming, run the wire-level
		// recovery handshake from this process's own address — survivors
		// report their durable manifests, the line is agreed as the
		// highest fully-durable seq, they roll back, and the committed
		// epoch fences all pre-crash traffic.
		if fs == nil {
			fatalf("-recover needs -datadir")
		}
		ln, err := net.Listen("tcp", addrs[id])
		if err != nil {
			fatalf("binding %s: %v", addrs[id], err)
		}
		dec, err := transport.Coordinate(transport.CoordinatorConfig{
			ID: id, Addrs: addrs, Seed: seed,
			Seqs: fs.Manifest().Seqs, Count: count,
		}, ln) // closes ln, so the node below can rebind
		if err != nil {
			fatalf("recovery coordination: %v", err)
		}
		fmt.Fprintf(os.Stderr, "ocsmld: P%d recovery committed line %d epoch %d\n", id, dec.Line, dec.Epoch)
		resume = dec.Line
		epoch = dec.Epoch
	}

	// Fresh start (resume < 0) or the restart-from-disk sequence the
	// in-process cluster runs too: truncate above the line, reload, resume.
	pr, err := transport.ResumeProtocol(opt, rel, fs, ckpts.Proc(id), resume)
	if err != nil {
		fatalf("%v", err)
	}
	ln, err := net.Listen("tcp", addrs[id])
	if err != nil {
		fatalf("binding %s: %v", addrs[id], err)
	}
	doneCh := make(chan struct{}, 1)
	node, err := transport.NewNode(transport.NodeConfig{
		ID: id, N: n, Addrs: addrs, Listener: ln,
		Seed: seed, Epoch: epoch, Resume: resume,
		Proto: pr, App: workload.Factory(wl)(id, n),
		Rec: rec, Ckpts: ckpts, Metrics: reg,
		FS: fs,
		OnDone: func(int) {
			select {
			case doneCh <- struct{}{}:
			default:
			}
		},
	})
	if err != nil {
		fatalf("%v", err)
	}
	node.Start()
	fmt.Fprintf(os.Stderr, "ocsmld: P%d listening on %s (n=%d, resume=%d)\n", id, addrs[id], n, resume)

	// The control plane comes up after the node so /v1/readyz never
	// answers 200 for a process whose mesh is not yet serving.
	var srv *admin.Server
	if adminAddr != "" {
		srv = admin.NewServer(admin.Config{
			Nodes:    func() []*transport.Node { return []*transport.Node{node} },
			Registry: reg, Datadir: datadir, N: n,
		})
		if err := srv.Start(adminAddr); err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintf(os.Stderr, "ocsmld: P%d admin control plane on %s\n", id, srv.Addr())
	}

	// Daemon-mode GC: the datadir is shared, so the globally durable
	// line S_k is readable here too — the intersection of every
	// process's manifest. Each tick prunes this process's own store
	// below it; peers never touch each other's directories.
	gcQuit := make(chan struct{})
	var gcWG sync.WaitGroup
	if fs != nil && gcEvery > 0 {
		gcWG.Add(1)
		go func() {
			defer gcWG.Done()
			tick := time.NewTicker(gcEvery)
			defer tick.Stop()
			for {
				select {
				case <-gcQuit:
					return
				case <-tick.C:
				}
				wm, err := fsstore.LastCompleteSeq(datadir, n)
				if err != nil || wm <= 0 {
					continue // a peer's manifest is missing or torn; retry next tick
				}
				if err := fs.GCTo(wm); err != nil {
					count("fsstore.gc_errors", 1)
					continue
				}
				count("fsstore.gc_sweeps", 1)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	completed := false
	select {
	case <-doneCh:
		completed = true
		// Stay up through the drain so peers can finish their own quotas
		// and the last checkpoint round can finalize everywhere.
		select {
		case <-time.After(drain):
		case <-sig:
		}
	case <-sig:
	case <-time.After(runFor):
	}
	// Graceful stop, in dependency order: stop admitting control-plane
	// requests, let queued stable-storage writes reach the disk, then
	// close the mesh. A SIGTERM therefore never abandons an in-flight
	// finalization the manifest was about to record.
	close(gcQuit)
	gcWG.Wait()
	if srv != nil {
		//ocsml:errsink shutdown path; a failed drain still force-closes the listener
		srv.Close()
	}
	if !node.WaitStorageIdle(2 * time.Second) {
		fmt.Fprintf(os.Stderr, "ocsmld: P%d storage queue did not drain; closing anyway\n", id)
	}
	node.Close()

	type daemonReport struct {
		ID             int
		Completed      bool
		FinalizedSeqs  []int
		DurableLastSeq int
		Mesh           transport.MeshStats
		StaleDropped   int64
		DecodeErrors   int64
		Counters       map[string]int64
	}
	dr := daemonReport{
		ID: id, Completed: completed,
		Mesh:           node.Mesh().Stats(),
		StaleDropped:   node.StaleDropped(),
		DecodeErrors:   node.DecodeErrors(),
		Counters:       reg.EventCounts(),
		DurableLastSeq: -1,
	}
	for _, r := range ckpts.Proc(id).All() {
		if r.Seq > 0 && r.FinalizedAt != 0 {
			dr.FinalizedSeqs = append(dr.FinalizedSeqs, r.Seq)
		}
	}
	if fs != nil {
		dr.DurableLastSeq = fs.LastSeq()
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(dr); err != nil {
			fatalf("%v", err)
		}
		return
	}
	fmt.Printf("process             P%d\n", dr.ID)
	fmt.Printf("completed           %v\n", dr.Completed)
	fmt.Printf("finalized seqs      %v\n", dr.FinalizedSeqs)
	fmt.Printf("durable last seq    %d\n", dr.DurableLastSeq)
	fmt.Printf("frames sent/recv    %d/%d\n", dr.Mesh.FramesSent, dr.Mesh.FramesRecv)
	fmt.Printf("bytes sent/recv     %d/%d\n", dr.Mesh.BytesSent, dr.Mesh.BytesRecv)
	fmt.Printf("reconnects          %d\n", dr.Mesh.Reconnects)
	fmt.Printf("stale dropped       %d\n", dr.StaleDropped)
	names := make([]string, 0, len(dr.Counters))
	for name := range dr.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  %-24s %d\n", name, dr.Counters[name])
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ocsmld: "+format+"\n", args...)
	os.Exit(1)
}
