package harness

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"ocsml/internal/des"
	"ocsml/internal/engine"
	"ocsml/internal/trace"
)

func TestRegistryAndRun(t *testing.T) {
	for _, name := range append(ProtoNames(), "ocsml-basic") {
		name := name
		t.Run(name, func(t *testing.T) {
			r := Run(RunCfg{Proto: name, N: 4, Steps: 60, Seed: 2})
			if !r.Completed {
				t.Fatalf("%s run did not complete", name)
			}
		})
	}
}

// TestHarnessDeterminism runs one seeded OCSML simulation, with a crash
// and its recovery, twice in one process and compares what it outputs
// byte for byte: the trace as JSON Lines, the counters in CounterNames
// order, and each process's final state fold. Go randomises map iteration
// order on every range, and the global rand source and the wall clock
// differ between the two runs, so any of them reaching an output fails
// here.
func TestHarnessDeterminism(t *testing.T) {
	rc := RunCfg{Proto: "ocsml", N: 6, Seed: 17, Steps: 250,
		Think: 10 * des.Millisecond, StateBytes: 4 << 20, Trace: true,
		Failure: &engine.FailurePlan{At: 1500 * des.Millisecond, Proc: 2}}
	output := func() []byte {
		r := Run(rc)
		if got := r.Counter("recovery.recoveries"); got != 1 {
			t.Fatalf("recoveries = %d, want 1", got)
		}
		var b bytes.Buffer
		if err := trace.WriteJSON(&b, r.Trace.Events()); err != nil {
			t.Fatal(err)
		}
		for _, name := range r.CounterNames() {
			fmt.Fprintf(&b, "%s %d\n", name, r.Counters[name])
		}
		fmt.Fprintf(&b, "folds %v works %v makespan %d log bytes %d\n",
			r.Folds, r.Works, r.Makespan, r.TotalLogBytes())
		return b.Bytes()
	}
	a, b := output(), output()
	if bytes.Equal(a, b) {
		return
	}
	la, lb := strings.Split(string(a), "\n"), strings.Split(string(b), "\n")
	for i := 0; i < len(la) && i < len(lb); i++ {
		if la[i] != lb[i] {
			t.Fatalf("identical RunCfg diverged at output line %d:\n  %s\n  %s", i+1, la[i], lb[i])
		}
	}
	t.Fatalf("identical RunCfg diverged: %d vs %d output lines", len(la), len(lb))
}

func TestUnknownProtocolPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown protocol should panic")
		}
	}()
	Run(RunCfg{Proto: "nope"})
}

func TestExperimentLookup(t *testing.T) {
	if len(All()) != 15 {
		t.Fatalf("expected 15 experiments, got %d", len(All()))
	}
	if _, ok := ByID("E1"); !ok {
		t.Fatal("E1 missing")
	}
	if _, ok := ByID("E99"); ok {
		t.Fatal("E99 should not exist")
	}
	ids := IDs()
	if len(ids) != 15 || ids[0] != "A1" {
		t.Fatalf("IDs = %v", ids)
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{ID: "T", Title: "demo", Claim: "c", Columns: []string{"a", "bee"}}
	tab.AddRow("1", "2")
	tab.AddRow("333", "4")
	tab.Note("hello %d", 7)
	out := tab.Render()
	for _, want := range []string{"T — demo", "claim: c", "a    bee", "333", "note: hello 7"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Render missing %q:\n%s", want, out)
		}
	}
}

func TestTableRowArityPanics(t *testing.T) {
	tab := &Table{Columns: []string{"a", "b"}}
	defer func() {
		if recover() == nil {
			t.Fatal("bad arity should panic")
		}
	}()
	tab.AddRow("only-one")
}

func TestFormatters(t *testing.T) {
	if F(0) != "0" || F(12345) != "12345" || F(42.19) != "42.2" || F(1.23456) != "1.235" {
		t.Fatalf("F: %s %s %s %s", F(0), F(12345), F(42.19), F(1.23456))
	}
	if I(7) != "7" || I(int64(-3)) != "-3" {
		t.Fatal("I")
	}
	if Pct(0.125) != "12.5%" {
		t.Fatalf("Pct = %s", Pct(0.125))
	}
}

// TestExperimentShapes runs each experiment at quick scale and checks the
// paper's qualitative claims hold — this is the reproduction gate.
func TestExperimentShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	s := Scale{Quick: true}

	t.Run("E1-ocsml-wins", func(t *testing.T) {
		t.Parallel()
		tab, idx := run1(t, "E1", s)
		// For the largest N, OCSML's makespan must beat Chandy–Lamport
		// and Koo–Toueg, and every protocol must have completed.
		last := lastN(tab, idx)
		for _, proto := range []string{"none", "ocsml", "chandy-lamport", "koo-toueg"} {
			if _, ok := last[proto]; !ok {
				t.Fatalf("%s did not finish at the largest N: %v", proto, last)
			}
		}
		if last["ocsml"] >= last["chandy-lamport"] || last["ocsml"] >= last["koo-toueg"] {
			t.Fatalf("OCSML should win at scale: %v", last)
		}
	})

	t.Run("E2-contention", func(t *testing.T) {
		t.Parallel()
		tab, _ := run1(t, "E2", s)
		// OCSML's peak queue must stay below Chandy-Lamport's at the
		// largest N.
		peak := map[string]int{}
		for _, row := range tab.Rows {
			if row[0] == strconv.Itoa(s.Ns()[len(s.Ns())-1]) {
				v, _ := strconv.Atoi(row[2])
				peak[row[1]] = v
			}
		}
		if peak["ocsml"] >= peak["chandy-lamport"] {
			t.Fatalf("contention shape wrong: %v", peak)
		}
	})

	t.Run("E3-ctl-vanish", func(t *testing.T) {
		t.Parallel()
		tab, _ := run1(t, "E3", s)
		// Densest traffic row: zero pre-completion control messages.
		first := tab.Rows[0]
		if first[4] != "0" {
			t.Fatalf("dense traffic has pre-completion control messages: %v", first)
		}
		// Sparsest row: some control traffic.
		lastRow := tab.Rows[len(tab.Rows)-1]
		if lastRow[3] == "0" {
			t.Fatalf("sparse traffic should need control messages: %v", lastRow)
		}
	})

	t.Run("E6-blocking", func(t *testing.T) {
		t.Parallel()
		tab, _ := run1(t, "E6", s)
		for _, row := range tab.Rows {
			if row[1] != "ocsml" && row[1] != "koo-toueg" {
				continue
			}
			v, err := strconv.ParseFloat(row[2], 64)
			if err != nil {
				t.Fatal(err)
			}
			if row[1] == "ocsml" && v > 0.5 {
				t.Fatalf("OCSML stalls too much: %v", row)
			}
			if row[1] == "koo-toueg" && v < 0.1 {
				t.Fatalf("Koo-Toueg should block substantially: %v", row)
			}
		}
	})

	t.Run("E7-forced", func(t *testing.T) {
		t.Parallel()
		tab, _ := run1(t, "E7", s)
		for _, row := range tab.Rows {
			if row[1] == "ocsml" && row[3] != "0" {
				t.Fatalf("OCSML must never force checkpoints: %v", row)
			}
			if row[1] == "bcs-cic" && row[0] == "5" && row[3] == "0" {
				t.Fatalf("CIC under dense traffic must force checkpoints: %v", row)
			}
		}
	})

	t.Run("E8-domino", func(t *testing.T) {
		t.Parallel()
		tab, _ := run1(t, "E8", s)
		depth := map[string]int{}
		for _, row := range tab.Rows {
			if row[1] == "ocsml" && row[3] != "1" {
				t.Fatalf("OCSML row is not one executed RB_* round: %v", row)
			}
			if row[0] == "uniform" {
				v, _ := strconv.Atoi(row[2])
				depth[row[1]] = v
			}
		}
		if depth["ocsml"] > 1 {
			t.Fatalf("OCSML rollback depth %d > 1", depth["ocsml"])
		}
		if depth["uncoordinated"] <= depth["ocsml"] {
			t.Fatalf("domino shape wrong: %v", depth)
		}
	})

	t.Run("E9-retention", func(t *testing.T) {
		t.Parallel()
		tab, _ := run1(t, "E9", s)
		var ocsmlRetained, uncoordRetained float64
		for _, row := range tab.Rows {
			v, err := strconv.ParseFloat(row[2], 64)
			if err != nil {
				t.Fatal(err)
			}
			switch row[0] {
			case "ocsml":
				ocsmlRetained = v
			case "uncoordinated":
				uncoordRetained = v
			}
		}
		if ocsmlRetained > 2 {
			t.Fatalf("OCSML should retain at most the committed line (+1 in flight), got %v", ocsmlRetained)
		}
		if uncoordRetained <= ocsmlRetained {
			t.Fatalf("uncoordinated must retain more: %v vs %v", uncoordRetained, ocsmlRetained)
		}
	})

	t.Run("E10-loss", func(t *testing.T) {
		t.Parallel()
		tab, _ := run1(t, "E10", s)
		for _, row := range tab.Rows {
			if row[5] != "yes" {
				t.Fatalf("inconsistent under loss: %v", row)
			}
		}
		// Retransmissions grow with the drop rate.
		first, _ := strconv.ParseFloat(tab.Rows[0][1], 64)
		last, _ := strconv.ParseFloat(tab.Rows[len(tab.Rows)-1][1], 64)
		if first != 0 || last <= 0 {
			t.Fatalf("retransmission shape wrong: %v .. %v", first, last)
		}
	})

	t.Run("E11-model", func(t *testing.T) {
		t.Parallel()
		tab, _ := run1(t, "E11", s)
		for _, row := range tab.Rows {
			e, err := strconv.ParseFloat(strings.TrimSuffix(row[3], "%"), 64)
			if err != nil {
				t.Fatal(err)
			}
			// The queueing and loss models are near-exact; the epidemic
			// gossip estimate is a first-order bound (documented) and
			// gets a wider gate.
			limit := 20.0
			if strings.Contains(row[0], "finalize latency") {
				limit = 60.0
			}
			if e > limit {
				t.Fatalf("model error %v%% exceeds %v%%: %v", e, limit, row)
			}
		}
	})

	t.Run("A4-local-storage", func(t *testing.T) {
		t.Parallel()
		tab, _ := run1(t, "A4", s)
		get := func(proto, storage string, col int) float64 {
			for _, row := range tab.Rows {
				if row[0] == proto && row[1] == storage {
					v, _ := strconv.ParseFloat(row[col], 64)
					return v
				}
			}
			t.Fatalf("row %s/%s missing", proto, storage)
			return 0
		}
		// Local disks remove the queueing (peak 1) but not the blocking.
		if get("koo-toueg", "local", 2) != 1 {
			t.Fatal("local disks should eliminate queueing")
		}
		if get("koo-toueg", "local", 4) <= 0.05 {
			t.Fatal("blocking must remain on local disks")
		}
		if get("koo-toueg", "shared", 4) <= get("koo-toueg", "local", 4) {
			t.Fatal("shared storage should block more")
		}
		// OCSML is indifferent to the storage topology.
		if get("ocsml", "shared", 2) != 1 || get("ocsml", "local", 2) != 1 {
			t.Fatal("OCSML queue should be 1 either way")
		}
	})

	t.Run("A2-skip", func(t *testing.T) {
		t.Parallel()
		tab, _ := run1(t, "A2", s)
		noSkip, _ := strconv.ParseFloat(tab.Rows[0][2], 64)
		skip, _ := strconv.ParseFloat(tab.Rows[1][2], 64)
		if skip > noSkip {
			t.Fatalf("skipping should not increase REQ hops: %v vs %v", skip, noSkip)
		}
	})
}

// run1 executes one experiment and returns its table plus a makespan map
// builder helper index (unused for most).
func run1(t *testing.T, id string, s Scale) (*Table, int) {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %s missing", id)
	}
	tab := e.Execute(s)
	if tab.ID != id || len(tab.Rows) == 0 {
		t.Fatalf("experiment %s produced empty table", id)
	}
	return tab, 0
}

// lastN extracts protocol→makespan for the largest N in an E1-style table.
func lastN(tab *Table, _ int) map[string]float64 {
	out := map[string]float64{}
	lastN := tab.Rows[len(tab.Rows)-1][0]
	for _, row := range tab.Rows {
		if row[0] != lastN {
			continue
		}
		v, err := strconv.ParseFloat(row[2], 64)
		if err == nil {
			out[row[1]] = v
		}
	}
	return out
}

func TestScale(t *testing.T) {
	q := Scale{Quick: true}
	f := Scale{}
	if len(q.Ns()) >= len(f.Ns()) || q.Steps() >= f.Steps() {
		t.Fatal("quick scale should be smaller")
	}
	if _, fifo := factory(RunCfg{Proto: "chandy-lamport", Interval: des.Second}); !fifo {
		t.Fatal("chandy-lamport must request FIFO")
	}
	if _, fifo := factory(RunCfg{Proto: "ocsml"}); fifo {
		t.Fatal("ocsml must not request FIFO")
	}
}
