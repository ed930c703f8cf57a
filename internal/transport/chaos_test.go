package transport

import (
	"testing"
	"time"

	"ocsml/internal/faultnet"
)

// chaosTestConfig is a short chaos run tuned for wall clock: a 4-process
// cluster, ~1.5s of drop/partition/crash faults.
func chaosTestConfig(datadir string, seed int64) ChaosConfig {
	cfg := DefaultChaosConfig(4, seed, datadir, 1500*time.Millisecond)
	cfg.Converge = 25 * time.Second
	return cfg
}

// TestChaosRunInvariants drives one full chaos run — drops, a
// partition, a kill+restart — and requires every invariant to hold.
func TestChaosRunInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time chaos test")
	}
	rep, err := RunChaos(chaosTestConfig(t.TempDir(), 7))
	if err != nil {
		t.Fatalf("chaos run: %v", err)
	}
	if !rep.OK() {
		t.Fatalf("invariants failed:\n%s", rep.Render())
	}
	if rep.Restarts != len(rep.Schedule.Crashes) {
		t.Fatalf("restarts = %d, schedule has %d crashes", rep.Restarts, len(rep.Schedule.Crashes))
	}
	if rep.FaultStats.Dropped+rep.FaultStats.Partitioned == 0 {
		t.Fatal("injector applied no loss faults — schedule windows never met traffic")
	}
}

// TestChaosReportReproducible is the acceptance criterion: two chaos
// runs from the same seed produce byte-for-byte identical fault
// schedules and invariant reports.
func TestChaosReportReproducible(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time chaos test")
	}
	run := func() string {
		rep, err := RunChaos(chaosTestConfig(t.TempDir(), 13))
		if err != nil {
			t.Fatalf("chaos run: %v", err)
		}
		if !rep.OK() {
			t.Fatalf("invariants failed:\n%s", rep.Render())
		}
		return rep.Render()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("reports differ across runs of one seed:\n--- first\n%s--- second\n%s", a, b)
	}
}

// TestChaosRequiresDatadir: crash/restart without durable storage is a
// configuration error, not a panic.
func TestChaosRequiresDatadir(t *testing.T) {
	cfg := DefaultChaosConfig(4, 1, "", time.Second)
	if _, err := RunChaos(cfg); err == nil {
		t.Fatal("chaos without datadir accepted")
	}
}

// TestChaosProfileMismatch: the schedule's universe must match the
// cluster's.
func TestChaosProfileMismatch(t *testing.T) {
	cfg := DefaultChaosConfig(4, 1, t.TempDir(), time.Second)
	cfg.Profile = faultnet.DefaultProfile(5, time.Second)
	if _, err := RunChaos(cfg); err == nil {
		t.Fatal("mismatched profile accepted")
	}
}

func TestJitterSeedDecorrelated(t *testing.T) {
	seen := map[int64]bool{}
	for id := 0; id < 8; id++ {
		for peer := 0; peer < 8; peer++ {
			if id == peer {
				continue
			}
			s := jitterSeed(1, id, peer)
			if seen[s] {
				t.Fatalf("jitter seed collision at (%d,%d)", id, peer)
			}
			seen[s] = true
			if s != jitterSeed(1, id, peer) {
				t.Fatal("jitter seed not stable")
			}
		}
	}
	if jitterSeed(1, 0, 1) == jitterSeed(2, 0, 1) {
		t.Fatal("jitter seed ignores the mesh seed")
	}
}
