package harness

// Cross-product safety net: every coordinated protocol on every workload
// pattern must complete and emit only consistent global checkpoints.

import (
	"fmt"
	"testing"

	"ocsml/internal/des"
	"ocsml/internal/workload"
)

func TestProtocolWorkloadMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	protos := []string{"ocsml", "chandy-lamport", "koo-toueg", "staggered", "bcs-cic"}
	// The subtests keep the names they had when the stencil's String was
	// "bsp", so a run's history reads the same across the rename.
	patterns := []struct {
		name string
		pat  workload.Pattern
	}{
		{"uniform", workload.UniformRandom}, {"ring", workload.Ring},
		{"client-server", workload.ClientServer}, {"mesh", workload.Mesh},
		{"bursty", workload.Bursty}, {"bsp", workload.BSPStencil},
	}
	for _, proto := range protos {
		for _, p := range patterns {
			for seed := int64(1); seed <= 2; seed++ {
				proto, pat, seed := proto, p.pat, seed
				t.Run(fmt.Sprintf("%s/%s/seed%d", proto, p.name, seed), func(t *testing.T) {
					t.Parallel()
					r := Run(RunCfg{
						Proto: proto, N: 6, Seed: seed,
						Steps: 200, Think: 10 * des.Millisecond,
						Pattern: pat, StateBytes: 4 << 20,
						Interval: des.Second, Timeout: 400 * des.Millisecond,
						Trace: true,
					})
					if !r.Completed {
						t.Fatal("did not complete")
					}
					seqs, err := r.CheckAllGlobals()
					if err != nil {
						t.Fatalf("consistency: %v", err)
					}
					if len(seqs) < 2 {
						t.Fatalf("too few global checkpoints: %v", seqs)
					}
				})
			}
		}
	}
}
