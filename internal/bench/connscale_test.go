package bench

import (
	"strings"
	"testing"

	"repro/internal/cluster"
)

// TestConnScaleAcceptance pins the §VII scalability claims end to end:
// at 10⁴ simulated clients the shared-SRQ server's per-connection
// receive-buffer bytes sit at least 10× below the RC-per-client
// baseline, while at 10² live clients shared-SRQ aggregate TPS gives up
// no more than 10% against RC.
func TestConnScaleAcceptance(t *testing.T) {
	rep, err := ConnScaleSweep(cluster.ClusterB(), 100, RunConfig{OpsPerPoint: 10})
	if err != nil {
		t.Fatalf("ConnScaleSweep: %v", err)
	}

	rcPer := rep.PerClientAt("rc", 10_000)
	srqPer := rep.PerClientAt("srq", 10_000)
	if rcPer <= 0 || srqPer <= 0 {
		t.Fatalf("degenerate memory models: rc=%.1f srq=%.1f B/client", rcPer, srqPer)
	}
	if srqPer*10 > rcPer {
		t.Errorf("per-connection bytes at 10^4 clients: srq=%.1f rc=%.1f, want >=10x gap",
			srqPer, rcPer)
	}

	rcTPS, srqTPS := rep.TPS["rc"], rep.TPS["srq"]
	if rcTPS <= 0 || srqTPS <= 0 {
		t.Fatalf("degenerate TPS: rc=%.0f srq=%.0f", rcTPS, srqTPS)
	}
	if srqTPS < 0.9*rcTPS {
		t.Errorf("TPS at 100 clients: srq=%.0f rc=%.0f, srq gives up >10%%", srqTPS, rcTPS)
	}

	// Every mode reports both measured and extrapolated points.
	measured := map[string]int{}
	for _, pt := range rep.Points {
		if pt.Measured {
			measured[pt.Mode]++
		}
	}
	for _, mode := range connScaleModes {
		if measured[mode] != len(connScaleFitCounts) {
			t.Errorf("%s: %d measured points, want %d", mode, measured[mode], len(connScaleFitCounts))
		}
	}

	table := ConnScaleTable(rep)
	if !strings.Contains(table, "rc") || !strings.Contains(table, "10000") {
		t.Fatalf("table missing rows:\n%s", table)
	}
	t.Logf("\n%s", table)
}
