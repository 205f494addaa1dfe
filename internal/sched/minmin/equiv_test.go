package minmin

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/obs/journal"
	"repro/internal/platform"
	"repro/internal/workload"
)

// runArm executes one full pipeline (plan → execute → evict → repeat)
// and returns the provenance journal bytes plus the result, the
// byte-level fingerprint of every decision the scheduler made.
func runArm(t *testing.T, s core.Scheduler, compute int, disk int64, seed int64) ([]byte, *core.Result) {
	t.Helper()
	b := workload.Random(seed, 60, 45, 5, 2, 12*platform.MB, platform.PaperComputeFactor)
	p := &core.Problem{Batch: b, Platform: platform.XIO(compute, 2, disk)}
	rec := journal.New()
	res, err := core.RunWith(p, s, core.RunOptions{Checked: true, Obs: core.Observer{Journal: rec}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), res
}

// TestMinMinIncrementalEquivalence pins the tentpole contract: the
// incremental heap implementation must reproduce the reference
// full-rescan plan byte for byte — every journal event (placement
// order, chosen nodes, full candidate matrices, staging, execution,
// eviction rationale) and the run result — across unlimited disk,
// eviction-pressured multi-round runs, and replication-disabled
// configurations.
func TestMinMinIncrementalEquivalence(t *testing.T) {
	cases := []struct {
		name    string
		compute int
		disk    int64
		seed    int64
	}{
		{"unlimited", 4, 0, 1},
		{"unlimited-wide", 9, 0, 2},
		{"disk-pressure", 3, 90 * platform.MB, 3},
		{"disk-tight", 4, 70 * platform.MB, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			naiveJ, naiveR := runArm(t, naive{New()}, tc.compute, tc.disk, tc.seed)
			incJ, incR := runArm(t, &Scheduler{}, tc.compute, tc.disk, tc.seed)
			if !bytes.Equal(naiveJ, incJ) {
				line := 0
				a, b := bytes.Split(naiveJ, []byte("\n")), bytes.Split(incJ, []byte("\n"))
				for i := 0; i < len(a) && i < len(b); i++ {
					if !bytes.Equal(a[i], b[i]) {
						line = i
						break
					}
				}
				t.Fatalf("journals diverge at line %d:\nnaive: %s\nincr:  %s", line, a[line], b[line])
			}
			if naiveR.Makespan != incR.Makespan || naiveR.SubBatches != incR.SubBatches ||
				naiveR.Evictions != incR.Evictions || naiveR.TaskCount != incR.TaskCount {
				t.Fatalf("results diverge: naive %+v vs incremental %+v", naiveR, incR)
			}
		})
	}
}

// TestMinMinIncrementalEquivalenceNoReplication covers the
// DisableReplication arm, where the anyCopy flip has no effect and the
// incremental path must skip its dirty-discount machinery without
// changing a byte.
func TestMinMinIncrementalEquivalenceNoReplication(t *testing.T) {
	b := workload.Random(7, 50, 35, 4, 2, 10*platform.MB, platform.PaperComputeFactor)
	for _, disk := range []int64{0, 55 * platform.MB} {
		p := &core.Problem{Batch: b, Platform: platform.XIO(4, 2, disk), DisableReplication: true}
		var outs [][]byte
		for _, s := range []core.Scheduler{naive{New()}, New()} {
			rec := journal.New()
			if _, err := core.RunWith(p, s,
				core.RunOptions{Checked: true, Obs: core.Observer{Journal: rec}}); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := rec.WriteJSONL(&buf); err != nil {
				t.Fatal(err)
			}
			outs = append(outs, buf.Bytes())
		}
		if !bytes.Equal(outs[0], outs[1]) {
			t.Fatalf("disk=%d: replication-disabled journals diverge", disk)
		}
	}
}
