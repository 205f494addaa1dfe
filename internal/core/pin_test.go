package core_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/obs/journal"
	"repro/internal/platform"
	"repro/internal/sched/bipart"
	"repro/internal/sched/jdp"
	"repro/internal/sched/minmin"
	"repro/internal/spec"
	"repro/internal/workload"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/fault_spec_digests.txt")

const digestFile = "fault_spec_digests.txt"

// pinnedRun is one deterministic run whose output bytes are pinned.
type pinnedRun struct {
	name  string
	p     *core.Problem
	sched core.Scheduler
	fp    *faults.FaultPlan
}

// pinnedRuns lists the runs the digest table covers. The golden
// traces under testdata/traces are fault-free, so these are what pin
// the fault-recovery and speculation paths of the §6 runtime:
//
//   - the TestSpecRaceOutcomes seed grid, which visits all three race
//     outcomes (twin wins, primary wins, both die);
//   - harsh faults with a raised link failure rate plus single-fork
//     speculation for MinMin, JDP and BiPartition, on XIO and on
//     OSUMED — the platform with a shared wide-area link, so failed
//     remote transfers burn link time too.
//
// IP is left out: its incumbents still depend on wall-clock budgets.
func pinnedRuns(t *testing.T) []pinnedRun {
	t.Helper()
	var runs []pinnedRun
	sp := specProblem(t)
	for seed := int64(1); seed <= 120; seed++ {
		runs = append(runs, pinnedRun{fmt.Sprintf("spec-grid/seed%03d", seed), sp, minmin.New(), specPlan(t, seed)})
	}
	b, err := workload.Image(workload.ImageConfig{NumTasks: 48, Overlap: workload.HighOverlap, NumStorage: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, pf := range []*platform.Platform{platform.XIO(6, 2, 0), platform.OSUMED(6, 2, 0)} {
		p := &core.Problem{Batch: b, Platform: pf}
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		for _, newSched := range []func() core.Scheduler{
			func() core.Scheduler { return minmin.New() },
			func() core.Scheduler { return jdp.New() },
			func() core.Scheduler { return bipart.New(1) },
		} {
			for _, seed := range []int64{3, 8, 13} {
				fp, err := faults.Parse(fmt.Sprintf("harsh,mttf=200,linkp=0.3,seed=%d", seed))
				if err != nil {
					t.Fatal(err)
				}
				s := newSched()
				runs = append(runs, pinnedRun{fmt.Sprintf("harsh/%s/%s/seed%d", pf.Name, s.Name(), seed), p, s, fp})
			}
		}
	}
	return runs
}

// runDigests runs r with a journal and a sim-only tracer attached and
// returns the sha256 of the journal JSONL, the Chrome trace and the
// Result JSON (wall-clock SchedulingTime zeroed), in that order.
func runDigests(t *testing.T, r pinnedRun) [3]string {
	t.Helper()
	rec := journal.New()
	tr := obs.NewSimOnly()
	res, err := core.RunWith(r.p, r.sched, core.RunOptions{Checked: true, Faults: r.fp,
		Spec: &spec.Policy{Kind: spec.SingleFork, Quantile: 0.86}, Obs: core.Observer{Trace: tr, Journal: rec}})
	if err != nil {
		t.Fatalf("%s: %v", r.name, err)
	}
	var jb, tb bytes.Buffer
	if err := rec.WriteJSONL(&jb); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteChrome(&tb); err != nil {
		t.Fatal(err)
	}
	res.SchedulingTime = 0
	rb, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var out [3]string
	for i, data := range [][]byte{jb.Bytes(), tb.Bytes(), rb} {
		sum := sha256.Sum256(data)
		out[i] = hex.EncodeToString(sum[:])
	}
	return out
}

// TestFaultSpecBytesPinned pins the journal, trace and Result bytes of
// fault-injected, speculated runs to a committed digest table, so a
// refactor of the recovery and speculation paths must reproduce them
// exactly. Regenerate with: go test ./internal/core -run TestFaultSpecBytesPinned -update
func TestFaultSpecBytesPinned(t *testing.T) {
	var got strings.Builder
	for _, r := range pinnedRuns(t) {
		d := runDigests(t, r)
		fmt.Fprintf(&got, "%s journal=%s trace=%s result=%s\n", r.name, d[0], d[1], d[2])
	}
	path := filepath.Join("testdata", digestFile)
	if *updateDigests {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing digest table (run with -update): %v", err)
	}
	if string(want) == got.String() {
		return
	}
	gotRows, wantRows := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := range gotRows {
		if i >= len(wantRows) || gotRows[i] != wantRows[i] {
			t.Errorf("digest row differs (regenerate with -update if the change is intended):\n got: %s", gotRows[i])
		}
	}
	if len(wantRows) != len(gotRows) {
		t.Errorf("digest table has %d rows, the runs produced %d", len(wantRows), len(gotRows))
	}
}
