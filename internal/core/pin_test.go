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

	"repro/internal/batch"
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
//     remote transfers burn link time too;
//   - fault-free MinMin and JDP runs that pin their planners: the
//     workload.Random cases of their equivalence tests (unlimited disk,
//     disk pressure, replication disabled), and a 1k-task IMAGE batch
//     whose disk forces many sub-batches and evictions.
//
// IP is left out: its incumbents still depend on wall-clock budgets.
// noJournalRuns adds a journal-free repeat of each.
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
	return append(runs, plannerRuns(t)...)
}

// plannerRuns lists the fault-free MinMin and JDP rows of the table.
func plannerRuns(t *testing.T) []pinnedRun {
	t.Helper()
	type randomCase struct {
		name    string
		compute int
		disk    int64
		noRepl  bool
		b       *batch.Batch
	}
	rnd := func(seed int64) *batch.Batch {
		return workload.Random(seed, 60, 45, 5, 2, 12*platform.MB, platform.PaperComputeFactor)
	}
	small := workload.Random(7, 50, 35, 4, 2, 10*platform.MB, platform.PaperComputeFactor)
	// The cases of TestMinMinIncrementalEquivalence(NoReplication) and
	// TestJDPIndexedEquivalence.
	mmCases := []randomCase{
		{"unlimited", 4, 0, false, rnd(1)},
		{"unlimited-wide", 9, 0, false, rnd(2)},
		{"disk-pressure", 3, 90 * platform.MB, false, rnd(3)},
		{"disk-tight", 4, 70 * platform.MB, false, rnd(4)},
		{"no-replication", 4, 0, true, small},
		{"no-replication-disk", 4, 55 * platform.MB, true, small},
	}
	jdpCases := []randomCase{
		{"unlimited", 4, 0, false, rnd(1)},
		{"unlimited-wide", 9, 0, false, rnd(2)},
		{"disk-pressure", 3, 90 * platform.MB, false, rnd(3)},
		{"disk-tight", 4, 120 * platform.MB, false, rnd(4)},
		{"no-replication", 4, 0, true, rnd(5)},
		{"no-replication-disk", 4, 80 * platform.MB, true, rnd(6)},
	}
	var runs []pinnedRun
	for _, arm := range []struct {
		cases    []randomCase
		newSched func() core.Scheduler
	}{
		{mmCases, func() core.Scheduler { return minmin.New() }},
		{jdpCases, func() core.Scheduler { return jdp.New() }},
	} {
		for _, c := range arm.cases {
			s := arm.newSched()
			p := &core.Problem{Batch: c.b, Platform: platform.XIO(c.compute, 2, c.disk), DisableReplication: c.noRepl}
			runs = append(runs, pinnedRun{fmt.Sprintf("random/%s/%s", s.Name(), c.name), p, s, nil})
		}
	}
	b, err := workload.Image(workload.ImageConfig{NumTasks: 1000, Overlap: workload.HighOverlap,
		NumStorage: 4, Seed: 17, MaxPatients: 8})
	if err != nil {
		t.Fatal(err)
	}
	// 300 MB is about twice the largest task's inputs and under 4% of
	// the batch's unique bytes.
	p := &core.Problem{Batch: b, Platform: platform.XIO(16, 4, 300*platform.MB)}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, s := range []core.Scheduler{minmin.New(), jdp.New()} {
		runs = append(runs, pinnedRun{"image1k-disk/" + s.Name(), p, s, nil})
	}
	return runs
}

// noJournalRuns returns a fresh copy of every pinned run (new
// schedulers included) with "/nojournal" appended to its name,
// followed by one 800-task IMAGE batch shaped like perfbench's
// image-exec workload: JDP on XIO 16x4, unlimited disk. They run with
// no journal attached, so they pin the executor's plain commit path,
// the one the benchmark times, where the journaled runs take the
// journaled one.
func noJournalRuns(t *testing.T) []pinnedRun {
	t.Helper()
	runs := pinnedRuns(t)
	for i := range runs {
		runs[i].name += "/nojournal"
	}
	b, err := workload.Image(workload.ImageConfig{NumTasks: 800, Overlap: workload.HighOverlap, NumStorage: 4, Seed: 1001})
	if err != nil {
		t.Fatal(err)
	}
	p := &core.Problem{Batch: b, Platform: platform.XIO(16, 4, 0)}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	s := jdp.New()
	return append(runs, pinnedRun{"image-exec/" + s.Name() + "/nojournal", p, s, nil})
}

// runDigests runs r with a sim-only tracer and, when journaled, a
// journal attached and returns the sha256 of the journal JSONL ("-"
// without a journal), the Chrome trace and the Result JSON (wall-clock
// SchedulingTime zeroed), in that order. The Result is digested as
// sorted-key JSON with every number kept as written, so the digest
// does not depend on Result's field order.
func runDigests(t *testing.T, r pinnedRun, journaled bool) [3]string {
	t.Helper()
	var rec *journal.Recorder
	if journaled {
		rec = journal.New()
	}
	tr := obs.NewSimOnly()
	res, err := core.RunWith(r.p, r.sched, core.RunOptions{Checked: true, Faults: r.fp,
		Spec: &spec.Policy{Kind: spec.SingleFork, Quantile: 0.86}, Obs: core.Observer{Trace: tr, Journal: rec}})
	if err != nil {
		t.Fatalf("%s: %v", r.name, err)
	}
	var jb, tb bytes.Buffer
	if rec != nil {
		if err := rec.WriteJSONL(&jb); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.WriteChrome(&tb); err != nil {
		t.Fatal(err)
	}
	res.SchedulingTime = 0
	rb := sortedJSON(t, res)
	digest := func(data []byte) string {
		sum := sha256.Sum256(data)
		return hex.EncodeToString(sum[:])
	}
	out := [3]string{"-", digest(tb.Bytes()), digest(rb)}
	if rec != nil {
		out[0] = digest(jb.Bytes())
	}
	return out
}

// sortedJSON marshals v with its object keys in sorted order. Numbers
// round-trip through json.Number, so they keep their exact text.
func sortedJSON(t *testing.T, v any) []byte {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var generic any
	if err := dec.Decode(&generic); err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(generic)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestFaultSpecBytesPinned pins the journal, trace and Result bytes of
// fault-injected, speculated runs to a committed digest table, so a
// refactor of the recovery and speculation paths must reproduce them
// exactly. The journal-free repeats pin the plain commit path too.
// Regenerate with: go test ./internal/core -run TestFaultSpecBytesPinned -update
func TestFaultSpecBytesPinned(t *testing.T) {
	var got strings.Builder
	runs := pinnedRuns(t)
	for i, r := range append(runs, noJournalRuns(t)...) {
		d := runDigests(t, r, i < len(runs))
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
