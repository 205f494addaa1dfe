package core_test

import (
	"math"
	"testing"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/obs/journal"
	"repro/internal/platform"
	"repro/internal/sched/bipart"
	"repro/internal/sched/jdp"
	"repro/internal/sched/minmin"
	"repro/internal/workload"
)

func schedulers() []core.Scheduler {
	return []core.Scheduler{minmin.New(), jdp.New(), bipart.New(1)}
}

func smallProblem(t *testing.T, diskSpace int64) *core.Problem {
	t.Helper()
	b, err := workload.Sat(workload.SatConfig{NumTasks: 24, Overlap: workload.HighOverlap, NumStorage: 2, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	p := &core.Problem{Batch: b, Platform: platform.XIO(3, 2, diskSpace)}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRunUnlimitedDisk(t *testing.T) {
	p := smallProblem(t, 0)
	for _, s := range schedulers() {
		res, err := core.RunWith(p, s, core.RunOptions{Checked: true})
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if res.Makespan <= 0 {
			t.Fatalf("%s: non-positive makespan %v", s.Name(), res.Makespan)
		}
		if res.SubBatches != 1 {
			t.Errorf("%s: expected a single sub-batch with unlimited disk, got %d", s.Name(), res.SubBatches)
		}
		if res.TaskCount != 24 {
			t.Errorf("%s: task count %d", s.Name(), res.TaskCount)
		}
		if res.RemoteTransfers == 0 {
			t.Errorf("%s: no remote transfers recorded", s.Name())
		}
	}
}

func TestRunLimitedDiskForcesSubBatches(t *testing.T) {
	// Per-node disk that cannot hold the whole working set at once.
	b, err := workload.Sat(workload.SatConfig{NumTasks: 30, Overlap: workload.LowOverlap, NumStorage: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	total := b.TotalUniqueBytes(nil)
	per := total / 6 // 3 nodes → aggregate half the working set
	p := &core.Problem{Batch: b, Platform: platform.XIO(3, 2, per)}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, s := range schedulers() {
		res, err := core.RunWith(p, s, core.RunOptions{Checked: true})
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if res.SubBatches < 2 {
			t.Errorf("%s: expected multiple sub-batches, got %d", s.Name(), res.SubBatches)
		}
		if res.Makespan <= 0 {
			t.Errorf("%s: non-positive makespan", s.Name())
		}
	}
}

func TestRunDisableReplication(t *testing.T) {
	p := smallProblem(t, 0)
	p.DisableReplication = true
	for _, s := range schedulers() {
		res, err := core.RunWith(p, s, core.RunOptions{Checked: true})
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if res.ReplicaTransfers != 0 {
			t.Errorf("%s: %d replica transfers despite DisableReplication", s.Name(), res.ReplicaTransfers)
		}
	}
}

func TestReplicationReducesMakespanOnSlowStorage(t *testing.T) {
	// On an OSUMED-like platform (slow shared storage link) replication
	// must help a high-overlap workload — the paper's Figure 5(a).
	// More compute nodes than hot-spot groups, as in the paper's 8-node
	// experiment, so tasks sharing files necessarily span nodes.
	b, err := workload.Image(workload.ImageConfig{NumTasks: 48, Overlap: workload.HighOverlap, NumStorage: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	pf := platform.OSUMED(8, 2, 0)
	with := &core.Problem{Batch: b, Platform: pf}
	without := &core.Problem{Batch: b, Platform: pf, DisableReplication: true}
	s := bipart.New(5)
	rw, err := core.RunWith(with, s, core.RunOptions{Checked: true})
	if err != nil {
		t.Fatal(err)
	}
	rwo, err := core.RunWith(without, s, core.RunOptions{Checked: true})
	if err != nil {
		t.Fatal(err)
	}
	if rw.Makespan >= rwo.Makespan {
		t.Errorf("replication did not help: with=%v without=%v", rw.Makespan, rwo.Makespan)
	}
}

func TestStateAccounting(t *testing.T) {
	b := batch.New()
	f1 := b.AddFile("f1", 100, 0)
	f2 := b.AddFile("f2", 200, 0)
	b.AddTask("t", 1, []batch.FileID{f1, f2})
	p := &core.Problem{Batch: b, Platform: platform.Uniform(2, 1, 1000, 10, 100)}
	st, err := core.NewState(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AddFile(0, f1, 1); err != nil {
		t.Fatal(err)
	}
	if !st.Holds(0, f1) || st.Holds(1, f1) {
		t.Fatal("holds wrong")
	}
	if st.Used(0) != 100 || st.Free(0) != 900 {
		t.Fatalf("used=%d free=%d", st.Used(0), st.Free(0))
	}
	if st.NumCopies(f1) != 1 || st.NumCopies(f2) != 0 {
		t.Fatal("copy counts wrong")
	}
	st.Evict(0, f1)
	if st.Holds(0, f1) || st.Used(0) != 0 || st.Evictions != 1 {
		t.Fatal("eviction accounting wrong")
	}
	if st.AccessFreq(f1) != 1 {
		t.Fatalf("access freq %d", st.AccessFreq(f1))
	}
	st.Done[0] = true
	if st.AccessFreq(f1) != 0 {
		t.Fatalf("access freq after done %d", st.AccessFreq(f1))
	}
}

func TestValidateRejectsTooSmallDisk(t *testing.T) {
	b := batch.New()
	f := b.AddFile("f", 10*platform.MB, 0)
	b.AddTask("t", 1, []batch.FileID{f})
	p := &core.Problem{Batch: b, Platform: platform.Uniform(1, 1, 5*platform.MB, 10*platform.MB, 100*platform.MB)}
	if err := p.Validate(); err == nil {
		t.Fatal("expected validation error: node disk smaller than a task's working set")
	}
}

// TestJournaledAlternativesDescribeStagedFile checks that every
// on-demand staging's journaled source alternatives belong to the file
// staged, not to another input probed in the same min-TCT round: the
// winner under the executor's rule (the first entry, replaced only by
// one more than 1e-12 faster) is the event's source, and the winner's
// sub-batch-relative TCT is the event's End less the sub-batch start,
// one offset for every staging of a round.
func TestJournaledAlternativesDescribeStagedFile(t *testing.T) {
	b, err := workload.Image(workload.ImageConfig{NumTasks: 800, Overlap: workload.HighOverlap, NumStorage: 4, Seed: 1001})
	if err != nil {
		t.Fatal(err)
	}
	for _, disk := range []int64{0, 300 * platform.MB} {
		for _, s := range []core.Scheduler{jdp.New(), minmin.New()} {
			p := &core.Problem{Batch: b, Platform: platform.XIO(16, 4, disk)}
			if err := p.Validate(); err != nil {
				t.Fatal(err)
			}
			rec := journal.New()
			if _, err := core.RunWith(p, s, core.RunOptions{Obs: core.Observer{Journal: rec}}); err != nil {
				t.Fatal(err)
			}
			base := map[int]float64{}
			checked := 0
			for _, ev := range rec.Events() {
				st := ev.Stage
				if st == nil || st.Cause != "task" || len(st.Alternatives) == 0 {
					continue
				}
				win := st.Alternatives[0]
				for _, a := range st.Alternatives[1:] {
					if a.TCT < win.TCT-1e-12 {
						win = a
					}
				}
				if win.Src != st.Src {
					t.Fatalf("%s disk=%d: file %d onto node %d staged from %d, but its alternatives pick %d: %+v",
						s.Name(), disk, st.File, st.Dest, st.Src, win.Src, st.Alternatives)
				}
				off := st.End - win.TCT
				if b0, ok := base[ev.Round]; !ok {
					base[ev.Round] = off
				} else if math.Abs(off-b0) > 1e-6 {
					t.Fatalf("%s disk=%d round %d: file %d onto node %d ends at %g, its winning TCT %g puts the round start at %g, not %g",
						s.Name(), disk, ev.Round, st.File, st.Dest, st.End, win.TCT, off, b0)
				}
				checked++
			}
			if checked == 0 {
				t.Fatalf("%s disk=%d: no on-demand staging journaled alternatives", s.Name(), disk)
			}
			t.Logf("%s disk=%d: %d stagings checked", s.Name(), disk, checked)
		}
	}
}
