package main

import (
	"bytes"
	"testing"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/obs/journal"
)

// reducedTasks sizes each workload's test batch. sat-disk needs about
// 600 tasks before a quarter of the unique bytes, spread over the
// nodes, holds its largest task on every node.
var reducedTasks = map[string]int{"image-exec": 100, "sat-disk": 600, "image-faults": 250}

// reducedInput builds batch 0 of seed 7 of w at its reduced size.
func reducedInput(t *testing.T, w workloadDef) *input {
	t.Helper()
	b, err := w.generate(batchSeed(7, 0), reducedTasks[w.name])
	if err != nil {
		t.Fatal(err)
	}
	in, err := w.input(b, batchSeed(7, 0), batchSeed(7, 0))
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// compareRuns runs core.RunFromWith and layerRun on fresh states with
// the same pending list and the given tasks already done, and fails
// unless both produce the same Result and the same journal bytes and
// the recorded schedules validate.
func compareRuns(t *testing.T, in *input, pending []batch.TaskID, done []batch.TaskID) *core.Result {
	t.Helper()
	states := make([]*core.State, 2)
	for i := range states {
		st, err := core.NewState(in.p)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range done {
			st.Done[d] = true
		}
		states[i] = st
	}
	j1, j2 := journal.New(), journal.New()
	opts := in.opts
	opts.Obs.Journal = j1
	want, err := core.RunFromWith(states[0], in.newScheduler(), pending, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, violations, err := layerRun(states[1], in.newScheduler(), pending, in.opts, j2, newSpanLog(), "run")
	if err != nil {
		t.Fatal(err)
	}
	if violations != 0 {
		t.Errorf("%d schedule violations", violations)
	}
	if !sameResult(got, want) {
		t.Errorf("layerRun result differs from core.RunFromWith:\n got %+v\nwant %+v", *got, *want)
	}
	var b1, b2 bytes.Buffer
	if err := j1.WriteJSONL(&b1); err != nil {
		t.Fatal(err)
	}
	if err := j2.WriteJSONL(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Errorf("journals differ: %d events from core.RunFromWith, %d from layerRun", j1.Len(), j2.Len())
	}
	return want
}

// TestLayerRunMatchesRunWith pins the traced run's public-call loop to
// core.RunWith on every workload, so the per-layer spans describe the
// program the end-to-end metrics time.
func TestLayerRunMatchesRunWith(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			in := reducedInput(t, w)
			res := compareRuns(t, in, in.p.Batch.AllTasks(), nil)
			switch w.name {
			case "sat-disk":
				if res.SubBatches < 2 || res.Evictions == 0 {
					t.Errorf("limited disk not exercised: %d sub-batches, %d evictions", res.SubBatches, res.Evictions)
				}
			case "image-faults":
				if res.Crashes == 0 || res.RequeuedTasks == 0 || res.SpecLaunches == 0 {
					t.Errorf("recovery not exercised: %d crashes, %d requeued, %d speculative launches",
						res.Crashes, res.RequeuedTasks, res.SpecLaunches)
				}
			}
		})
	}
}

// TestLayerRunDedupesPending feeds a pending list with duplicates and
// already-done tasks.
func TestLayerRunDedupesPending(t *testing.T) {
	w, err := lookupWorkload("image-exec")
	if err != nil {
		t.Fatal(err)
	}
	in := reducedInput(t, w)
	all := in.p.Batch.AllTasks()
	pending := append(append([]batch.TaskID{}, all...), all[:10]...)
	res := compareRuns(t, in, pending, all[:5])
	if res.TaskCount != len(all)-5 {
		t.Errorf("TaskCount = %d, want %d", res.TaskCount, len(all)-5)
	}
}

// TestLayerRunDegrades exhausts the re-queue budget so tasks are
// abandoned.
func TestLayerRunDegrades(t *testing.T) {
	w, err := lookupWorkload("image-faults")
	if err != nil {
		t.Fatal(err)
	}
	w.faults = "harsh,mttf=10,linkp=0.5,budget=1"
	in := reducedInput(t, w)
	res := compareRuns(t, in, in.p.Batch.AllTasks(), nil)
	if res.DegradedTasks == 0 || res.Status != core.StatusDegraded {
		t.Errorf("no task abandoned: status %s, %d degraded", res.Status, res.DegradedTasks)
	}
}
