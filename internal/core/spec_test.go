package core_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/obs/journal"
	"repro/internal/platform"
	"repro/internal/sched/minmin"
	"repro/internal/spec"
)

// specProblem is a two-node cluster with compute-heavy tasks (10 s
// against sub-second stagings), sized so that a crashy fault plan
// exercises every speculation race outcome: twin wins (including
// crash rescues), primary wins, and both attempts dying.
func specProblem(t *testing.T) *core.Problem {
	t.Helper()
	b := batch.New()
	var files []batch.FileID
	for i := 0; i < 4; i++ {
		files = append(files, b.AddFile(fmt.Sprintf("f%d", i), 64<<20, i%2))
	}
	for i := 0; i < 8; i++ {
		b.AddTask(fmt.Sprintf("t%d", i), 10, []batch.FileID{files[i%4]})
	}
	p := &core.Problem{Batch: b, Platform: platform.XIO(2, 2, 0)}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

// specPlan is the crashy scenario driving the race-outcome grid: node
// MTTF of the order of a few task lengths, plus harsh-grade
// stragglers.
func specPlan(t *testing.T, seed int64) *faults.FaultPlan {
	t.Helper()
	fp, err := faults.Parse("mttf=30,stragp=0.15,stragf=4,budget=8")
	if err != nil {
		t.Fatal(err)
	}
	fp.Seed = seed
	return fp
}

func specRun(t *testing.T, p *core.Problem, fp *faults.FaultPlan, pol *spec.Policy) (*core.Result, []journal.Event, []byte) {
	t.Helper()
	return specRunTraced(t, p, fp, pol, nil)
}

// specRunTraced is specRun with tr (nil for none) attached as the
// run's tracer.
func specRunTraced(t *testing.T, p *core.Problem, fp *faults.FaultPlan, pol *spec.Policy, tr obs.Tracer) (*core.Result, []journal.Event, []byte) {
	t.Helper()
	rec := journal.New()
	res, err := core.RunWith(p, minmin.New(), core.RunOptions{Checked: true, Faults: fp,
		Spec: pol, Obs: core.Observer{Journal: rec, Trace: tr}})
	if err != nil {
		t.Fatalf("spec run failed (plan %s): %v", fp, err)
	}
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return res, rec.Events(), buf.Bytes()
}

// TestSpecNeverMatchesNil pins the control contract: a spec.Never
// policy (and an active policy without an injector) must reproduce the
// nil-policy run bit for bit — results and journal bytes.
func TestSpecNeverMatchesNil(t *testing.T) {
	p := specProblem(t)
	fp := specPlan(t, 11)
	resNil, _, jNil := specRun(t, p, fp, nil)
	resNever, _, jNever := specRun(t, p, fp, &spec.Policy{Kind: spec.Never})
	sameFaultResult(t, resNil, resNever)
	if !bytes.Equal(jNil, jNever) {
		t.Fatal("Never-policy journal differs from nil-policy journal")
	}
	if resNil.SpecLaunches != 0 || resNil.SpecWastedSeconds != 0 {
		t.Fatalf("inactive policy recorded speculation: %+v", resNil)
	}
}

// TestSpecRaceOutcomes sweeps fault seeds over the crashy scenario and
// checks every speculation invariant the runtime promises:
//
//   - accounting: every launch is resolved by exactly one cancellation,
//     wins never exceed launches, rescues never exceed wins, and the
//     journal's event counts agree with the run's ExecStats;
//   - deterministic cancellation: a task killed while its twin is in
//     flight (race outcome "none") is re-queued exactly once in that
//     round — never double-requeued — and shares the ordinary per-task
//     retry budget;
//   - rescue semantics: a crash-killed primary whose twin finished
//     (spec_win with primary_end < 0) produces no requeue at all;
//   - visible burns: when both attempts die after the twin started
//     executing, the trace shows the twin's burnt exec window as a
//     "cancelled twin of task N" span, as the primary-wins outcome does;
//   - coverage: the grid must actually visit all three race outcomes,
//     and a both-die outcome with a started twin, so none of the
//     assertions above hold vacuously.
func TestSpecRaceOutcomes(t *testing.T) {
	p := specProblem(t)
	pol := &spec.Policy{Kind: spec.SingleFork, Quantile: 0.86}
	outcomes := map[string]int{}
	totalWasted := 0.0
	bothDieExecBurns := 0
	for seed := int64(1); seed <= 120; seed++ {
		fp := specPlan(t, seed)
		tr := obs.NewSimOnly()
		res, events, _ := specRunTraced(t, p, fp, pol, tr)
		spans := simSpans(t, tr)

		launches, wins, cancels := 0, 0, 0
		rescued := map[int]bool{}    // task → twin finished after primary crash
		caseC := map[[2]int]bool{}   // (round, task) → both attempts died
		requeues := map[[2]int]int{} // (round, task) → requeue events
		requeuesPerTask := map[int]int{}
		for _, ev := range events {
			switch ev.Kind {
			case journal.KindSpecLaunch:
				launches++
			case journal.KindSpecWin:
				// stats.SpecWins counts twin victories; the journal
				// records a spec_win for whichever side won.
				if ev.Spec.Winner == "twin" {
					wins++
				}
				if ev.Spec.Winner == "twin" && ev.Spec.PrimaryEnd < 0 {
					rescued[ev.Spec.Task] = true
				}
			case journal.KindSpecCancel:
				cancels++
				outcomes[ev.Spec.Winner]++
				if ev.Spec.Winner == "none" {
					caseC[[2]int{ev.Round, ev.Spec.Task}] = true
					if twinExecBurnt(t, spans, ev) {
						bothDieExecBurns++
					}
				}
			case journal.KindFault:
				if ev.Fault.Class == journal.FaultRequeue && ev.Fault.Task >= 0 {
					requeues[[2]int{ev.Round, ev.Fault.Task}]++
					requeuesPerTask[ev.Fault.Task]++
				}
			}
		}
		if launches != res.SpecLaunches || wins != res.SpecWins || cancels != res.SpecCancels {
			t.Fatalf("seed %d: journal (%d/%d/%d) disagrees with stats (%d/%d/%d)",
				seed, launches, wins, cancels, res.SpecLaunches, res.SpecWins, res.SpecCancels)
		}
		if cancels != launches {
			t.Fatalf("seed %d: %d launches but %d cancellations", seed, launches, cancels)
		}
		if wins > launches || res.SpecSaved > wins {
			t.Fatalf("seed %d: inconsistent spec counters %+v", seed, res)
		}
		// A single cancellation can legitimately burn nothing (the
		// loser never started any op), so waste is asserted over the
		// whole grid below.
		totalWasted += res.SpecWastedSeconds
		for key := range caseC {
			if n := requeues[key]; n != 1 {
				t.Fatalf("seed %d: task %d round %d died with twin in flight and was requeued %d times, want exactly 1",
					seed, key[1], key[0], n)
			}
		}
		// The interruption that exhausts the budget still emits a
		// requeue fault before the task is abandoned, so a task sees at
		// most budget+1 requeue events — speculative twins never add
		// extra ones.
		for task, n := range requeuesPerTask {
			if n > fp.TaskRetryBudget+1 {
				t.Fatalf("seed %d: task %d requeued %d times, budget %d", seed, task, n, fp.TaskRetryBudget)
			}
		}
		_ = rescued // per-round rescue/requeue exclusion is pinned by TestSpecRescueAvoidsRequeue
	}
	for _, want := range []string{"twin", "primary", "none"} {
		if outcomes[want] == 0 {
			t.Fatalf("race outcome %q never occurred over the seed grid (outcomes: %v)", want, outcomes)
		}
	}
	if totalWasted <= 0 {
		t.Fatal("speculation cancelled losers across the grid yet burnt no port time")
	}
	if bothDieExecBurns == 0 {
		t.Fatal("no both-die outcome with a started twin execution occurred over the seed grid")
	}
}

// simSpan is one complete ("X") event of a Chrome trace export.
type simSpan struct {
	Name  string  `json:"name"`
	Phase string  `json:"ph"`
	TS    float64 `json:"ts"`
	Dur   float64 `json:"dur"`
	TID   int     `json:"tid"`
}

func simSpans(t *testing.T, tr *obs.Trace) []simSpan {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []simSpan `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var out []simSpan
	for _, ev := range doc.TraceEvents {
		if ev.Phase == "X" {
			out = append(out, ev)
		}
	}
	return out
}

// twinExecBurnt checks the trace for a both-die cancellation ev and
// reports whether the twin had started executing. The twin's
// transfers all land on its own port before its execution starts, so
// at the cancel time either one transfer is in flight (burnt and shown
// as a "cancelled spec stage file" span) or the execution has started
// and all of ev's wasted time is its exec window, which must then show
// as a "cancelled twin of task N" span ending at the cancel time.
func twinExecBurnt(t *testing.T, spans []simSpan, ev journal.Event) bool {
	t.Helper()
	if ev.Spec.WastedS <= 0 {
		return false
	}
	endsAtCancel := func(s simSpan) bool {
		return s.TID == obs.ComputeTrack(ev.Spec.Twin) && math.Abs(s.TS+s.Dur-ev.T*1e6) < 1e-3
	}
	for _, s := range spans {
		if endsAtCancel(s) && strings.HasPrefix(s.Name, "cancelled spec stage file ") {
			return false
		}
	}
	want := fmt.Sprintf("cancelled twin of task %d", ev.Spec.Task)
	for _, s := range spans {
		if endsAtCancel(s) && s.Name == want && math.Abs(s.Dur-ev.Spec.WastedS*1e6) < 1e-3 {
			return true
		}
	}
	t.Fatalf("round %d: twin of task %d on node %d burnt %gs of execution when both attempts died, but the trace has no %q span",
		ev.Round, ev.Spec.Task, ev.Spec.Twin, ev.Spec.WastedS, want)
	return false
}

// TestSpecDeterministicReplay: a speculative run is a pure function of
// its seeds — identical results and identical journal bytes on replay.
func TestSpecDeterministicReplay(t *testing.T) {
	p := specProblem(t)
	pol := &spec.Policy{Kind: spec.SingleFork, Quantile: 0.86}
	for _, seed := range []int64{7, 10, 41} { // seeds known to hit the both-die outcome
		fp := specPlan(t, seed)
		resA, _, jA := specRun(t, p, fp, pol)
		resB, _, jB := specRun(t, p, fp, pol)
		sameFaultResult(t, resA, resB)
		if !bytes.Equal(jA, jB) {
			t.Fatalf("seed %d: journal differs across identical spec runs", seed)
		}
	}
}

// TestSpecRescueAvoidsRequeue pins the rescue payoff on a seed where a
// twin outlives a crash-killed primary: the task completes in-round,
// consumes no retry budget, and the run ends Complete.
func TestSpecRescueAvoidsRequeue(t *testing.T) {
	p := specProblem(t)
	pol := &spec.Policy{Kind: spec.SingleFork, Quantile: 0.86}
	found := false
	for seed := int64(1); seed <= 40 && !found; seed++ {
		fp := specPlan(t, seed)
		res, events, _ := specRun(t, p, fp, pol)
		for _, ev := range events {
			if ev.Kind != journal.KindSpecWin || ev.Spec.Winner != "twin" || ev.Spec.PrimaryEnd >= 0 {
				continue
			}
			found = true
			for _, ev2 := range events {
				if ev2.Kind == journal.KindFault && ev2.Fault.Class == journal.FaultRequeue &&
					ev2.Fault.Task == ev.Spec.Task && ev2.Round == ev.Round {
					t.Fatalf("seed %d: rescued task %d was still requeued in round %d", seed, ev.Spec.Task, ev.Round)
				}
			}
			if res.SpecSaved == 0 {
				t.Fatalf("seed %d: rescue observed in journal but SpecSaved is 0", seed)
			}
		}
	}
	if !found {
		t.Fatal("no crash rescue occurred in the seed range; test is vacuous")
	}
}
