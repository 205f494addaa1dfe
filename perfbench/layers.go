package main

import (
	"fmt"
	"runtime/metrics"
	"time"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/obs/journal"
)

// now and since are the benchmark's only wall-clock reads. The
// benchmark measures the program from outside; no reading feeds back
// into what the program computes.
func now() time.Time { return time.Now() } //schedlint:allow tracepurity benchmark timer around public calls; never reaches the program

func since(t time.Time) time.Duration { return time.Since(t) } //schedlint:allow tracepurity benchmark timer around public calls; never reaches the program

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocBytes returns the process's cumulative heap allocation.
func heapAllocBytes() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// span is one timed call into a layer, kept in memory and written out
// when the benchmark ends.
type span struct {
	Name   string
	Pass   int
	Parent int // index of the enclosing span; -1 for a run's root
	Start  time.Duration
	End    time.Duration
	Alloc  uint64 // heap bytes allocated inside the span
}

func (s span) dur() time.Duration { return s.End - s.Start }

// spanLog records spans relative to its creation time. Pass numbers
// group the spans of one pass over a workload's batches.
type spanLog struct {
	zero  time.Time
	pass  int
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{zero: now()} }

func (l *spanLog) begin(name string, parent int) int {
	a := heapAllocBytes()
	l.spans = append(l.spans, span{Name: name, Pass: l.pass, Parent: parent, Alloc: a, Start: since(l.zero)})
	return len(l.spans) - 1
}

// end closes span i and returns its duration.
func (l *spanLog) end(i int) time.Duration {
	s := &l.spans[i]
	s.End = since(l.zero)
	s.Alloc = heapAllocBytes() - s.Alloc
	return s.dur()
}

// layerRun drives one batch through the pipeline's public calls:
// Scheduler.PlanSubBatch, core.ExecuteSpec with schedule recording on,
// gantt.Schedule.Validate and Scheduler.Evict, with j set on State.J.
// It follows core.RunFromWith step for step: the same pending-list
// dedupe, requeue budget and degrade rule, and the same run-level
// journal events. TestLayerRunMatchesRunWith pins the two together, so
// the per-layer spans describe the program the end-to-end metrics
// time. It returns the result and the number of schedule violations.
func layerRun(st *core.State, s core.Scheduler, pending []batch.TaskID, opt core.RunOptions, j *journal.Recorder, log *spanLog, root string) (*core.Result, int, error) {
	if err := opt.Faults.Validate(); err != nil {
		return nil, 0, err
	}
	inj := faults.NewInjector(opt.Faults, st.P.Platform.NumCompute())
	run := log.begin(root, -1)
	defer log.end(run)

	pendingSet := make(map[batch.TaskID]bool, len(pending))
	clean := make([]batch.TaskID, 0, len(pending))
	for _, t := range pending {
		if pendingSet[t] || (int(t) < len(st.Done) && st.Done[t]) {
			continue
		}
		pendingSet[t] = true
		clean = append(clean, t)
	}
	pending = clean
	res := &core.Result{Scheduler: s.Name(), Status: core.StatusComplete, TaskCount: len(pending)}
	st.J = j
	st.JRound = 0
	j.Emit(journal.Event{T: st.Clock, Kind: journal.KindRunStart,
		Run: &journal.Run{Sched: s.Name(), Tasks: len(pending)}})
	attempts := make(map[batch.TaskID]int)
	budget := 0
	if inj != nil {
		budget = inj.TaskRetryBudget()
	}
	var agg core.ExecStats
	violations := 0
	for len(pending) > 0 {
		st.JRound = res.SubBatches
		sp := log.begin("plan", run)
		plan, err := s.PlanSubBatch(st, pending)
		res.SchedulingTime += log.end(sp)
		if err != nil {
			return nil, violations, fmt.Errorf("%s failed to plan a sub-batch with %d tasks pending: %w", s.Name(), len(pending), err)
		}
		if plan == nil || len(plan.Tasks) == 0 {
			return nil, violations, fmt.Errorf("%s returned an empty sub-batch with %d tasks pending", s.Name(), len(pending))
		}
		for _, t := range plan.Tasks {
			if !pendingSet[t] {
				return nil, violations, fmt.Errorf("%s planned task %d which is not pending", s.Name(), t)
			}
		}
		j.Emit(journal.Event{T: st.Clock, Kind: journal.KindPlan, Round: res.SubBatches,
			Plan: &journal.Plan{Sched: s.Name(), Pending: len(pending), Planned: len(plan.Tasks),
				Pinned: plan.Pinned, PreStages: len(plan.PreStage)}})

		sp = log.begin("exec", run)
		stats, sched, requeued, err := core.ExecuteSpec(st, plan, true, obs.Nop, inj, res.SubBatches, opt.Spec)
		log.end(sp)
		if err != nil {
			return nil, violations, fmt.Errorf("executing %s sub-batch %d: %w", s.Name(), res.SubBatches, err)
		}
		sp = log.begin("validate", run)
		violations += len(sched.Validate())
		log.end(sp)
		res.SubBatches++
		agg.Add(stats)

		for _, t := range plan.Tasks {
			if st.Done[t] {
				delete(pendingSet, t)
			}
		}
		for _, t := range requeued {
			attempts[t]++
			if attempts[t] > budget {
				delete(pendingSet, t)
				res.DegradedTasks++
				res.Status = core.StatusDegraded
				j.Emit(journal.Event{T: st.Clock, Kind: journal.KindFault, Round: res.SubBatches - 1,
					Fault: &journal.Fault{Class: journal.FaultAbandon, Node: -1, Task: int(t), File: -1,
						Attempt: attempts[t], Detail: "re-queue budget exhausted; task abandoned as degraded"}})
			}
		}
		pending = pending[:0]
		for t := range pendingSet {
			pending = append(pending, t)
		}
		pending = batch.SortedCopy(pending)

		if len(pending) > 0 {
			st.JRound = res.SubBatches
			sp = log.begin("evict", run)
			s.Evict(st, pending)
			res.SchedulingTime += log.end(sp)
		}
	}
	res.Makespan = agg.Makespan
	res.RemoteTransfers = agg.RemoteTransfers
	res.RemoteBytes = agg.RemoteBytes
	res.ReplicaTransfers = agg.ReplicaTransfers
	res.ReplicaBytes = agg.ReplicaBytes
	res.StorageBusy = agg.StorageBusy
	res.ComputeBusy = agg.ComputeBusy
	res.TransferFailures = agg.TransferFailures
	res.TransferRetries = agg.TransferRetries
	res.ReplicaRecoveries = agg.ReplicaRecoveries
	res.Crashes = agg.Crashes
	res.Stragglers = agg.Stragglers
	res.RequeuedTasks = agg.RequeuedTasks
	res.WastedSeconds = agg.WastedSeconds
	res.SpecLaunches = agg.SpecLaunches
	res.SpecWins = agg.SpecWins
	res.SpecCancels = agg.SpecCancels
	res.SpecSaved = agg.SpecSaved
	res.SpecWastedSeconds = agg.SpecWastedSeconds
	res.Evictions = st.Evictions
	j.Emit(journal.Event{T: st.Clock, Kind: journal.KindRunEnd, Round: res.SubBatches,
		Run: &journal.Run{Sched: s.Name(), Tasks: res.TaskCount, Status: string(res.Status),
			Makespan: res.Makespan, SubBatches: res.SubBatches}})
	return res, violations, nil
}

// sameResult reports whether two runs of one instance agree on every
// deterministic Result field; only the wall-clock SchedulingTime may
// differ.
func sameResult(a, b *core.Result) bool {
	x, y := *a, *b
	x.SchedulingTime, y.SchedulingTime = 0, 0
	return x == y
}
