package minmin

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/obs/journal"
	"repro/internal/platform"
	"repro/internal/workload"
)

// naive is the reference MinMin planner as a core.Scheduler: the
// equivalence tests and the naive bench arm run it against
// Scheduler's incremental planner. It shares mmState, so both price
// every candidate with the same cost method.
type naive struct{ *Scheduler }

// PlanSubBatch implements core.Scheduler with planNaive.
func (s naive) PlanSubBatch(st *core.State, pending []batch.TaskID) (*core.SubPlan, error) {
	return s.planNaive(st, pending)
}

// planNaive is the reference implementation: a full T×C matrix of
// completion estimates, refreshed after every placement (the changed
// node's column for everyone, full rows for tasks sharing a file that
// just gained its first cluster copy), with an O(T·C) argmin per round.
func (s naive) planNaive(st *core.State, pending []batch.TaskID) (*core.SubPlan, error) {
	m := newMMState(st)
	b, C := st.P.Batch, st.P.Platform.NumCompute()

	plan := &core.SubPlan{Node: make(map[batch.TaskID]int)}
	unsched := append([]batch.TaskID(nil), pending...)

	// mct[idx][i] caches the completion estimate of unsched[idx] on
	// node i; only the column of the node that changed is refreshed
	// after each assignment.
	mct := make([][]float64, len(unsched))
	fit := make([][]bool, len(unsched))
	for idx, k := range unsched {
		mct[idx] = make([]float64, C)
		fit[idx] = make([]bool, C)
		for i := 0; i < C; i++ {
			e, extra := m.ect(k, i)
			mct[idx][i] = e
			fit[idx][i] = extra <= m.Free(i)
		}
	}
	done := make([]bool, len(unsched))
	remaining := len(unsched)

	for remaining > 0 {
		bestIdx, bestNode := -1, -1
		bestT := math.Inf(1)
		for idx := range unsched {
			if done[idx] {
				continue
			}
			for i := 0; i < C; i++ {
				if fit[idx][i] && mct[idx][i] < bestT {
					bestT = mct[idx][i]
					bestIdx, bestNode = idx, i
				}
			}
		}
		if bestIdx < 0 {
			break // nothing fits: close the sub-batch
		}
		k := unsched[bestIdx]
		done[bestIdx] = true
		remaining--
		var cands []journal.Candidate
		if st.J.Enabled() {
			cands = make([]journal.Candidate, C)
			for i := 0; i < C; i++ {
				cands[i] = journal.Candidate{Node: i, Score: mct[bestIdx][i], Fits: fit[bestIdx][i]}
			}
		}
		staged, first := m.place(st, plan, k, bestNode, bestT, cands)
		firstCopy := false
		for _, fc := range first {
			firstCopy = firstCopy || fc
		}
		// Refresh the changed node's column for everyone; tasks that
		// share a file which just gained its first cluster copy see a
		// cheaper replica path on every node, so refresh those rows
		// fully.
		for idx, kk := range unsched {
			if done[idx] {
				continue
			}
			full := false
			if firstCopy {
				for _, f := range b.Tasks[kk].Files {
					for si, sf := range staged {
						if first[si] && sf == f {
							full = true
						}
					}
					if full {
						break
					}
				}
			}
			lo, hi := bestNode, bestNode
			if full {
				lo, hi = 0, C-1
			}
			for i := lo; i <= hi; i++ {
				ee, ex := m.ect(kk, i)
				mct[idx][i] = ee
				fit[idx][i] = ex <= m.Free(i)
			}
		}
	}
	if len(plan.Tasks) == 0 {
		return nil, fmt.Errorf("minmin: no pending task fits any node (pending %d)", len(pending))
	}
	return plan, nil
}

// BenchmarkScalePlan is the reference arm of the root package's
// plan-only scaling sweep (BenchmarkScalePlan in bench_scale_test.go):
// the same IMAGE tiers up to 10k tasks, one PlanSubBatch over the whole
// batch on unlimited disk. `make bench-scale` runs this package with
// the root one, so BENCH_scale.json carries both arms side by side.
func BenchmarkScalePlan(b *testing.B) {
	tiers := []struct{ tasks, patients, nodes int }{{100, 1, 4}, {1000, 8, 16}, {10_000, 30, 64}}
	for _, tier := range tiers {
		b.Run(fmt.Sprintf("MinMin-naive/tasks=%d", tier.tasks), func(b *testing.B) {
			bt, err := workload.Image(workload.ImageConfig{
				NumTasks: tier.tasks, Overlap: workload.HighOverlap,
				NumStorage: 4, Seed: 17, MaxPatients: tier.patients,
			})
			if err != nil {
				b.Fatal(err)
			}
			p := &core.Problem{Batch: bt, Platform: platform.XIO(tier.nodes, 4, 0)}
			if err := p.Validate(); err != nil {
				b.Fatal(err)
			}
			pending := bt.AllTasks()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, err := core.NewState(p)
				if err != nil {
					b.Fatal(err)
				}
				plan, err := naive{New()}.PlanSubBatch(st, pending)
				if err != nil {
					b.Fatal(err)
				}
				if len(plan.Tasks) != len(pending) {
					b.Fatalf("planned %d of %d tasks", len(plan.Tasks), len(pending))
				}
			}
		})
	}
}
