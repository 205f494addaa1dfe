// Package jdp implements the paper's second baseline: a batch-mode
// variant of Ranganathan and Foster's decoupled scheme, combining the
// Job Data Present scheduling policy with the Data Least Loaded
// replication heuristic (§3).
//
// Scheduling (Job Data Present, batch-adapted): tasks are taken in
// order of least expected earliest completion time (the paper's
// adaptation — a plain FIFO is meaningless when the whole batch
// arrives at once) and each is assigned to the node expected to stage
// its data cheapest — the node holding the largest fraction of its
// input bytes; ties go to the least-loaded node.
//
// Replication (Data Least Loaded, decoupled): the daemon tracks file
// popularity (pending accesses); when a file's popularity exceeds a
// threshold, a replica is pushed to the least-loaded compute node.
// These replicas are expressed as PreStage operations, executed by the
// runtime stage before task-driven staging.
//
// Eviction is LRU, as the paper specifies for this baseline.
//
// Staging costs come from core.Estimate, the §3 cost model shared with
// MinMin. Its first-holder index answers "is the file held anywhere"
// without the O(C) copy scan of the reference planner kept in the
// package's tests, which makes that planner O(T·C²·F). The index is
// exact: holds are never cleared within a plan, so the minimum holder
// index can only decrease, matching the ascending scan's answer. Both
// planners perform the identical float operations in the identical
// order; TestJDPIndexedEquivalence pins their journals byte-for-byte.
package jdp

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/eviction"
	"repro/internal/obs/journal"
)

// Scheduler is the JobDataPresent + DataLeastLoaded baseline.
type Scheduler struct {
	// PopularityThreshold is the pending-access count beyond which the
	// replication daemon copies a file (default 3).
	PopularityThreshold int
	// MaxReplicasPerRound caps daemon replications per sub-batch so
	// pre-staging cannot flood the cluster (default 8).
	MaxReplicasPerRound int
}

// New returns a JDP scheduler with the default daemon settings.
func New() *Scheduler { return &Scheduler{PopularityThreshold: 3, MaxReplicasPerRound: 8} }

// Name implements core.Scheduler.
func (s *Scheduler) Name() string { return "JobDataPresent" }

// Evict implements core.Scheduler with LRU, per the paper.
func (s *Scheduler) Evict(st *core.State, pending []batch.TaskID) {
	eviction.LRU(st, pending)
}

// PlanSubBatch implements core.Scheduler.
func (s *Scheduler) PlanSubBatch(st *core.State, pending []batch.TaskID) (*core.SubPlan, error) {
	p := st.P
	b := p.Batch
	C := p.Platform.NumCompute()
	est := core.NewEstimate(st)
	load := make([]float64, C)

	// Order tasks once by their static least expected completion time
	// (the paper's batch adaptation of the FIFO queue); the key lives
	// in a slice (task IDs index the batch) rather than a map so the
	// sort comparator stays allocation- and hash-free.
	order := append([]batch.TaskID(nil), pending...)
	key := make([]float64, len(b.Tasks))
	for _, k := range order {
		best := math.Inf(1)
		for i := 0; i < C; i++ {
			if _, v, _ := est.Cost(k, i, 0); v < best {
				best = v
			}
		}
		key[k] = best
	}
	sort.Slice(order, func(a, z int) bool {
		if key[order[a]] != key[order[z]] {
			return key[order[a]] < key[order[z]]
		}
		return order[a] < order[z]
	})

	plan := &core.SubPlan{Node: make(map[batch.TaskID]int)}

	// Data Least Loaded daemon: replicate popular files before
	// assignment. Load is still zero here, so "least loaded" means the
	// emptiest disk at this point; popularity counts pending accesses.
	replicas := 0
	if !p.DisableReplication && s.MaxReplicasPerRound > 0 {
		type pop struct {
			f batch.FileID
			n int
		}
		var pops []pop
		for f := 0; f < b.NumFiles(); f++ {
			fid := batch.FileID(f)
			if n := st.AccessFreq(fid); n > s.PopularityThreshold {
				pops = append(pops, pop{fid, n})
			}
		}
		sort.Slice(pops, func(a, z int) bool {
			if pops[a].n != pops[z].n {
				return pops[a].n > pops[z].n
			}
			return pops[a].f < pops[z].f
		})
		for _, pe := range pops {
			if replicas >= s.MaxReplicasPerRound {
				break
			}
			// Least-loaded node not yet holding the file, with space.
			dest := -1
			for i := 0; i < C; i++ {
				if est.Holds(i, pe.f) || est.Free(i) < b.FileSize(pe.f) {
					continue
				}
				if dest < 0 || est.Free(i) > est.Free(dest) {
					dest = i
				}
			}
			if dest < 0 {
				continue
			}
			op := core.Staging{File: pe.f, Dest: dest, Kind: core.Remote}
			if src := est.FirstHolder(pe.f); src >= 0 {
				op.Kind = core.Replica
				op.Src = src
			}
			plan.PreStage = append(plan.PreStage, op)
			if st.J.Enabled() {
				src := -1
				if op.Kind == core.Replica {
					src = op.Src
				}
				st.J.Emit(journal.Event{T: st.Clock, Kind: journal.KindReplicate, Round: st.JRound,
					Replicate: &journal.Replicate{File: int(pe.f), Dest: dest, Src: src,
						Policy: "data-least-loaded", Popularity: pe.n, Threshold: s.PopularityThreshold,
						Reason: "pending accesses exceed threshold; replica pushed to emptiest eligible disk"}})
			}
			est.Hold(dest, pe.f)
			replicas++
		}
	}

	for _, k := range order {
		// Job Data Present: choose the node with the cheapest expected
		// staging; ties go to the least loaded.
		best, bestCost, bestLoad, bestDone := -1, math.Inf(1), math.Inf(1), 0.0
		var cands []journal.Candidate
		if st.J.Enabled() {
			cands = make([]journal.Candidate, 0, C)
		}
		for i := 0; i < C; i++ {
			c, done, extra := est.Cost(k, i, 0)
			fits := extra <= est.Free(i)
			if cands != nil {
				cands = append(cands, journal.Candidate{Node: i, Score: c, Fits: fits})
			}
			if !fits {
				continue
			}
			if c < bestCost-1e-12 || (c < bestCost+1e-12 && load[i] < bestLoad) {
				best, bestCost, bestLoad, bestDone = i, c, load[i], done
			}
		}
		if best < 0 {
			continue // does not fit this round; later sub-batch
		}
		plan.Tasks = append(plan.Tasks, k)
		plan.Node[k] = best
		if st.J.Enabled() {
			st.J.Emit(journal.Event{T: st.Clock, Kind: journal.KindPlace, Round: st.JRound,
				Place: &journal.Place{Task: int(k), Node: best, Policy: "jdp-data-present",
					Score: bestCost, Candidates: cands,
					Reason: "cheapest expected staging cost (most input bytes present); ties to least-loaded node"}})
		}
		// With ready = 0, done is the stage + exec sum the static key
		// used; Hold charges each newly held input to the node's disk.
		load[best] += bestDone
		for _, f := range b.Tasks[k].Files {
			est.Hold(best, f)
		}
	}
	if len(plan.Tasks) == 0 {
		return nil, fmt.Errorf("jdp: no pending task fits any node (pending %d)", len(pending))
	}
	return plan, nil
}
