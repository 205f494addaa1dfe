package core

import (
	"math"

	"repro/internal/batch"
)

// Estimate is the §3 expected-completion cost model the MinMin and
// JobDataPresent baselines plan with, over the plan's working copy of
// the cluster file state. A task's input missing from a node is staged
// from a replica when any compute node holds it (and replication is
// allowed), from storage otherwise; the task then reads all its inputs
// locally and computes. Links are priced pessimistically: a replica at
// the slowest compute-to-compute bandwidth, a storage fetch at the
// node's slowest storage link.
//
// The working copy only grows: Hold never clears a copy, so the first
// holder of a file can only move to a lower node index.
type Estimate struct {
	p         *Problem
	holds     [][]bool // [node][file], the plan's working copy
	free      []int64
	first     []int32 // least node index holding each file, or -1
	replicate bool
	bwRemote  []float64 // each node's slowest storage link
	bwReplica float64   // the slowest compute-to-compute link
}

// NewEstimate snapshots st's holds and free disk into a fresh working
// copy for one plan.
func NewEstimate(st *State) *Estimate {
	p := st.P
	C := p.Platform.NumCompute()
	F := p.Batch.NumFiles()
	e := &Estimate{
		p:         p,
		holds:     st.PresentMatrix(),
		free:      make([]int64, C),
		first:     make([]int32, F),
		replicate: !p.DisableReplication,
		bwRemote:  make([]float64, C),
		bwReplica: p.Platform.MinReplicaBW(),
	}
	for f := range e.first {
		e.first[f] = -1
	}
	for i := C - 1; i >= 0; i-- {
		for f, h := range e.holds[i] {
			if h {
				e.first[f] = int32(i)
			}
		}
	}
	for i := 0; i < C; i++ {
		e.free[i] = st.Free(i)
		bw := math.Inf(1)
		for sn := range p.Platform.Storage {
			bw = math.Min(bw, p.Platform.RemoteBW(sn, i))
		}
		e.bwRemote[i] = bw
	}
	return e
}

// Holds reports whether node i holds file f in the working copy.
func (e *Estimate) Holds(i int, f batch.FileID) bool { return e.holds[i][f] }

// FirstHolder returns the least node index holding file f, or -1 when
// no compute node holds it.
func (e *Estimate) FirstHolder(f batch.FileID) int { return int(e.first[f]) }

// Free returns node i's free disk bytes in the working copy.
func (e *Estimate) Free(i int) int64 { return e.free[i] }

// Hold records that node i will hold file f, charging its size to the
// node's free disk if the copy is new.
func (e *Estimate) Hold(i int, f batch.FileID) {
	if e.holds[i][f] {
		return
	}
	e.holds[i][f] = true
	e.free[i] -= e.p.Batch.FileSize(f)
	if e.first[f] < 0 || int32(i) < e.first[f] {
		e.first[f] = int32(i)
	}
}

// Cost estimates task k on node i: stage is the time to stage its
// missing inputs, done the completion time when the node is free from
// ready on (ready + stage + local reads + compute), and extra the new
// bytes the node must hold. The sums run over k's files in task order,
// so every caller sees the same floats.
func (e *Estimate) Cost(k batch.TaskID, i int, ready float64) (stage, done float64, extra int64) {
	b := e.p.Batch
	t := &b.Tasks[k]
	held := e.holds[i]
	var bytes int64
	for _, f := range t.Files {
		size := b.FileSize(f)
		bytes += size
		if held[f] {
			continue
		}
		extra += size
		if e.first[f] >= 0 && e.replicate {
			stage += float64(size) / e.bwReplica
		} else {
			stage += float64(size) / e.bwRemote[i]
		}
	}
	exec := float64(bytes)/e.p.Platform.Compute[i].LocalReadBW + t.Compute
	return stage, ready + stage + exec, extra
}

// ReplicaGain bounds, per byte, how much any node's staging estimate
// can fall when a file gains its first cluster copy and switches from
// a storage fetch to a replica. It is 0 when replication is disabled
// or replicas are no faster than the slowest storage link.
func (e *Estimate) ReplicaGain() float64 {
	if !e.replicate {
		return 0
	}
	invRemoteMax := 0.0
	for _, bw := range e.bwRemote {
		if inv := 1 / bw; inv > invRemoteMax {
			invRemoteMax = inv
		}
	}
	return math.Max(invRemoteMax-1/e.bwReplica, 0)
}
