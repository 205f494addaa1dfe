package core

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strconv"
	"sync/atomic"

	"repro/internal/batch"
	"repro/internal/faults"
	"repro/internal/gantt"
	"repro/internal/obs"
	"repro/internal/obs/journal"
	"repro/internal/spec"
)

// ExecStats reports what the runtime stage did for one sub-batch.
type ExecStats struct {
	// Makespan is the sub-batch execution time: the latest finish time
	// over all compute nodes, measured from the sub-batch start.
	Makespan float64
	// RemoteTransfers / RemoteBytes count storage→compute stagings.
	RemoteTransfers int
	RemoteBytes     int64
	// ReplicaTransfers / ReplicaBytes count compute→compute copies.
	ReplicaTransfers int
	ReplicaBytes     int64
	// StorageBusy / ComputeBusy are total reserved seconds, summed over
	// nodes, for utilization reporting.
	StorageBusy float64
	ComputeBusy float64

	// Fault/recovery accounting, all zero on fault-free runs.
	TransferFailures  int     // transfer attempts that died partway
	TransferRetries   int     // retry attempts scheduled after a failure
	ReplicaRecoveries int     // successful retries served from a surviving replica
	Crashes           int     // node crashes observed this sub-batch
	Stragglers        int     // execution attempts slowed by a straggling node
	RequeuedTasks     int     // tasks interrupted and handed back for a later sub-batch
	WastedSeconds     float64 // port seconds burnt by failed or interrupted attempts

	// Speculative-execution accounting, all zero unless a speculation
	// policy forked twins this sub-batch.
	SpecLaunches      int     // speculative twin attempts forked
	SpecWins          int     // tasks completed by their twin (primary lost)
	SpecCancels       int     // losing attempts cancelled (one per launch)
	SpecSaved         int     // twin wins whose primary was crash-killed
	SpecWastedSeconds float64 // port seconds burnt by losing speculative attempts
}

// Add folds o into s. Every field is a plain sum, so aggregation is
// commutative and associative: merging per-sub-batch or per-cell stats
// in any order yields identical totals (Makespan sums because
// sub-batches run back to back).
func (s *ExecStats) Add(o *ExecStats) {
	s.Makespan += o.Makespan
	s.RemoteTransfers += o.RemoteTransfers
	s.RemoteBytes += o.RemoteBytes
	s.ReplicaTransfers += o.ReplicaTransfers
	s.ReplicaBytes += o.ReplicaBytes
	s.StorageBusy += o.StorageBusy
	s.ComputeBusy += o.ComputeBusy
	s.TransferFailures += o.TransferFailures
	s.TransferRetries += o.TransferRetries
	s.ReplicaRecoveries += o.ReplicaRecoveries
	s.Crashes += o.Crashes
	s.Stragglers += o.Stragglers
	s.RequeuedTasks += o.RequeuedTasks
	s.WastedSeconds += o.WastedSeconds
	s.SpecLaunches += o.SpecLaunches
	s.SpecWins += o.SpecWins
	s.SpecCancels += o.SpecCancels
	s.SpecSaved += o.SpecSaved
	s.SpecWastedSeconds += o.SpecWastedSeconds
}

// ExecuteSpec runs one sub-batch plan through the §6 runtime stage:
// tasks commit in earliest-completion-time order from one heap over
// the whole sub-batch (a commit on a node re-evaluates only the cached
// ECTs of tasks mapped to that node, and a re-evaluated task within 1%
// of the heap's best commits without going back in); each missing
// input file is staged from the source giving the minimum transfer
// completion time (or from the source the pinned IP plan dictates),
// reserving slots on the source port, destination port and — on
// platforms with one — the shared inter-cluster link. Transfers and
// execution on a compute node serialize on its single port (the
// paper's single-port model; no staging overlaps execution on the same
// node). ExecuteSpec mutates st: staged files are recorded in the disk
// cache, task completion is marked, and the state clock advances by
// the sub-batch makespan.
//
// traced selects a full gantt.Schedule record of what was committed —
// every port timeline, staging event and task execution — so callers
// can run gantt's post-hoc invariant checker against the exact
// schedule the runtime stage produced (nil otherwise). tr (nil for
// none) receives one simulated-time span per committed port
// reservation with absolute batch timestamps. Observation never
// alters the schedule.
//
// A non-nil inj injects deterministic faults: transfer attempts may
// fail and retry with capped exponential backoff (preferring a
// surviving replica source over the storage cluster), node crashes
// interrupt work and drop disk caches at the sub-batch boundary, and
// stragglers stretch executions. round is the sub-batch ordinal, part
// of every failure's hashed identity. Tasks whose in-sub-batch
// recovery exhausted its budget are returned in requeued — still
// pending, for the caller to re-plan.
//
// An active pol (with a non-nil inj) adds speculative execution: when
// a committed task's stretched execution would run past the policy's
// elapsed-time threshold (the watchdog), a duplicate attempt is forked
// on the best other compute node — preferring nodes whose disks
// already cache the inputs, falling back to the cheapest staging — the
// first finisher wins, and the loser is cancelled deterministically
// (tag-3 burns for its occupied port time, in-flight stagings rolled
// back through State). A nil inj or an inactive pol takes the exact
// fault-free or non-speculative code paths.
//
// The commit loop evaluates on a second core when GOMAXPROCS ≥ 2 (see
// run); its output is identical at any worker count.
func ExecuteSpec(st *State, plan *SubPlan, traced bool, tr obs.Tracer, inj *faults.Injector, round int, pol *spec.Policy) (*ExecStats, *gantt.Schedule, []batch.TaskID, error) {
	stats, sched, requeued, _, err := execute(st, plan, traced, tr, inj, round, pol)
	return stats, sched, requeued, err
}

// execute is ExecuteSpec that also returns the commit loop's
// evaluation counters.
func execute(st *State, plan *SubPlan, traced bool, tr obs.Tracer, inj *faults.Injector, round int, pol *spec.Policy) (*ExecStats, *gantt.Schedule, []batch.TaskID, execCounters, error) {
	e, err := newExecutor(st, plan, traced, tr, inj, round, pol)
	if err != nil {
		return nil, nil, nil, execCounters{}, err
	}
	stats, err := e.run()
	if err != nil {
		return nil, nil, nil, execCounters{}, err
	}
	return stats, e.trace, e.requeued, e.ctr, nil
}

// transfer tags recorded in Gantt intervals, for debugging and tests.
// tagFault marks a preempted (partial) reservation: the port time a
// transfer or execution burnt before an injected failure killed it.
const (
	tagTransfer int32 = 1
	tagExec     int32 = 2
	tagFault    int32 = 3
)

// faultAbort signals that injected faults prevented one task commit
// (node crash or exhausted transfer retries). The run loop re-queues
// the task instead of failing the run.
type faultAbort struct {
	node   int
	at     float64 // sub-batch-relative time of the terminal failure
	crash  bool    // caused by a node crash (vs a retry budget)
	reason string
}

func (f *faultAbort) Error() string { return "core: " + f.reason }

type stageKey struct {
	file batch.FileID
	dest int
}

type executor struct {
	st   *State
	plan *SubPlan

	// ports holds every port timeline, indexed by port id: storage
	// node s is s, compute node n is S+n, and the shared wide-area link
	// (when the platform has one) is S+C. storageTL and computeTL are
	// views of it.
	ports     []*gantt.Timeline
	storageTL []*gantt.Timeline
	computeTL []*gantt.Timeline
	linkTL    *gantt.Timeline
	// remoteBW[s*C+n] caches Platform.RemoteBW(s, n).
	remoteBW []float64

	// avail[n][f] is the committed availability time of file f on
	// compute node n within this sub-batch; negative means absent.
	avail [][]float64
	// holders[f] lists, in ascending node order, the compute nodes with
	// avail[n][f] >= 0 — the inverse of avail, so source searches visit
	// only actual copies instead of every node. Nodes are only ever
	// added (avail never drops below zero within a sub-batch), which
	// keeps the lists sorted by construction.
	holders [][]int32

	// remainingBuf backs the commit envs' missing-file worklist across
	// calls; commits run one at a time, and every tentative env has a
	// buffer of its own.
	remainingBuf []batch.FileID
	// ctr counts the commit loop's ECT evaluations.
	ctr execCounters

	planned map[stageKey]Staging

	stats ExecStats
	// trace, when non-nil, accumulates the committed schedule for
	// post-hoc validation.
	trace *gantt.Schedule
	// tr receives simulated-time spans for committed reservations.
	tr obs.Tracer

	// Fault injection (all nil/zero on the fault-free fast path).
	inj   *faults.Injector
	round int
	// crashRel[n] is node n's pending crash time relative to this
	// sub-batch's start (+Inf when it never crashes). Fixed for the
	// whole sub-batch: crashes are consumed only at the boundary.
	crashRel []float64
	// crashSeen[n] records that node n's pending crash interrupted
	// work, so the boundary must consume it even if the final makespan
	// ends before the crash time (the zero-progress edge case).
	crashSeen []bool
	// requeued collects tasks whose commit a fault aborted; they stay
	// pending and the caller re-plans them in a later sub-batch.
	requeued []batch.TaskID

	// Journal context for committed transfers: the task whose inputs
	// are being staged (-1 during pre-staging) and, under fault
	// injection, the attempt number of the transfer being committed.
	curTask    int
	curAttempt int

	// pol is the speculative-execution policy; nil or inactive (and
	// any run without an injector) takes the exact pre-speculation
	// code paths.
	pol *spec.Policy
	// drainLeft is the number of tasks still waiting behind the one
	// being committed (the ECT heap's residue). The watchdog uses it
	// to tell the drain phase — fewer waiting tasks than compute
	// ports, so ports are about to idle — from the saturated middle of
	// the sub-batch, where a duplicate could only displace useful
	// work.
	drainLeft int
}

func newExecutor(st *State, plan *SubPlan, traced bool, tr obs.Tracer, inj *faults.Injector, round int, pol *spec.Policy) (*executor, error) {
	if len(plan.Tasks) == 0 {
		return nil, fmt.Errorf("core: empty sub-batch plan")
	}
	p := st.P
	e := &executor{st: st, plan: plan, tr: obs.OrNop(tr), round: round, curTask: -1, pol: pol,
		drainLeft: len(plan.Tasks)}
	if inj != nil {
		e.inj = inj
		e.crashRel = make([]float64, p.Platform.NumCompute())
		e.crashSeen = make([]bool, p.Platform.NumCompute())
		for n := range e.crashRel {
			e.crashRel[n] = inj.CrashTime(n) - st.Clock
		}
	}
	if e.tr.Enabled() {
		for s := range p.Platform.Storage {
			e.tr.NameTrack(obs.DomainSim, obs.StorageTrack(s), "storage "+strconv.Itoa(s))
		}
		for n := range p.Platform.Compute {
			e.tr.NameTrack(obs.DomainSim, obs.ComputeTrack(n), "compute "+strconv.Itoa(n))
		}
		if p.Platform.SharedLinkBW > 0 {
			e.tr.NameTrack(obs.DomainSim, obs.TrackLink, "wide-area link")
		}
	}
	ns, nc := len(p.Platform.Storage), p.Platform.NumCompute()
	e.ports = make([]*gantt.Timeline, ns+nc)
	for i := range e.ports {
		e.ports[i] = gantt.NewTimeline()
	}
	e.storageTL, e.computeTL = e.ports[:ns], e.ports[ns:]
	if p.Platform.SharedLinkBW > 0 {
		e.linkTL = gantt.NewTimeline()
		e.ports = append(e.ports, e.linkTL)
	}
	e.remoteBW = make([]float64, ns*nc)
	for s := range ns {
		for n := range nc {
			e.remoteBW[s*nc+n] = p.Platform.RemoteBW(s, n)
		}
	}
	nf := p.Batch.NumFiles()
	if traced {
		e.trace = &gantt.Schedule{
			Storage:  e.storageTL,
			Compute:  e.computeTL,
			Link:     e.linkTL,
			DiskCap:  make([]int64, p.Platform.NumCompute()),
			InitUsed: make([]int64, p.Platform.NumCompute()),
			InitHeld: make([][]int, p.Platform.NumCompute()),
		}
		for n := range p.Platform.Compute {
			e.trace.DiskCap[n] = p.Platform.Compute[n].DiskSpace
			e.trace.InitUsed[n] = st.Used(n)
		}
	}
	e.avail = make([][]float64, p.Platform.NumCompute())
	e.holders = make([][]int32, nf)
	for n := range e.avail {
		e.avail[n] = make([]float64, nf)
		for f := range e.avail[n] {
			if st.Holds(n, batch.FileID(f)) {
				e.avail[n][f] = 0
				e.holders[f] = append(e.holders[f], int32(n)) // n ascends: stays sorted
				if e.trace != nil {
					e.trace.InitHeld[n] = append(e.trace.InitHeld[n], f)
				}
			} else {
				e.avail[n][f] = -1
			}
		}
	}
	if plan.Pinned {
		e.planned = make(map[stageKey]Staging, len(plan.Staging))
		for _, s := range plan.Staging {
			e.planned[stageKey{s.File, s.Dest}] = s
		}
	}
	for _, t := range plan.Tasks {
		n, ok := plan.Node[t]
		if !ok {
			return nil, fmt.Errorf("core: plan contains task %d with no node assignment", t)
		}
		if n < 0 || n >= p.Platform.NumCompute() {
			return nil, fmt.Errorf("core: task %d assigned to unknown node %d", t, n)
		}
		if st.Done[t] {
			return nil, fmt.Errorf("core: task %d already executed", t)
		}
	}
	return e, nil
}

// schedEnv abstracts committed vs tentative scheduling so the same
// staging logic serves both ECT estimation and the final commit.
type schedEnv struct {
	e      *executor
	commit bool
	// overlays (tentative mode only), indexed by port id and created
	// on first use.
	overlays []*gantt.Overlay
	// dirty lists the overlays that received tentative reservations, so
	// a reused env can clear exactly those instead of rebuilding every
	// overlay.
	dirty []*gantt.Overlay
	// scratch availability additions (tentative mode only), with
	// scratchByFile as its per-file ascending-node inverse (the
	// tentative counterpart of executor.holders).
	scratch       map[stageKey]float64
	scratchByFile map[batch.FileID][]int32
	// visiting marks the (file, node) stagings on ensureFile's stack
	// (pinned plans only), so a replication cycle is caught.
	visiting map[stageKey]bool
	// remaining backs stageInputs's missing-file worklist: the
	// executor's remainingBuf in a commit env, the env's own buffer in a
	// tentative one, so tentative envs share no scratch and any number
	// of them can probe one executor at once.
	remaining *[]batch.FileID
	// alts holds the source alternatives bestSource evaluated for the
	// transfer about to commit (journaled commit mode only); the
	// commit consumes and clears it. stageInputs parks the alternatives
	// of its round's best file so far in bestAlts, swapping the two
	// buffers rather than probing the winner again.
	alts, bestAlts []journal.SourceAlt
	// floor is the earliest time any slot search may start (tentative
	// twin planning only: a twin's transfers cannot begin before the
	// watchdog forked it). Zero for every other env.
	floor float64
	// record, when non-nil, captures each tentatively scheduled
	// transfer so the twin-commit path can replay the exact slots.
	record *[]specOp
	// twin marks the commit env that replays a speculative twin's
	// transfers; their stagings journal with cause "spec".
	twin bool
	// dynamicOnly forces dynamic (min-TCT) source choice even under a
	// pinned plan: twin staging is not part of the IP plan, and
	// single-hop dynamic transfers keep the recorded ops replayable.
	dynamicOnly bool
}

func newSchedEnv(e *executor, commit bool) *schedEnv {
	v := &schedEnv{e: e, commit: commit, remaining: &e.remainingBuf}
	if e.plan.Pinned {
		v.visiting = make(map[stageKey]bool)
	}
	if !commit {
		v.overlays = make([]*gantt.Overlay, len(e.ports))
		v.scratch = make(map[stageKey]float64)
		v.scratchByFile = make(map[batch.FileID][]int32)
		v.remaining = new([]batch.FileID)
	}
	return v
}

// cleared resets a tentative env for a fresh scheduling pass and
// returns it. Only the overlays that were actually dirtied and the
// scratch entries that were added get reset, so back-to-back probes
// cost no allocation.
func (v *schedEnv) cleared() *schedEnv {
	for _, ov := range v.dirty {
		ov.Clear()
	}
	v.dirty = v.dirty[:0]
	clear(v.scratch)
	clear(v.scratchByFile)
	clear(v.visiting)
	return v
}

func (v *schedEnv) availOn(n int, f batch.FileID) (float64, bool) {
	if a := v.e.avail[n][f]; a >= 0 {
		return a, true
	}
	if !v.commit {
		if a, ok := v.scratch[stageKey{f, n}]; ok {
			return a, true
		}
	}
	return 0, false
}

func (v *schedEnv) setAvail(n int, f batch.FileID, at float64) {
	if v.commit {
		if v.e.avail[n][f] < 0 {
			v.e.holders[f] = insertAscending(v.e.holders[f], n)
		}
		v.e.avail[n][f] = at
		return
	}
	key := stageKey{f, n}
	if _, ok := v.scratch[key]; !ok {
		v.scratchByFile[f] = insertAscending(v.scratchByFile[f], n)
	}
	v.scratch[key] = at
}

// insertAscending inserts node n into the ascending node list lst.
func insertAscending(lst []int32, n int) []int32 {
	i := sort.Search(len(lst), func(i int) bool { return lst[i] >= int32(n) })
	lst = append(lst, 0)
	copy(lst[i+1:], lst[i:])
	lst[i] = int32(n)
	return lst
}

// holderIter walks the nodes that hold a file or, in a tentative env,
// are scheduled to receive it: the merge of the two ascending lists
// executor.holders and schedEnv.scratchByFile. Visiting in ascending
// node order keeps every tie-break and journal entry exactly those of
// a filtered 0..C-1 scan. It is a plain value with an inlinable next
// because source selection spends most of the executor's time in this
// walk.
type holderIter struct {
	hs, ts []int32
}

func (v *schedEnv) holdersOf(f batch.FileID) holderIter {
	it := holderIter{hs: v.e.holders[f]}
	if !v.commit {
		it.ts = v.scratchByFile[f]
	}
	return it
}

// next returns the next node of the walk, or -1 once it is done.
func (it *holderIter) next() int {
	if len(it.hs) > 0 && (len(it.ts) == 0 || it.hs[0] <= it.ts[0]) {
		j := it.hs[0]
		it.hs = it.hs[1:]
		return int(j)
	}
	if len(it.ts) > 0 {
		j := it.ts[0]
		it.ts = it.ts[1:]
		return int(j)
	}
	return -1
}

// computePort returns the port id of compute node n.
func (e *executor) computePort(n int) int { return len(e.storageTL) + n }

// searcher returns the env's view of port id: the committed timeline,
// or in a tentative env its overlay.
func (v *schedEnv) searcher(id int) gantt.SlotSearcher {
	if v.commit {
		return v.e.ports[id]
	}
	return v.overlay(id)
}

// overlay returns the tentative env's overlay of port id, creating it
// on first use.
func (v *schedEnv) overlay(id int) *gantt.Overlay {
	ov := v.overlays[id]
	if ov == nil {
		ov = gantt.NewOverlay(v.e.ports[id])
		v.overlays[id] = ov
	}
	return ov
}

func (v *schedEnv) reserve(id int, start, dur float64, tag int32) {
	if v.commit {
		v.e.ports[id].Reserve(start, dur, tag)
		return
	}
	ov := v.overlay(id)
	if ov.TentativeLen() == 0 {
		v.dirty = append(v.dirty, ov)
	}
	ov.Add(start, dur)
}

// ensureFile makes file f available on compute node dst under a
// pinned (IP) plan, scheduling whatever transfer chain the plan's
// source choice needs, and returns its availability time. A
// replication cycle falls back to a remote transfer, and a file the
// plan does not move to dst to the dynamic min-TCT choice of §6.
func (v *schedEnv) ensureFile(f batch.FileID, dst int) (float64, error) {
	if at, ok := v.availOn(dst, f); ok {
		return at, nil
	}
	key := stageKey{f, dst}
	if v.visiting[key] {
		// Replication cycle in a pinned plan; break it with a remote
		// transfer.
		return v.transfer(f, -1, dst, 0)
	}
	op, ok := v.e.planned[key]
	if !ok {
		// No planned movement for a file a task needs here: the plan is
		// incomplete (should not happen for IP-feasible plans); choose
		// dynamically.
		src, start, dur := v.bestSource(f, dst)
		return v.book(f, src, dst, start, dur)
	}
	if op.Kind == Remote || v.e.st.P.DisableReplication {
		return v.transfer(f, -1, dst, 0)
	}
	v.visiting[key] = true
	srcAt, err := v.ensureFile(f, op.Src)
	delete(v.visiting, key)
	if err != nil {
		return 0, err
	}
	return v.transfer(f, op.Src, dst, srcAt)
}

// bestSource evaluates every possible source of file f for node dst
// against the current Gantt view and returns the one with minimum
// transfer completion time start+dur, together with the slot
// [start, start+dur) its search found (src = -1 means remote from the
// file's storage home), without reserving anything. Booking that slot
// with book is the transfer: nothing is searched twice.
func (v *schedEnv) bestSource(f batch.FileID, dst int) (src int, start, dur float64) {
	start, dur = v.transferSlot(f, -1, dst, 0)
	src, tct := -1, start+dur
	record := v.commit && v.e.st.J.Enabled()
	if record {
		v.alts = append(v.alts[:0], journal.SourceAlt{Src: -1, TCT: tct})
	}
	if v.e.st.P.DisableReplication {
		return src, start, dur
	}
	// Visit only the nodes that hold (or are tentatively scheduled to
	// receive) the file.
	it := v.holdersOf(f)
	for j := it.next(); j >= 0; j = it.next() {
		if j == dst {
			continue
		}
		at, ok := v.availOn(j, f)
		if !ok {
			continue
		}
		if !record && at+v.e.transferDur(f, j, dst) >= tct-1e-12 {
			// rstart ≥ at, so rtct ≥ at+rdur: this source cannot win the
			// strict rtct < tct-1e-12 test below. Skip its slot search —
			// unless the journal needs the exact TCT for the alts list.
			continue
		}
		rstart, rdur := v.transferSlot(f, j, dst, at)
		rtct := rstart + rdur
		if record {
			v.alts = append(v.alts, journal.SourceAlt{Src: j, TCT: rtct})
		}
		if rtct < tct-1e-12 {
			src, start, dur, tct = j, rstart, rdur, rtct
		}
	}
	return src, start, dur
}

// transferDur returns how long a transfer of f onto dst from src
// takes; src -1 means remote from the file's storage home.
func (e *executor) transferDur(f batch.FileID, src, dst int) float64 {
	p := e.st.P
	size := float64(p.Batch.FileSize(f))
	if src < 0 {
		return size / e.remoteBW[p.Batch.Files[f].Home*len(e.computeTL)+dst]
	}
	return size / p.Platform.ReplicaBW(src, dst)
}

// transferPorts returns the ids of the ports a transfer of f onto dst
// from src (-1: remote) occupies, in its first n entries: the source
// port (the storage home's for a remote transfer), the destination
// port and, for a remote transfer on a platform with one, the shared
// wide-area link.
func (e *executor) transferPorts(f batch.FileID, src, dst int) (ports [3]int, n int) {
	if src >= 0 {
		return [3]int{e.computePort(src), e.computePort(dst)}, 2
	}
	ports = [3]int{e.st.P.Batch.Files[f].Home, e.computePort(dst), len(e.ports) - 1}
	if e.linkTL == nil {
		return ports, 2
	}
	return ports, 3
}

// transferSlot returns the duration of a transfer of f onto dst from
// src (-1: remote) and the earliest start, no earlier than after or
// the env's floor, at which all of its ports are free that long.
func (v *schedEnv) transferSlot(f batch.FileID, src, dst int, after float64) (start, dur float64) {
	dur = v.e.transferDur(f, src, dst)
	ports, n := v.e.transferPorts(f, src, dst)
	var res [3]gantt.SlotSearcher
	for i, id := range ports[:n] {
		res[i] = v.searcher(id)
	}
	if after < v.floor {
		after = v.floor
	}
	return gantt.MultiSlot(after, dur, res[:n]...), dur
}

// reserveTransfer books [start, start+dur) with tag on every port a
// transfer of f onto dst from src (-1: remote) occupies.
func (v *schedEnv) reserveTransfer(f batch.FileID, src, dst int, start, dur float64, tag int32) {
	ports, n := v.e.transferPorts(f, src, dst)
	for _, id := range ports[:n] {
		v.reserve(id, start, dur, tag)
	}
}

// transfer stages f onto dst from src (-1: remote from the file's
// storage home), starting no earlier than srcAt, when the source copy
// is available, and returns the arrival time.
func (v *schedEnv) transfer(f batch.FileID, src, dst int, srcAt float64) (float64, error) {
	start, dur := v.transferSlot(f, src, dst, srcAt)
	return v.book(f, src, dst, start, dur)
}

// book stages f onto dst from src (-1: remote) in the slot
// [start, start+dur) a search on this env's view found, and returns
// the arrival time. A tentative env only books overlay time (and
// records the op for a twin's replay); the commit path books the
// transfer for real, through the retry loop under fault injection.
func (v *schedEnv) book(f batch.FileID, src, dst int, start, dur float64) (float64, error) {
	if v.commit {
		if v.e.inj != nil {
			return v.faultyTransfer(f, src, dst, start, dur)
		}
		return v.commitTransfer(f, src, dst, start, dur)
	}
	v.reserveTransfer(f, src, dst, start, dur, tagTransfer)
	if v.record != nil {
		*v.record = append(*v.record, specOp{file: f, src: src, dst: dst, start: start, dur: dur})
	}
	v.setAvail(dst, f, start+dur)
	return start + dur, nil
}

// commitTransfer reserves and records a transfer of f onto dst from
// src (-1: remote) whose slot [start, start+dur) has already been
// found. Its journal entry consumes the source alternatives
// bestSource captured for it (if any).
func (v *schedEnv) commitTransfer(f batch.FileID, src, dst int, start, dur float64) (float64, error) {
	e := v.e
	size := e.st.P.Batch.FileSize(f)
	v.reserveTransfer(f, src, dst, start, dur, tagTransfer)
	if err := e.st.AddFile(dst, f, e.base()+start+dur); err != nil {
		return 0, err
	}
	kind := "remote"
	if src >= 0 {
		kind = "replica"
		e.stats.ReplicaTransfers++
		e.stats.ReplicaBytes += size
	} else {
		e.stats.RemoteTransfers++
		e.stats.RemoteBytes += size
	}
	if e.trace != nil {
		e.trace.Stages = append(e.trace.Stages, gantt.StageEvent{File: int(f), Node: dst, Avail: start + dur, Size: size})
	}
	if e.tr.Enabled() {
		b := e.base()
		srcTrack, name := obs.StorageTrack(e.st.P.Batch.Files[f].Home), "stage file "+strconv.Itoa(int(f))
		args := []obs.Arg{obs.A("file", int(f)), obs.A("bytes", size), obs.A("dst", dst)}
		if src >= 0 {
			srcTrack, name = obs.ComputeTrack(src), "replicate file "+strconv.Itoa(int(f))
			args = []obs.Arg{obs.A("file", int(f)), obs.A("bytes", size), obs.A("src", src), obs.A("dst", dst)}
		}
		e.tr.SimSpan(srcTrack, kind, name, b+start, b+start+dur, args...)
		e.tr.SimSpan(obs.ComputeTrack(dst), kind, name, b+start, b+start+dur, args...)
		if src < 0 && e.linkTL != nil {
			e.tr.SimSpan(obs.TrackLink, kind, name, b+start, b+start+dur, args...)
		}
	}
	if j := e.st.J; j.Enabled() {
		cause := "task"
		switch {
		case v.twin:
			cause = "spec"
		case e.curTask < 0:
			cause = "prestage"
		case e.curAttempt > 1:
			cause = "retry"
		}
		alts := v.alts
		v.alts = nil
		b := e.base()
		j.Emit(journal.Event{T: b + start, Kind: journal.KindStage, Round: e.round, Stage: &journal.Stage{
			File: int(f), Dest: dst, Src: src, Home: e.st.P.Batch.Files[f].Home, Kind: kind,
			Start: b + start, End: b + start + dur, Bytes: size,
			Cause: cause, Task: e.curTask, Attempt: e.curAttempt, Alternatives: alts,
		}})
	}
	v.setAvail(dst, f, start+dur)
	return start + dur, nil
}

// survivingReplica picks the retry source for staging f onto dst
// after a failed attempt: among nodes already holding the file it
// returns the one whose copy would complete earliest without the
// source crashing first. ok is false when no replica survives (the
// retry then falls back to the storage cluster). Retries happen only
// on the commit path, so only committed holders are candidates.
func (v *schedEnv) survivingReplica(f batch.FileID, dst int, after float64) (src int, start, dur float64, ok bool) {
	e := v.e
	if e.st.P.DisableReplication {
		return -1, 0, 0, false
	}
	best := math.Inf(1)
	src = -1
	for _, h := range e.holders[f] {
		j := int(h)
		if j == dst {
			continue
		}
		jstart, jdur := v.transferSlot(f, j, dst, math.Max(after, e.avail[j][f]))
		end := jstart + jdur
		if end > e.crashRel[j] {
			continue // source dies before the copy completes
		}
		if end < best {
			best, src, start, dur = end, j, jstart, jdur
		}
	}
	return src, start, dur, src >= 0
}

// faultyTransfer is the transfer commit path under fault injection:
// each attempt draws crash and link failures against its stable
// identity; a failed attempt burns a preempted reservation
// [start, failAt) on the ports it occupied, backs off, and retries —
// preferring a surviving replica source (the paper's replication
// doubling as the recovery path) before the storage cluster. src is
// the first attempt's source (-1 = remote) and [start0, start0+dur0)
// the slot already found for it. Exhausted retries or a destination
// crash abort the task commit with a faultAbort.
func (v *schedEnv) faultyTransfer(f batch.FileID, src, dst int, start0, dur0 float64) (float64, error) {
	e := v.e
	inj := e.inj
	after := 0.0
	for attempt := 1; attempt <= inj.MaxTransferRetries(); attempt++ {
		curSrc, start, dur := src, start0, dur0
		if attempt > 1 {
			// Alternatives captured for the first attempt's source choice
			// no longer describe this retry's decision.
			v.alts = nil
			var ok bool
			if curSrc, start, dur, ok = v.survivingReplica(f, dst, after); !ok {
				curSrc = -1
				start, dur = v.transferSlot(f, -1, dst, after)
			}
		}
		end := start + dur

		// Earliest failure among destination crash, source crash, and
		// the link draw decides the attempt's fate.
		failAt := math.Inf(1)
		crashedNode := -1
		if c := e.crashRel[dst]; c < end {
			failAt, crashedNode = c, dst
		}
		if curSrc >= 0 {
			if c := e.crashRel[curSrc]; c < end && c < failAt {
				failAt, crashedNode = c, curSrc
			}
		}
		if frac, bad := inj.TransferFail(int(f), dst, curSrc, e.round, attempt); bad {
			if at := start + frac*dur; at < failAt {
				failAt, crashedNode = at, -1
			}
		}
		if math.IsInf(failAt, 1) {
			e.curAttempt = attempt
			at, err := v.commitTransfer(f, curSrc, dst, start, dur)
			e.curAttempt = 0
			if err != nil {
				return 0, err
			}
			if attempt > 1 && curSrc >= 0 {
				e.stats.ReplicaRecoveries++
			}
			return at, nil
		}

		// The attempt dies at failAt: burn the started portion as a
		// preempted reservation so the recovery schedule stays honest
		// about port occupancy. No StageEvent is recorded — the file
		// never arrived.
		if failAt < start {
			failAt = start
		}
		e.stats.TransferFailures++
		e.stats.WastedSeconds += failAt - start
		if failAt > start {
			v.reserveTransfer(f, curSrc, dst, start, failAt-start, tagFault)
		}
		if e.tr.Enabled() {
			b := e.base()
			e.tr.SimSpan(obs.ComputeTrack(dst), "fault", "failed stage file "+strconv.Itoa(int(f)),
				b+start, b+failAt,
				obs.A("file", int(f)), obs.A("attempt", attempt), obs.A("src", curSrc))
		}
		if j := e.st.J; j.Enabled() {
			detail := "link failure mid-transfer"
			switch crashedNode {
			case dst:
				detail = "destination node crashed mid-transfer"
			case curSrc:
				if crashedNode >= 0 {
					detail = "source replica node crashed mid-transfer"
				}
			}
			srcDesc := "storage home " + strconv.Itoa(e.st.P.Batch.Files[f].Home)
			if curSrc >= 0 {
				srcDesc = "replica on node " + strconv.Itoa(curSrc)
			}
			j.Emit(journal.Event{T: e.base() + failAt, Kind: journal.KindFault, Round: e.round,
				Fault: &journal.Fault{Class: journal.FaultTransferFail, Node: dst, Task: e.curTask,
					File: int(f), Attempt: attempt, Detail: detail + " (from " + srcDesc + ")"}})
		}
		if crashedNode >= 0 {
			e.crashSeen[crashedNode] = true
		}
		if crashedNode == dst {
			return 0, &faultAbort{node: dst, at: failAt, crash: true,
				reason: fmt.Sprintf("node %d crashed while staging file %d", dst, f)}
		}
		e.stats.TransferRetries++
		after = failAt + inj.Backoff(attempt+1)
	}
	return 0, &faultAbort{node: dst, at: after,
		reason: fmt.Sprintf("staging file %d onto node %d: all %d transfer attempts failed", f, dst, inj.MaxTransferRetries())}
}

// base returns the absolute sim time at the start of this sub-batch.
func (e *executor) base() float64 { return e.st.Clock }

// stageInputs stages every input of task that node c lacks and returns
// the time the last of them is available there. Under dynamic source
// choice each round books the slot its winning probe found.
func (v *schedEnv) stageInputs(task *batch.Task, c int) (float64, error) {
	e := v.e
	remaining := (*v.remaining)[:0]
	arrival := 0.0
	for _, f := range task.Files {
		if at, ok := v.availOn(c, f); ok {
			if at > arrival {
				arrival = at
			}
			continue
		}
		remaining = append(remaining, f)
	}
	for len(remaining) > 0 {
		// §6: estimate the TCT of every remaining input file against
		// the current Gantt view, schedule the minimum, recompute the
		// rest, and repeat (transfers to one node serialize on its
		// port, so shorter-TCT transfers go first). In pinned (IP-plan)
		// mode the source is dictated and may involve realizing a
		// replication chain, which probing cannot price without side
		// effects, so files are taken in ascending-size order there (the
		// same order min-TCT produces on an otherwise idle port).
		pinned := e.plan.Pinned && !v.dynamicOnly
		best := 0
		var src int
		var start, dur float64
		if pinned {
			for i := 1; i < len(remaining); i++ {
				if e.st.P.Batch.FileSize(remaining[i]) < e.st.P.Batch.FileSize(remaining[best]) {
					best = i
				}
			}
		} else {
			var bestTCT float64
			for i, f := range remaining {
				fsrc, fstart, fdur := v.bestSource(f, c)
				if tct := fstart + fdur; i == 0 || tct < bestTCT {
					bestTCT, best, src, start, dur = tct, i, fsrc, fstart, fdur
					v.alts, v.bestAlts = v.bestAlts, v.alts
				}
			}
			// The winner's alternatives go to its journaled commit.
			v.alts, v.bestAlts = v.bestAlts, v.alts
		}
		f := remaining[best]
		remaining = append(remaining[:best], remaining[best+1:]...)
		var at float64
		var err error
		if pinned {
			at, err = v.ensureFile(f, c)
		} else {
			at, err = v.book(f, src, c, start, dur)
		}
		if err != nil {
			*v.remaining = remaining[:0]
			return 0, err
		}
		if at > arrival {
			arrival = at
		}
	}
	*v.remaining = remaining[:0]
	return arrival, nil
}

// execBase returns task's fault-free execution time on node c: a
// local read of all its inputs plus its computation.
func (e *executor) execBase(task *batch.Task, c int) float64 {
	var bytes int64
	for _, f := range task.Files {
		bytes += e.st.P.Batch.FileSize(f)
	}
	return float64(bytes)/e.st.P.Platform.Compute[c].LocalReadBW + task.Compute
}

// commitTask schedules task t for real on a fresh commit env and
// returns its completion time.
func (e *executor) commitTask(t batch.TaskID) (float64, error) {
	e.curTask = int(t)
	return e.scheduleIn(newSchedEnv(e, true), t)
}

// probe returns task t's tentative earliest completion time, evaluated
// on the tentative env v after clearing it. It writes only v, so
// between two commits it is a pure function of the committed state.
// Tentative scheduling cannot fail: the fault paths are commit-only.
func (e *executor) probe(v *schedEnv, t batch.TaskID) float64 {
	ect, _ := e.scheduleIn(v.cleared(), t)
	return ect
}

// scheduleIn stages task t's missing files on env v (greedy min-TCT
// order, per §6) and then places its execution; it returns the task's
// completion time. In a tentative env everything happens on overlays.
func (e *executor) scheduleIn(v *schedEnv, t batch.TaskID) (float64, error) {
	commit := v.commit
	c := e.plan.Node[t]
	task := &e.st.P.Batch.Tasks[t]
	arrival, err := v.stageInputs(task, c)
	if err != nil {
		return 0, err
	}

	// Execute on the node's port (no staging overlaps execution).
	baseDur := e.execBase(task, c)
	execDur := baseDur
	stragFactor := 0.0
	if commit && e.inj != nil {
		// Stragglers stretch only the committed execution; ECT
		// estimation stays fault-blind so tentative ordering is
		// identical at any worker count.
		if factor := e.inj.Straggler(int(t), e.round); factor > 1 {
			execDur *= factor
			e.stats.Stragglers++
			stragFactor = factor
		}
	}
	start := v.searcher(e.computePort(c)).EarliestSlot(arrival, execDur)
	if stragFactor > 1 {
		if j := e.st.J; j.Enabled() {
			j.Emit(journal.Event{T: e.base() + start, Kind: journal.KindFault, Round: e.round,
				Fault: &journal.Fault{Class: journal.FaultStraggler, Node: c, Task: int(t), File: -1,
					Factor: stragFactor, Detail: "execution stretched by straggling node"}})
		}
	}
	if commit && e.specOn() {
		// The watchdog may fork a duplicate attempt; when it does, the
		// speculation path owns the whole commit (winner, cancellation,
		// crash handling). When it does not fire, fall through to the
		// exact pre-speculation path below.
		if handled, end, err := e.trySpeculate(v, t, c, task, start, execDur, baseDur); handled || err != nil {
			return end, err
		}
	}
	if commit && e.inj != nil && start+execDur > e.crashRel[c] {
		// Node c dies before this execution completes: burn the started
		// portion and hand the task back for re-queueing.
		return 0, e.killTask(t, c, start, fmt.Sprintf("node %d crashed during task %d execution", c, t))
	}
	if commit {
		e.commitExec(t, c, task, start, execDur)
	}
	return start + execDur, nil
}

// killTask burns task t's execution on node c from start until c's
// crash interrupts it, and returns the abort that hands the task back
// for re-queueing.
func (e *executor) killTask(t batch.TaskID, c int, start float64, reason string) *faultAbort {
	crashAt := e.crashRel[c]
	e.stats.WastedSeconds += e.burnExec(t, c, start, crashAt, "killed task ")
	e.crashSeen[c] = true
	return &faultAbort{node: c, at: crashAt, crash: true, reason: reason}
}

// burnExec books the interrupted part [start, stop) of an execution of
// task t on node n as a tag-fault reservation, traced as label plus
// the task number, and returns its length (0 when it never started).
func (e *executor) burnExec(t batch.TaskID, n int, start, stop float64, label string) float64 {
	if stop <= start {
		return 0
	}
	e.computeTL[n].Reserve(start, stop-start, tagFault)
	if e.tr.Enabled() {
		b := e.base()
		e.tr.SimSpan(obs.ComputeTrack(n), "fault", label+strconv.Itoa(int(t)),
			b+start, b+stop, obs.A("task", int(t)), obs.A("node", n))
	}
	return stop - start
}

// commitExec books task t's execution [start, start+dur) on node c
// and records every side effect of a completed task: Done marking,
// file touches, trace/journal emissions.
func (e *executor) commitExec(t batch.TaskID, c int, task *batch.Task, start, dur float64) {
	e.computeTL[c].Reserve(start, dur, tagExec)
	e.st.Done[t] = true
	for _, f := range task.Files {
		e.st.Touch(c, f, e.base()+start+dur)
	}
	if e.trace != nil {
		e.trace.Tasks = append(e.trace.Tasks, gantt.TaskEvent{Task: int(t), Node: c, Start: start, End: start + dur, Inputs: fileInts(task.Files)})
	}
	if e.tr.Enabled() {
		b := e.base()
		e.tr.SimSpan(obs.ComputeTrack(c), "exec", "task "+strconv.Itoa(int(t)),
			b+start, b+start+dur,
			obs.A("task", int(t)), obs.A("node", c), obs.A("inputs", len(task.Files)))
	}
	if j := e.st.J; j.Enabled() {
		b := e.base()
		j.Emit(journal.Event{T: b + start, Kind: journal.KindExec, Round: e.round, Exec: &journal.Exec{
			Task: int(t), Node: c, Start: b + start, End: b + start + dur, Inputs: fileInts(task.Files)}})
	}
}

// fileInts returns a fresh copy of files as plain ints.
func fileInts(files []batch.FileID) []int {
	out := make([]int, len(files))
	for i, f := range files {
		out[i] = int(f)
	}
	return out
}

// specOp is one tentatively scheduled twin transfer, recorded so the
// winner-resolution path can replay the exact slot. src is -1 for a
// remote (storage) transfer.
type specOp struct {
	file       batch.FileID
	src, dst   int
	start, dur float64
}

// twinPlan is a fully planned speculative duplicate attempt of one
// task: the twin host, the transfers that stage its missing inputs,
// and its execution window. end is the twin's projected completion.
type twinPlan struct {
	node               int
	ops                []specOp
	execStart, execDur float64
	end                float64
}

// specOn reports whether this run forks speculative twins: it needs
// both an active policy and an injector (without stragglers there is
// nothing to mitigate, and thresholds derive from the injector's
// straggler distribution).
func (e *executor) specOn() bool { return e.pol.Active() && e.inj != nil }

// plannedBytesOutstanding returns the bytes node j must still receive
// for the missing inputs of its not-yet-done assigned tasks (each
// file counted once). The twin capacity guard subtracts it from Free
// so a forked duplicate can never eat disk space a later commit on j
// relies on.
func (e *executor) plannedBytesOutstanding(j int) int64 {
	var sum int64
	seen := make(map[batch.FileID]bool)
	for _, t := range e.plan.Tasks {
		if e.plan.Node[t] != j || e.st.Done[t] {
			continue
		}
		for _, f := range e.st.P.Batch.Tasks[t].Files {
			if e.avail[j][f] >= 0 || seen[f] {
				continue
			}
			seen[f] = true
			sum += e.st.P.Batch.FileSize(f)
		}
	}
	return sum
}

// planTwin tentatively schedules a duplicate attempt of task t on
// node j, forked at forkT while the primary still occupies node c
// over [primStart, primStart+primDur). Everything happens on
// overlays; the recorded ops let the winner-resolution path replay
// exactly the slots that were planned. Twin staging is always dynamic
// and single-hop (min-TCT over current holders and the storage home)
// and floored at the fork time — a twin cannot move data before it
// exists.
func (e *executor) planTwin(t batch.TaskID, task *batch.Task, j, c int, forkT, primStart, primDur float64) twinPlan {
	var ops []specOp
	v := newSchedEnv(e, false)
	v.floor = forkT
	v.dynamicOnly = true
	v.record = &ops
	// The primary keeps executing while the twin races it: its full
	// stretched window occupies node c in the twin's view, so copies
	// sourced from c queue behind it.
	v.reserve(e.computePort(c), primStart, primDur, tagExec)
	// A copy must complete before its source node crashes (the same
	// rule survivingReplica applies on the retry path): block every
	// crash-doomed node's port from its crash time onward, so copies
	// that cannot fit before the crash price out of bestSource and a
	// twin never sources data from a dead node.
	const specFar = 1e18
	for j2 := range e.computeTL {
		if j2 == j {
			continue
		}
		if ca := e.crashRel[j2]; !math.IsInf(ca, 1) {
			if ca < 0 {
				ca = 0
			}
			v.reserve(e.computePort(j2), ca, specFar, tagFault)
		}
	}

	// Tentative scheduling cannot fail: the fault paths are
	// commit-only.
	arrival, _ := v.stageInputs(task, j)
	// The twin draws its own straggler luck through disjoint hash
	// domains: forking never perturbs any primary-path draw.
	dur := e.execBase(task, j) * e.inj.SpecStraggler(int(t), e.round)
	exStart := v.searcher(e.computePort(j)).EarliestSlot(math.Max(arrival, forkT), dur)
	return twinPlan{node: j, ops: ops, execStart: exStart, execDur: dur, end: exStart + dur}
}

// commitTwinOps replays the twin's recorded transfer ops against the
// committed timelines. Ops finishing by stopT commit as real stagings
// with journaled cause "spec" (the copies persist — even a losing
// twin leaves useful replicas behind); ops in flight at stopT are
// cancelled: the occupied port time burns as tag-fault reservations
// and the staging is rolled back through State (AddFile then Unstage)
// so the disk cache never shows a half-arrived file. Ops not yet
// started at stopT vanish. Returns the burnt port-seconds and whether
// any op had started.
func (e *executor) commitTwinOps(bp twinPlan, stopT float64) (waste float64, started bool, err error) {
	v := newSchedEnv(e, true)
	v.twin = true
	for _, op := range bp.ops {
		if op.start >= stopT {
			continue
		}
		started = true
		if op.start+op.dur <= stopT {
			if _, err = v.commitTransfer(op.file, op.src, op.dst, op.start, op.dur); err != nil {
				return waste, started, err
			}
			continue
		}
		cut := stopT - op.start
		v.reserveTransfer(op.file, op.src, op.dst, op.start, cut, tagFault)
		if err = e.st.AddFile(op.dst, op.file, e.base()+stopT); err != nil {
			return waste, started, err
		}
		e.st.Unstage(op.dst, op.file)
		waste += cut
		if e.tr.Enabled() {
			b := e.base()
			e.tr.SimSpan(obs.ComputeTrack(op.dst), "fault", "cancelled spec stage file "+strconv.Itoa(int(op.file)),
				b+op.start, b+stopT, obs.A("file", int(op.file)), obs.A("dst", op.dst))
		}
	}
	return waste, started, nil
}

// cancelTwin cancels twin plan bp of task t at stopT: its transfers
// replay up to stopT (commitTwinOps), and its execution, if started by
// then, burns as a tag-fault reservation on the twin's node. The burnt
// port time is added to SpecWastedSeconds and returned, together with
// whether any part of the twin had started.
func (e *executor) cancelTwin(bp twinPlan, stopT float64, t batch.TaskID) (waste float64, startedAny bool, err error) {
	waste, startedAny, err = e.commitTwinOps(bp, stopT)
	if err != nil {
		return waste, startedAny, err
	}
	if burnt := e.burnExec(t, bp.node, bp.execStart, stopT, "cancelled twin of task "); burnt > 0 {
		waste += burnt
		startedAny = true
	}
	e.stats.SpecWastedSeconds += waste
	return waste, startedAny, nil
}

// trySpeculate is the watchdog hook on the commit path: when task t's
// committed (straggler-stretched) execution runs past the policy
// threshold, it forks a duplicate attempt on the best other node,
// resolves the first-finisher race, commits the winner and cancels
// the loser. It reports handled=false when the watchdog does not fire
// (or no twin host fits), in which case the caller proceeds down the
// exact pre-speculation path.
func (e *executor) trySpeculate(v *schedEnv, t batch.TaskID, c int, task *batch.Task, start, execDur, baseDur float64) (handled bool, end float64, err error) {
	thr := e.pol.Threshold(baseDur, e.inj.StragglerDist())
	if math.IsInf(thr, 1) {
		return false, 0, nil
	}
	// The watchdog only monitors attempts that actually start. A task
	// whose node is already down at its start time never begins
	// executing — detecting that is the failure detector's job, and
	// the ordinary abort/requeue path handles it (letting the
	// scheduler re-place the task instead of burning a threshold wait
	// on a node known to be dead).
	if e.crashRel[c] <= start {
		return false, 0, nil
	}
	// The watchdog fires iff the primary has not reported completion
	// by start+thr: either its stretched execution runs past the
	// threshold, or its node crashes mid-run and the attempt never
	// finishes at all (the watchdog cannot tell the two apart — a
	// silent task is a silent task).
	primEnd := start + execDur
	primAlive := primEnd <= e.crashRel[c]
	if primAlive && execDur <= thr {
		return false, 0, nil
	}
	// Duplicating a merely-slow (but live) primary trades port time
	// for latency: the pair always burns more total port time than
	// letting the straggler finish, so mid-batch — when every port the
	// twin could take still has useful work queued behind it — the
	// trade loses and the watchdog stands down. It pays only in the
	// drain phase (fewer waiting tasks than ports, the same
	// near-completion gate Hadoop-style speculation uses), where the
	// twin rides a port that would otherwise idle and a win shortens
	// the sub-batch tail directly. Crash-killed primaries are exempt:
	// their alternative is a requeue into a later sub-batch, which is
	// strictly worse than any finite twin.
	if primAlive && e.drainLeft >= len(e.computeTL) {
		return false, 0, nil
	}
	forkT := start + thr

	// A fork is only worthwhile if the twin can plausibly win the
	// race. Conditioned on "still silent at the threshold", a live
	// primary finishes uniformly within (thr, F·baseDur] — so a twin
	// projected past the conditional mean (thr + F·baseDur)/2 is a bad
	// bet: forking it would burn another node's port for an expected
	// loss. This prices out twins on saturated ports or with expensive
	// staging, leaving the forks that matter — stragglers in the batch
	// tail, duplicated onto nodes that are idle and already cache the
	// inputs. A dead primary never finishes, so any finite twin
	// rescues the task and no bound applies.
	limit := math.Inf(1)
	if primAlive {
		limit = start + (thr+e.inj.StragglerDist().Factor*baseDur)/2
	}

	// Pick the twin host: every other node is scored by the projected
	// completion of a tentatively planned duplicate (inputs already
	// cached count for free; missing ones stage dynamically, no
	// earlier than the fork). Nodes the failure detector knows are
	// dead at fork time, or whose disk cannot hold the missing inputs
	// on top of what pending commits still need, are recorded as
	// non-fitting candidates.
	var cands []journal.Candidate
	best := -1
	var bp twinPlan
	for j := range e.computeTL {
		if j == c {
			continue
		}
		if e.crashRel[j] <= forkT {
			cands = append(cands, journal.Candidate{Node: j, Fits: false})
			continue
		}
		var missing int64
		for _, f := range task.Files {
			if e.avail[j][f] < 0 {
				missing += e.st.P.Batch.FileSize(f)
			}
		}
		if missing > e.st.Free(j)-e.plannedBytesOutstanding(j) {
			cands = append(cands, journal.Candidate{Node: j, Fits: false})
			continue
		}
		tp := e.planTwin(t, task, j, c, forkT, start, execDur)
		cands = append(cands, journal.Candidate{Node: j, Score: e.base() + tp.end, Fits: true})
		if tp.end < limit && (best < 0 || tp.end < bp.end) {
			best, bp = j, tp
		}
	}
	if best < 0 {
		return false, 0, nil // no twin host worth forking; the ordinary path decides the task's fate
	}

	b := e.base()
	twinEnd := bp.end
	twinAlive := twinEnd <= e.crashRel[best]
	e.stats.SpecLaunches++
	if j := e.st.J; j.Enabled() {
		j.Emit(journal.Event{T: b + forkT, Kind: journal.KindSpecLaunch, Round: e.round, Spec: &journal.Spec{
			Task: int(t), Node: c, Twin: best, Policy: e.pol.String(), Threshold: thr, Candidates: cands,
			Reason: fmt.Sprintf("task %d still running on node %d %.4gs after start (threshold %.4gs, policy %s): forked twin on node %d",
				t, c, execDur, thr, e.pol, best)}})
	}
	if e.tr.Enabled() {
		e.tr.SimInstant(obs.ComputeTrack(c), "spec", "fork twin of task "+strconv.Itoa(int(t)), b+forkT,
			obs.A("task", int(t)), obs.A("twin", best))
	}

	if twinAlive && (!primAlive || twinEnd < primEnd) {
		// Twin wins: cancel the primary at the twin's finish (or at
		// its own crash, whichever strikes first) and commit the twin
		// as the task's real execution.
		primStop := twinEnd
		crashKilled := false
		if e.crashRel[c] < primStop {
			primStop, crashKilled = e.crashRel[c], true
		}
		e.stats.SpecWastedSeconds += e.burnExec(t, c, start, primStop, "cancelled task ")
		if crashKilled {
			e.crashSeen[c] = true
		}
		if !primAlive {
			e.stats.SpecSaved++
		}
		if _, _, err := e.commitTwinOps(bp, math.Inf(1)); err != nil {
			return true, 0, err
		}
		e.commitExec(t, best, task, bp.execStart, bp.execDur)
		e.stats.SpecWins++
		e.stats.SpecCancels++
		if j := e.st.J; j.Enabled() {
			pe := b + primEnd
			if !primAlive {
				pe = -1
			}
			why := "primary attempt cancelled: twin finished first"
			if crashKilled {
				why = "primary crashed; twin completed the task"
			}
			j.Emit(journal.Event{T: b + twinEnd, Kind: journal.KindSpecWin, Round: e.round, Spec: &journal.Spec{
				Task: int(t), Node: c, Twin: best, Winner: "twin", PrimaryEnd: pe, TwinEnd: b + twinEnd,
				Reason: fmt.Sprintf("twin on node %d finished at %.4g; primary on node %d cancelled", best, b+twinEnd, c)}})
			j.Emit(journal.Event{T: b + primStop, Kind: journal.KindSpecCancel, Round: e.round, Spec: &journal.Spec{
				Task: int(t), Node: c, Twin: best, Winner: "twin", WastedS: primStop - start, Reason: why}})
		}
		return true, twinEnd, nil
	}

	if primAlive {
		// Primary wins (ties included): commit it exactly as the
		// pre-speculation path would have, then cancel the twin at the
		// primary's finish (or at the twin host's crash).
		e.commitExec(t, c, task, start, execDur)
		twinStop := primEnd
		twinCrashed := e.crashRel[best] < twinStop
		if twinCrashed {
			twinStop = e.crashRel[best]
		}
		waste, startedAny, err := e.cancelTwin(bp, twinStop, t)
		if err != nil {
			return true, 0, err
		}
		if twinCrashed && startedAny {
			e.crashSeen[best] = true
		}
		e.stats.SpecCancels++
		if j := e.st.J; j.Enabled() {
			te := b + twinEnd
			if !twinAlive {
				te = -1
			}
			why := "twin attempt cancelled: primary finished first"
			if twinCrashed {
				why = "twin host crashed; primary completed the task"
			}
			j.Emit(journal.Event{T: b + primEnd, Kind: journal.KindSpecWin, Round: e.round, Spec: &journal.Spec{
				Task: int(t), Node: c, Twin: best, Winner: "primary", PrimaryEnd: b + primEnd, TwinEnd: te,
				Reason: fmt.Sprintf("primary on node %d finished at %.4g; twin on node %d cancelled", c, b+primEnd, best)}})
			j.Emit(journal.Event{T: b + twinStop, Kind: journal.KindSpecCancel, Round: e.round, Spec: &journal.Spec{
				Task: int(t), Node: c, Twin: best, Winner: "primary", WastedS: waste, Reason: why}})
		}
		return true, primEnd, nil
	}

	// Both attempts die before finishing: burn both, cancel the twin,
	// and hand the task back exactly once (the run loop re-queues on
	// the single faultAbort, so a killed task with a twin in flight is
	// never double-requeued).
	abort := e.killTask(t, c, start,
		fmt.Sprintf("node %d crashed during task %d execution; speculative twin on node %d also died", c, t, best))
	twinStop := e.crashRel[best]
	waste, startedAny, err := e.cancelTwin(bp, twinStop, t)
	if err != nil {
		return true, 0, err
	}
	if startedAny {
		e.crashSeen[best] = true
	}
	e.stats.SpecCancels++
	if j := e.st.J; j.Enabled() {
		j.Emit(journal.Event{T: b + twinStop, Kind: journal.KindSpecCancel, Round: e.round, Spec: &journal.Spec{
			Task: int(t), Node: c, Twin: best, Winner: "none", PrimaryEnd: -1, TwinEnd: -1, WastedS: waste,
			Reason: "both attempts crash-killed; task re-queued"}})
	}
	return true, 0, abort
}

// ectEntry is a heap entry with a cached earliest completion time.
type ectEntry struct {
	task batch.TaskID
	ect  float64
	ver  int
}

type ectHeap []ectEntry

func (h ectHeap) Len() int            { return len(h) }
func (h ectHeap) Less(i, j int) bool  { return h[i].ect < h[j].ect }
func (h ectHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *ectHeap) Push(x interface{}) { *h = append(*h, x.(ectEntry)) }
func (h *ectHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// execCounters counts the commit loop's ECT evaluations. evals is the
// same at any worker count. Which probes go to the helper depends only
// on heap state, so prefetched and wasted are fixed for a fixed worker
// count too, except that a request the helper has not claimed by the
// time the loop needs it is withdrawn (see helperReady): on a busy
// machine they can come out lower.
type execCounters struct {
	// evals counts the ECT values the loop consumed: one per plan task
	// in the initial pass plus one per stale pop.
	evals int
	// prefetched counts the stale-pop evaluations taken from the
	// helper instead of probed by the loop.
	prefetched int
	// wasted counts helper results dropped unconsumed at a commit.
	wasted int
}

// add folds o into c.
func (c *execCounters) add(o execCounters) {
	c.evals += o.evals
	c.prefetched += o.prefetched
	c.wasted += o.wasted
}

// Handshake states of the helper worker. The loop posts a request
// (helperProbe, helperSweep or helperQuit) into a helperReady helper.
// The helper claims a probe or sweep by moving it to helperRunning and
// stores helperReady once it has answered. Until the helper claims a
// request the loop may withdraw it, by moving it back to helperReady,
// and do the work itself; so a helper that gets no core never stalls
// the loop.
const (
	helperReady int32 = iota
	helperProbe
	helperSweep
	helperRunning
	helperQuit
)

// A worker polling the handshake yields its core every yieldEvery
// polls, so under nested fan-out (more runnable goroutines than cores)
// a waiting worker lets the one it waits for run, and the idle helper
// parks after parkAfter polls. From the third probe in a row the loop
// has to withdraw, each one doubles the number of hand-off chances the
// loop then lets pass, up to maxSkip, and an answered probe resets
// that: where the helper gets no core of its own (GOMAXPROCS above the
// CPUs the process really has), it soon stays parked instead of
// competing with the loop for one.
const (
	yieldEvery = 1 << 8
	parkAfter  = 1 << 17
	maxSkip    = 1 << 8
)

// helper is the commit loop's second worker (see run): it probes on a
// tentative env of its own, one request at a time. A nil *helper is
// the single-worker loop; it holds nothing and takes no request.
type helper struct {
	e      *executor
	env    *schedEnv
	state  atomic.Int32
	parked atomic.Bool
	wake   chan struct{}
	// done is closed when the helper goroutine exits.
	done chan struct{}
	// Loop side only: busy says a request is outstanding, late counts
	// the probes withdrawn in a row, and skip the hand-off chances
	// still to let pass, backoff the number to let pass next time.
	busy                bool
	late, backoff, skip int
	// task is the requested probe, ect its result once answered.
	task batch.TaskID
	ect  float64
	// sweep is the initial pass a helperSweep request shares.
	sweep *ectSweep
}

// startHelper starts the helper worker when a second core is available
// (GOMAXPROCS ≥ 2) and returns nil otherwise.
func (e *executor) startHelper() *helper {
	if runtime.GOMAXPROCS(0) < 2 {
		return nil
	}
	w := &helper{e: e, env: newSchedEnv(e, false), wake: make(chan struct{}, 1), done: make(chan struct{})}
	go w.loop()
	return w
}

func (w *helper) loop() {
	defer close(w.done)
	for late := false; ; {
		s := w.await(late)
		if s == helperQuit {
			return
		}
		// A withdrawn request means this goroutine got no core in
		// time; park at once rather than spin against the loop.
		if late = !w.state.CompareAndSwap(s, helperRunning); late {
			continue
		}
		if s == helperProbe {
			w.ect = w.e.probe(w.env, w.task)
		} else {
			w.e.runSweep(w.env, w.sweep)
		}
		w.state.Store(helperReady)
	}
}

// await polls for the loop's next request and parks after parkAfter
// polls, or at once if late. Parking announces itself before its last
// poll, and post stores the request before it checks for a parked
// helper, so a request is never missed; a surplus wake-up only costs a
// re-poll.
func (w *helper) await(late bool) int32 {
	spins := 0
	if late {
		spins = parkAfter
	}
	for ; ; spins++ {
		if s := w.state.Load(); s != helperReady {
			return s
		}
		if spins < parkAfter {
			if spins%yieldEvery == yieldEvery-1 {
				runtime.Gosched()
			}
			continue
		}
		w.parked.Store(true)
		if s := w.state.Load(); s != helperReady {
			w.parked.Store(false)
			return s
		}
		<-w.wake
		w.parked.Store(false)
		spins = 0
	}
}

// post hands the idle helper request s.
func (w *helper) post(s int32) {
	w.busy = true
	w.state.Store(s)
	if w.parked.Load() {
		select {
		case w.wake <- struct{}{}:
		default:
		}
	}
}

// settle ends the outstanding request. It withdraws a request the
// helper has not claimed and reports false, or waits until the
// claimed one is answered and reports true.
func (w *helper) settle() bool {
	w.busy = false
	for spins := 1; ; spins++ {
		switch s := w.state.Load(); {
		case s == helperReady:
			return true
		case s != helperRunning && w.state.CompareAndSwap(s, helperReady):
			return false
		}
		if spins%yieldEvery == 0 {
			runtime.Gosched()
		}
	}
}

// offer asks the helper, if it runs, is idle and is not backing off,
// to probe task t.
func (w *helper) offer(t batch.TaskID) {
	if w == nil || w.busy {
		return
	}
	if w.skip > 0 {
		w.skip--
		return
	}
	w.task = t
	w.post(helperProbe)
}

// holds reports whether the outstanding request is a probe of task t.
func (w *helper) holds(t batch.TaskID) bool { return w != nil && w.busy && w.task == t }

// take settles the outstanding probe and returns its ECT; ok is false
// when it was withdrawn unanswered.
func (w *helper) take() (ect float64, ok bool) {
	if ok = w.settle(); ok {
		w.late, w.backoff = 0, 0
	} else if w.late++; w.late > 2 {
		w.backoff = min(2*w.backoff+1, maxSkip)
		w.skip = w.backoff
	}
	return w.ect, ok
}

// drop settles any outstanding request and discards its answer, so the
// committed state may change; it reports whether the helper had
// evaluated one.
func (w *helper) drop() bool {
	return w != nil && w.busy && w.settle()
}

// stop ends the helper goroutine and waits until it has exited.
func (w *helper) stop() {
	if w == nil {
		return
	}
	w.drop()
	w.post(helperQuit)
	<-w.done
}

// ectSweep is the initial ECT pass over plan.Tasks, shared by both
// workers: each claims the next unclaimed index and fills its slot.
type ectSweep struct {
	next atomic.Int64
	ects []float64
}

// runSweep probes the sweep's unclaimed tasks on env v until none is
// left.
func (e *executor) runSweep(v *schedEnv, s *ectSweep) {
	for i := int(s.next.Add(1) - 1); i < len(s.ects); i = int(s.next.Add(1) - 1) {
		s.ects[i] = e.probe(v, e.plan.Tasks[i])
	}
}

// initialECTs returns every plan task's first ECT in plan.Tasks order,
// probing on env v and, when it runs, the helper at once. Each value
// is a probe of the same committed state, so the heap built from them
// is the sequential one.
func (e *executor) initialECTs(w *helper, v *schedEnv) []float64 {
	s := &ectSweep{ects: make([]float64, len(e.plan.Tasks))}
	if w != nil {
		w.sweep = s
		w.post(helperSweep)
	}
	e.runSweep(v, s)
	w.drop()
	e.ctr.evals += len(s.ects)
	return s.ects
}

func (e *executor) run() (*ExecStats, error) {
	// Global earliest-completion-time ordering with lazy re-evaluation:
	// cached ECTs go stale only when a commit changes the Gantt state,
	// so each pop re-evaluates at most once per version. This is the
	// paper's "schedule the task with the lowest earliest completion
	// time first" rule.
	// Pre-staging ops (e.g. DataLeastLoaded replicas) commit first so
	// every task sees the extra copies.
	for _, op := range e.plan.PreStage {
		if e.avail[op.Dest][op.File] >= 0 {
			continue // already there
		}
		e.curTask = -1 // journaled as planner-directed pre-staging
		src, srcAt := -1, 0.0
		if op.Kind == Replica && !e.st.P.DisableReplication && e.avail[op.Src][op.File] >= 0 {
			src, srcAt = op.Src, e.avail[op.Src][op.File]
		}
		if _, err := newSchedEnv(e, true).transfer(op.File, src, op.Dest, srcAt); err != nil {
			// Pre-staging is a best-effort optimization: a fault-aborted
			// op is simply skipped (tasks re-stage on demand).
			var fa *faultAbort
			if errors.As(err, &fa) {
				continue
			}
			return nil, err
		}
	}

	// Cached ECTs are invalidated per compute node: committing a task
	// on node c changes c's port schedule (and marginally the storage
	// ports), so only tasks mapped to c re-evaluate; tasks elsewhere
	// keep slightly stale estimates. Together with a small relative
	// commit tolerance for near-tied candidates this keeps ordering
	// cost near O(T·files) instead of O(T²·files) on large
	// sub-batches, while preserving the §6 earliest-completion-time
	// discipline.
	//
	// Between two commits the committed state (port timelines, avail,
	// holders) is fixed and a probe writes only its own env, so a probe
	// is a pure function of that state. With a second core the helper
	// worker exploits this: whenever the loop pops a stale entry and
	// evaluates it, the helper evaluates the new heap top (if stale)
	// alongside. A pushed-back entry goes in above that top, so the
	// next pop is usually the handed-off task, and it takes the
	// helper's ECT instead of probing again. Every commit
	// first waits for the helper and drops an unconsumed result, so
	// the helper never reads state being mutated and no ECT crosses a
	// commit: each value the loop consumes is the one a sequential
	// probe would compute, and the schedule is identical at any
	// worker count.
	//
	// probeEnv is the loop's reusable tentative env: its overlays,
	// scratch tables and visiting set are cleared between probes
	// instead of reallocated (the probe loop runs millions of times at
	// scale). The helper owns another.
	w := e.startHelper()
	defer w.stop()
	probeEnv := newSchedEnv(e, false)
	h := &ectHeap{}
	nodeVer := make([]int, len(e.computeTL))
	for i, ect := range e.initialECTs(w, probeEnv) {
		heap.Push(h, ectEntry{task: e.plan.Tasks[i], ect: ect, ver: 0})
	}
	stale := func(x ectEntry) bool { return x.ver != nodeVer[e.plan.Node[x.task]] }
	const commitSlack = 1.01
	for h.Len() > 0 {
		top := heap.Pop(h).(ectEntry)
		node := e.plan.Node[top.task]
		if stale(top) {
			ect, ok := 0.0, false
			if w.holds(top.task) {
				if ect, ok = w.take(); ok {
					e.ctr.prefetched++
				}
			} else if h.Len() > 0 && stale((*h)[0]) {
				w.offer((*h)[0].task)
			}
			if !ok {
				ect = e.probe(probeEnv, top.task)
			}
			e.ctr.evals++
			if h.Len() > 0 && ect > (*h)[0].ect*commitSlack+1e-12 {
				heap.Push(h, ectEntry{task: top.task, ect: ect, ver: nodeVer[node]})
				continue
			}
		}
		if w.drop() {
			e.ctr.wasted++
		}
		e.drainLeft = h.Len()
		if _, err := e.commitTask(top.task); err != nil {
			var fa *faultAbort
			if errors.As(err, &fa) {
				// Injected fault killed the commit: the task stays
				// pending and is handed back for a later sub-batch.
				e.requeued = append(e.requeued, top.task)
				e.stats.RequeuedTasks++
				nodeVer[node]++
				if e.tr.Enabled() {
					e.tr.SimInstant(obs.ComputeTrack(node), "fault",
						"requeue task "+strconv.Itoa(int(top.task)), e.base()+fa.at,
						obs.A("task", int(top.task)), obs.A("reason", fa.reason))
				}
				if j := e.st.J; j.Enabled() {
					j.Emit(journal.Event{T: e.base() + fa.at, Kind: journal.KindFault, Round: e.round,
						Fault: &journal.Fault{Class: journal.FaultRequeue, Node: fa.node,
							Task: int(top.task), File: -1, Detail: fa.reason}})
				}
				continue
			}
			return nil, err
		}
		nodeVer[node]++
	}

	e.stats.Makespan = gantt.Makespan(e.computeTL)
	for _, tl := range e.storageTL {
		e.stats.StorageBusy += tl.BusyTime()
	}
	for _, tl := range e.computeTL {
		e.stats.ComputeBusy += tl.BusyTime()
	}
	if e.inj != nil {
		for n := range e.computeTL {
			abs := e.inj.CrashTime(n)
			if e.crashSeen[n] || abs < e.base()+e.stats.Makespan {
				// The crash fell inside this sub-batch (or visibly
				// interrupted work): the node loses its disk cache and
				// reboots empty at the boundary.
				dropped := e.st.DropNode(n)
				e.inj.ConsumeCrash(n)
				e.stats.Crashes++
				if e.tr.Enabled() {
					e.tr.SimInstant(obs.ComputeTrack(n), "fault",
						"node "+strconv.Itoa(n)+" crash", math.Min(abs, e.base()+e.stats.Makespan),
						obs.A("node", n))
				}
				if j := e.st.J; j.Enabled() {
					j.Emit(journal.Event{T: math.Min(abs, e.base()+e.stats.Makespan),
						Kind: journal.KindFault, Round: e.round,
						Fault: &journal.Fault{Class: journal.FaultCrash, Node: n, Task: -1, File: -1,
							Detail: fmt.Sprintf("node crashed; %d cached file copies lost, reboots empty", dropped)}})
				}
			}
		}
	}
	e.st.Clock += e.stats.Makespan
	return &e.stats, nil
}
