package main

import (
	"fmt"
	"strconv"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/platform"
	"repro/internal/sched/bipart"
	"repro/internal/sched/jdp"
	"repro/internal/sched/minmin"
	"repro/internal/spec"
	"repro/internal/workload"
)

// workloadDef is one benchmark workload: the input shape, the scheduler
// and the fault scenario. Each stresses a different layer, so that a
// change to one layer has a workload that exercises it and one that
// bypasses it (see README.md for the layer → metric mapping).
type workloadDef struct {
	name string
	app  string // "image" or "sat"
	// One pass runs batches independent batches of tasks tasks each.
	// Spreading a pass over several batches averages out how much one
	// seed's batch happens to share, so the metrics hold steady from
	// seed to seed.
	tasks, batches int
	// compute and storage size the XIO platform.
	compute, storage int
	// diskShare sets each compute node's disk so the whole cluster
	// holds this share of the batch's unique bytes; 0 is unlimited.
	diskShare float64
	sched     func(seed int64) core.Scheduler
	// faults is a faults.Parse scenario without its seed, which the
	// benchmark appends; "" runs fault-free.
	faults string
	spec   string // spec.Parse policy; "" is none
}

var workloads = []workloadDef{
	{
		// Unlimited disk and JDP's cheap indexed planner: the §6
		// executor does almost all the work on its nominal path. IMAGE
		// batches differ a lot in bytes from seed to seed (a hot group
		// reads either 4 MB MRI or 64 MB CT images), so a pass spans
		// many batches; runs shorter than this let a brief stall of the
		// host set the tail.
		name: "image-exec", app: "image", tasks: 800, batches: 24, compute: 16, storage: 4,
		sched: func(int64) core.Scheduler { return jdp.New() },
	},
	{
		// A quarter of the unique bytes fit: BiPartition's hypergraph
		// partitioning dominates, with the limited-disk sub-batch and
		// eviction loop; the executor has little to do. One partition
		// worker: the schedule does not depend on it, and on a 2-CPU
		// host a second worker adds noise, not speed.
		name: "sat-disk", app: "sat", tasks: 800, batches: 4, compute: 16, storage: 4,
		diskShare: 0.25,
		sched: func(seed int64) core.Scheduler {
			s := bipart.New(seed)
			s.Workers = 1
			return s
		},
	},
	{
		// Crashes, link failures and stragglers within the makespan,
		// with speculation: the executor's recovery path and
		// replica-heavy staging, plus the MinMin planner. The retry
		// budget is raised so no task is abandoned.
		name: "image-faults", app: "image", tasks: 1000, batches: 8, compute: 64, storage: 4,
		sched:  func(int64) core.Scheduler { return minmin.New() },
		faults: "harsh,mttf=600,budget=8", spec: "single-fork:0.86",
	},
}

func lookupWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// batchSeed derives the workload (or fault-plan) seed of batch i of a
// pass from the invocation's seed.
func batchSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }

// input is one generated batch of a workload, ready to run.
type input struct {
	def  workloadDef
	seed int64
	p    *core.Problem
	opts core.RunOptions
}

// generate builds one batch from its seed. It is the input generation
// layer, timed on its own as workload.gen_s.
func (w workloadDef) generate(seed int64, tasks int) (*batch.Batch, error) {
	switch w.app {
	case "image":
		return workload.Image(workload.ImageConfig{NumTasks: tasks, Overlap: workload.HighOverlap, NumStorage: w.storage, Seed: seed})
	case "sat":
		return workload.Sat(workload.SatConfig{NumTasks: tasks, Overlap: workload.HighOverlap, NumStorage: w.storage, Seed: seed})
	}
	return nil, fmt.Errorf("workload %s: unknown app %q", w.name, w.app)
}

// input turns a generated batch into a validated problem with its run
// options. The fault plan takes its own seed, so fault draws can vary
// independently of the batch.
func (w workloadDef) input(b *batch.Batch, seed, faultSeed int64) (*input, error) {
	var disk int64
	if w.diskShare > 0 {
		disk = int64(float64(b.TotalUniqueBytes(nil)) * w.diskShare / float64(w.compute))
	}
	p := &core.Problem{Batch: b, Platform: platform.XIO(w.compute, w.storage, disk)}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("workload %s: %w", w.name, err)
	}
	in := &input{def: w, seed: seed, p: p}
	if w.faults != "" {
		fp, err := faults.Parse(w.faults + ",seed=" + strconv.FormatInt(faultSeed, 10))
		if err != nil {
			return nil, fmt.Errorf("workload %s: %w", w.name, err)
		}
		in.opts.Faults = fp
	}
	sp, err := spec.Parse(w.spec)
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", w.name, err)
	}
	in.opts.Spec = sp
	return in, nil
}

// newScheduler returns a fresh scheduler for one run, so no run reuses
// another's planner state.
func (in *input) newScheduler() core.Scheduler { return in.def.sched(in.seed) }
