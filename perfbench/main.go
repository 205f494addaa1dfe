// Command perfbench is the repository's benchmark. It runs one
// workload as a closed loop from one process — one batch at a time,
// each starting only after the last has finished — and prints the
// end-to-end metrics (--trace 0) or the per-layer metrics of a
// separate traced run (--trace 1). The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload image-exec --seed 1 --seconds 30 --trace 0
//
// A run is one core.RunWith of one batch; a pass runs each of the
// workload's batches once, and the benchmark repeats passes until
// --seconds have gone. Every run is checked: before timing, each batch
// is run once with its committed schedule recorded and validated, and
// every later run of that batch must reproduce that Result exactly. A
// failed check prints "correct": false and exits 1. README.md maps
// each per-layer metric to the end-to-end metric it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/obs/journal"
)

// Each invocation builds its inputs at least minSetupReps times and for
// at least minSetupTime; setup_s and workload.gen_s report the median.
const (
	minSetupReps = 9
	minSetupTime = time.Second
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: image-exec, sat-disk or image-faults")
	seed := fs.Int64("seed", 1, "workload seed")
	faultSeed := fs.Int64("fault-seed", -1, "fault-plan seed (-1: the workload seed)")
	seconds := fs.Int("seconds", 30, "how long to measure")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics of a traced run")
	out := fs.String("out", ".bench_build", "directory for the span file of a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if *faultSeed < 0 {
		*faultSeed = *seed
	}
	def, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	b := &bench{def: def, seed: *seed, faultSeed: *faultSeed, stdout: stdout, log: newSpanLog()}
	if err := b.setup(); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := b.check(); err != nil {
		fmt.Fprintln(stderr, "perfbench: checked run:", err)
		return 1
	}
	deadline := now().Add(time.Duration(*seconds) * time.Second)
	var rep *report
	if *trace == 0 {
		rep = b.endToEnd(deadline)
	} else {
		rep = b.perLayer(deadline)
		path := filepath.Join(*out, fmt.Sprintf("spans-%s-seed%d.json", def.name, *seed))
		if err := writeSpans(path, b.log); err != nil {
			fmt.Fprintln(stderr, "perfbench: writing spans:", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans written to %s\n", path)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rep.Correct {
		return 1
	}
	return 0
}

// bench holds one invocation's inputs, their checked reference runs and
// the running tally of attempted and failed tasks.
type bench struct {
	def             workloadDef
	seed, faultSeed int64
	stdout          io.Writer

	ins       []*input
	setupS    []float64 // build + Problem.Validate + core.NewState, all batches
	genS      []float64 // workload generation alone, all batches
	refs      []*core.Result
	refEvents []int // journal events of each checked run
	log       *spanLog

	attempted, failed int
	violations        int
}

func (b *bench) setup() error {
	start := now()
	for len(b.setupS) < minSetupReps || since(start) < minSetupTime {
		var gen time.Duration
		t0 := now()
		ins := make([]*input, b.def.batches)
		for i := range ins {
			t1 := now()
			bt, err := b.def.generate(batchSeed(b.seed, i), b.def.tasks)
			gen += since(t1)
			if err != nil {
				return err
			}
			if ins[i], err = b.def.input(bt, batchSeed(b.seed, i), batchSeed(b.faultSeed, i)); err != nil {
				return err
			}
			if _, err := core.NewState(ins[i].p); err != nil {
				return err
			}
		}
		b.setupS = append(b.setupS, since(t0).Seconds())
		b.genS = append(b.genS, gen.Seconds())
		b.ins = ins
	}
	return nil
}

// check makes each batch's reference run: the public-call loop with
// schedule recording and a journal, whose schedules must validate
// cleanly. Every later run of the batch must reproduce its Result.
func (b *bench) check() error {
	log := newSpanLog()
	for _, in := range b.ins {
		st, err := core.NewState(in.p)
		if err != nil {
			return err
		}
		j := journal.New()
		res, v, err := layerRun(st, in.newScheduler(), in.p.Batch.AllTasks(), in.opts, j, log, "check")
		if err != nil {
			return err
		}
		if v > 0 {
			return fmt.Errorf("batch seed %d: %d schedule violations", in.seed, v)
		}
		b.refs = append(b.refs, res)
		b.refEvents = append(b.refEvents, j.Len())
	}
	return nil
}

// tally counts one run's tasks: all of them fail when the run errored
// or did not reproduce its batch's reference; otherwise the degraded
// ones do.
func (b *bench) tally(i int, res *core.Result, err error) {
	n := b.ins[i].p.Batch.NumTasks()
	b.attempted += n
	switch {
	case err != nil:
		b.failed += n
		fmt.Fprintf(b.stdout, "batch %d: run failed: %v\n", i, err)
	case !sameResult(res, b.refs[i]):
		b.failed += n
		fmt.Fprintf(b.stdout, "batch %d: run did not reproduce the checked run: makespan %v vs %v, %d vs %d sub-batches\n",
			i, res.Makespan, b.refs[i].Makespan, res.SubBatches, b.refs[i].SubBatches)
	default:
		b.failed += res.DegradedTasks
	}
}

// plainRun times core.RunWith on batch i with no observer attached.
func (b *bench) plainRun(i int) (wall time.Duration, alloc uint64, res *core.Result) {
	in := b.ins[i]
	runtime.GC()
	a0 := heapAllocBytes()
	t0 := now()
	res, err := core.RunWith(in.p, in.newScheduler(), in.opts)
	wall = since(t0)
	alloc = heapAllocBytes() - a0
	b.tally(i, res, err)
	return wall, alloc, res
}

func (b *bench) tasksPerPass() float64 {
	n := 0
	for _, in := range b.ins {
		n += in.p.Batch.NumTasks()
	}
	return float64(n)
}

func (b *bench) endToEnd(deadline time.Time) *report {
	k := len(b.ins)
	wall := make([][]float64, k)
	sched := make([][]float64, k)
	alloc := make([][]float64, k)
	var pooled []float64
	passes := 0
	for passes == 0 || now().Before(deadline) {
		for i := range b.ins {
			w, a, res := b.plainRun(i)
			wall[i] = append(wall[i], w.Seconds())
			pooled = append(pooled, w.Seconds())
			alloc[i] = append(alloc[i], float64(a)/1e6)
			if res != nil {
				sched[i] = append(sched[i], res.SchedulingTime.Seconds()*1000)
			}
		}
		passes++
	}
	var passS, schedMS, allocMB, makespan float64
	for i := range b.ins {
		passS += median(wall[i])
		schedMS += median(sched[i])
		allocMB += median(alloc[i])
		makespan += b.refs[i].Makespan
	}
	sort.Float64s(pooled)
	tail, beyond := tailOf(pooled)
	tasks := b.tasksPerPass()
	m := map[string]metric{
		"setup_s":           {median(b.setupS), "s"},
		"tasks_per_s":       {tasks / passS, "tasks/s"},
		"run_s_tail":        {tail, "s"},
		"sched_ms_per_task": {schedMS / tasks, "ms"},
		"makespan_s":        {makespan / float64(k), "sim_s"},
		"alloc_mb":          {allocMB / float64(k), "MB"},
		"max_rss_mb":        {maxRSSMB(), "MB"},
		"completed_frac":    {float64(b.attempted-b.failed) / float64(b.attempted), "ratio"},
	}
	fmt.Fprintf(b.stdout, "workload %s seed %d fault-seed %d: %d passes over %d batches of %d tasks, closed loop in one process, GOMAXPROCS %d\n",
		b.def.name, b.seed, b.faultSeed, passes, k, b.def.tasks, runtime.GOMAXPROCS(0))
	fmt.Fprintf(b.stdout, "run_s_tail is the %.1fth percentile of %d run times (%d beyond it)\n",
		100*float64(len(pooled)-beyond)/float64(len(pooled)), len(pooled), beyond)
	printMetrics(b.stdout, m)
	return b.report(m)
}

func (b *bench) report(m map[string]metric) *report {
	return &report{
		Correct:   b.failed == 0 && b.violations == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   m,
	}
}

// tracedRun runs the public-call loop once on batch i, with a journal
// when journaled.
func (b *bench) tracedRun(i int, journaled bool) {
	in := b.ins[i]
	runtime.GC()
	st, err := core.NewState(in.p)
	if err != nil {
		b.tally(i, nil, err)
		return
	}
	var j *journal.Recorder
	root := "run"
	if journaled {
		j, root = journal.New(), "run+journal"
	}
	res, v, err := layerRun(st, in.newScheduler(), in.p.Batch.AllTasks(), in.opts, j, b.log, root)
	b.violations += v
	b.tally(i, res, err)
	if err == nil && journaled && j.Len() != b.refEvents[i] {
		b.failed += in.p.Batch.NumTasks()
		fmt.Fprintf(b.stdout, "batch %d: journal has %d events, the checked run %d\n", i, j.Len(), b.refEvents[i])
	}
}

// passTotals sums one pass's spans per layer; wall is the sum of the
// pass's run spans.
type passTotals struct {
	wall  time.Duration
	dur   map[string]time.Duration
	alloc map[string]uint64
	calls map[string]int
}

func (b *bench) totals(pass int) passTotals {
	t := passTotals{dur: map[string]time.Duration{}, alloc: map[string]uint64{}, calls: map[string]int{}}
	for _, s := range b.log.spans {
		if s.Pass != pass {
			continue
		}
		if s.Parent < 0 {
			t.wall += s.dur()
			continue
		}
		t.dur[s.Name] += s.dur()
		t.alloc[s.Name] += s.Alloc
		t.calls[s.Name]++
	}
	return t
}

// perLayer alternates plain, traced and journaled passes until the
// deadline: the plain passes are the base of the tracing overhead, the
// traced passes give the layer spans, and the journaled passes the
// cost of the decision journal.
func (b *bench) perLayer(deadline time.Time) *report {
	var plain, traced, journaled []float64
	var runs []passTotals
	for len(plain) == 0 || now().Before(deadline) {
		var w time.Duration
		for i := range b.ins {
			d, _, _ := b.plainRun(i)
			w += d
		}
		plain = append(plain, w.Seconds())
		for i := range b.ins {
			b.tracedRun(i, false)
		}
		runs = append(runs, b.totals(b.log.pass))
		traced = append(traced, runs[len(runs)-1].wall.Seconds())
		b.log.pass++
		for i := range b.ins {
			b.tracedRun(i, true)
		}
		journaled = append(journaled, b.totals(b.log.pass).wall.Seconds())
		b.log.pass++
	}
	layer := func(name string) (s, share, allocMB []float64) {
		for _, r := range runs {
			d := r.dur[name].Seconds()
			s = append(s, d)
			share = append(share, d/r.wall.Seconds())
			allocMB = append(allocMB, float64(r.alloc[name])/1e6)
		}
		return s, share, allocMB
	}
	planS, planShare, planAlloc := layer("plan")
	execS, execShare, execAlloc := layer("exec")
	evictS, _, _ := layer("evict")
	validateS, _, _ := layer("validate")

	// Deterministic counts, summed over the pass's checked runs.
	var sum core.Result
	var files, sharers, uniqueGB float64
	const gb = 1e9
	for i, r := range b.refs {
		sum.TaskCount += r.TaskCount
		sum.RemoteTransfers += r.RemoteTransfers
		sum.ReplicaTransfers += r.ReplicaTransfers
		sum.RemoteBytes += r.RemoteBytes
		sum.ReplicaBytes += r.ReplicaBytes
		sum.StorageBusy += r.StorageBusy
		sum.ComputeBusy += r.ComputeBusy
		sum.Evictions += r.Evictions
		sum.TransferFailures += r.TransferFailures
		sum.TransferRetries += r.TransferRetries
		sum.ReplicaRecoveries += r.ReplicaRecoveries
		sum.Crashes += r.Crashes
		sum.RequeuedTasks += r.RequeuedTasks
		sum.WastedSeconds += r.WastedSeconds
		sum.SpecLaunches += r.SpecLaunches
		sum.SpecWins += r.SpecWins
		sum.SpecWastedSeconds += r.SpecWastedSeconds
		st := b.ins[i].p.Batch.ComputeStats()
		files += float64(st.NumFiles)
		sharers += st.MeanSharers / float64(len(b.refs))
		uniqueGB += float64(st.TotalBytes) / gb
	}
	events := 0
	for _, n := range b.refEvents {
		events += n
	}
	winRatio := 0.0
	if sum.SpecLaunches > 0 {
		winRatio = float64(sum.SpecWins) / float64(sum.SpecLaunches)
	}
	tasks := float64(sum.TaskCount)
	transfers := float64(sum.RemoteTransfers + sum.ReplicaTransfers)
	m := map[string]metric{
		"workload.gen_s":            {median(b.genS), "s"},
		"workload.files":            {files, "count"},
		"workload.unique_gb":        {uniqueGB, "GB"},
		"workload.sharers_per_file": {sharers, "tasks/file"},

		"plan.s":           {median(planS), "s"},
		"plan.share":       {median(planShare), "ratio"},
		"plan.calls":       {float64(runs[0].calls["plan"]), "count"},
		"plan.ms_per_task": {median(planS) * 1000 / tasks, "ms"},
		"plan.alloc_mb":    {median(planAlloc), "MB"},

		"exec.s":                 {median(execS), "s"},
		"exec.share":             {median(execShare), "ratio"},
		"exec.alloc_mb":          {median(execAlloc), "MB"},
		"exec.us_per_transfer":   {median(execS) * 1e6 / transfers, "us"},
		"exec.remote_transfers":  {float64(sum.RemoteTransfers), "count"},
		"exec.replica_transfers": {float64(sum.ReplicaTransfers), "count"},
		"exec.remote_gb":         {float64(sum.RemoteBytes) / gb, "GB"},
		"exec.replica_gb":        {float64(sum.ReplicaBytes) / gb, "GB"},
		"exec.storage_busy_s":    {sum.StorageBusy, "sim_s"},
		"exec.compute_busy_s":    {sum.ComputeBusy, "sim_s"},

		"evict.s":     {median(evictS), "s"},
		"evict.calls": {float64(runs[0].calls["evict"]), "count"},
		"evict.files": {float64(sum.Evictions), "count"},

		"validate.s":          {median(validateS), "s"},
		"validate.violations": {float64(b.violations), "count"},

		"faults.transfer_failures":  {float64(sum.TransferFailures), "count"},
		"faults.transfer_retries":   {float64(sum.TransferRetries), "count"},
		"faults.replica_recoveries": {float64(sum.ReplicaRecoveries), "count"},
		"faults.crashes":            {float64(sum.Crashes), "count"},
		"faults.requeued_tasks":     {float64(sum.RequeuedTasks), "count"},
		"faults.wasted_s":           {sum.WastedSeconds, "sim_s"},

		"spec.launches":  {float64(sum.SpecLaunches), "count"},
		"spec.wins":      {float64(sum.SpecWins), "count"},
		"spec.win_ratio": {winRatio, "ratio"},
		"spec.wasted_s":  {sum.SpecWastedSeconds, "sim_s"},

		"journal.events":        {float64(events), "count"},
		"journal.overhead_frac": {median(journaled)/median(traced) - 1, "ratio"},
		"trace.overhead_frac":   {median(traced)/median(plain) - 1, "ratio"},
	}
	fmt.Fprintf(b.stdout, "workload %s seed %d fault-seed %d: %d plain, traced and journaled passes over %d batches of %d tasks; per-layer figures are per pass\n",
		b.def.name, b.seed, b.faultSeed, len(plain), len(b.ins), b.def.tasks)
	printMetrics(b.stdout, m)
	return b.report(m)
}

func printMetrics(w io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailOf returns, from ascending samples, the highest sample with at
// least ten samples beyond it, and how many lie beyond it. With ten or
// fewer samples it returns the maximum.
func tailOf(sorted []float64) (value float64, beyond int) {
	n := len(sorted)
	if n <= 10 {
		return sorted[n-1], 0
	}
	return sorted[n-11], 10
}

// maxRSSMB is the peak resident memory of this process.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// chromeEvent is one complete event of the Chrome trace-event format,
// which Perfetto opens.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeSpans writes the span log as a Chrome trace, one track per pass.
func writeSpans(path string, l *spanLog) error {
	evs := make([]chromeEvent, len(l.spans))
	for i, s := range l.spans {
		evs[i] = chromeEvent{Name: s.Name, Ph: "X", Ts: float64(s.Start) / 1e3, Dur: float64(s.dur()) / 1e3,
			Pid: 1, Tid: s.Pass, Args: map[string]any{"parent": s.Parent, "alloc_bytes": s.Alloc}}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
