// Command perfbench is the repository's end-to-end benchmark of the mpsocd
// campaign service. Each run boots fresh daemons from a built mpsocd binary,
// drives one seeded closed-loop workload over HTTP, checks every streamed
// byte against an in-process reference, and prints its metrics. With
// -trace 1 it also replays the same job list in-process, timing each call
// into a layer's public functions, and prints per-layer metrics instead.
//
// Run it through run.sh, which builds both binaries from the checkout:
//
//	bash perfbench/run.sh --workload sweep-churn --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: {"correct",
// "attempted", "failed", "metrics"}. The lines before it are a readable
// report: sample counts, the output digest, the exact counts and, for a
// traced run, the self-time account and the trace file's path. README.md in
// this directory describes the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// config is one invocation.
type config struct {
	workload *Workload
	seed     uint64
	seconds  int
	trace    bool
	mpsocd   string
	work     string
}

// setupBoots is how many times a run boots its daemons; setup_s is the
// median, since one empty-journal boot takes only milliseconds.
const setupBoots = 31

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	name := flag.String("workload", "", "workload to run: sweep-churn, campaign-secmem or fleet-recovery")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed of the generated job list")
	flag.IntVar(&cfg.seconds, "seconds", 10, "run length: sizes the fixed job list")
	traceFlag := flag.Int("trace", 0, "1 reports per-layer metrics from an in-process traced replay; 0 end-to-end metrics")
	flag.StringVar(&cfg.mpsocd, "mpsocd", "", "path to the mpsocd binary")
	flag.StringVar(&cfg.work, "work", ".bench_build/run", "directory for journals, logs and trace files")
	flag.Parse()

	var err error
	if cfg.workload, err = lookupWorkload(*name); err != nil {
		fail(err)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fail(fmt.Errorf("-trace %d: want 0 or 1", *traceFlag))
	}
	cfg.trace = *traceFlag == 1
	if cfg.mpsocd == "" || cfg.seconds < 1 {
		fail(fmt.Errorf("need -mpsocd and -seconds >= 1"))
	}
	// The whole run, replays included, must end well inside three minutes.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	res, err := run(ctx, cfg)
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// report prints one line of the readable report.
func report(format string, args ...any) { fmt.Printf(format+"\n", args...) }

func run(ctx context.Context, cfg config) (*result, error) {
	w := cfg.workload
	jobs, err := w.Jobs(cfg.seed, "timed", w.jobCount(cfg.seconds))
	if err != nil {
		return nil, err
	}
	warm, err := w.Jobs(cfg.seed, "warmup", w.warmupCount(cfg.seconds))
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(cfg.work, fmt.Sprintf("%s-seed%d-pid%d", w.Name, cfg.seed, os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	m, err := serve(ctx, cfg, dir, jobs, warm)
	if err != nil {
		return nil, err
	}
	ref, err := buildReference(jobs, simWorkers)
	if err != nil {
		return nil, err
	}
	res := &result{Attempted: len(jobs), Metrics: map[string]metric{}}
	var reasons []error
	res.Failed, reasons = countFailures(m.results, ref)
	for _, err := range reasons {
		fmt.Fprintln(os.Stderr, "perfbench: failed", err)
	}
	res.Correct = res.Failed == 0
	if why := vacuous(w, ref.counts); why != "" {
		fmt.Fprintln(os.Stderr, "perfbench: vacuous workload:", why)
		res.Correct = false
	}
	if m.failovers > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d coordinator failovers\n", m.failovers)
		res.Correct = false
	}

	report("workload %s seed %d seconds %d: %d jobs (%d warm-up), %d records, wall %.3f s, %d failed",
		w.Name, cfg.seed, cfg.seconds, len(jobs), len(warm), m.records, m.wall.Seconds(), res.Failed)
	report("digest %s %s", w.Name, digest(m.results))
	counts, _ := json.Marshal(ref.counts)
	report("exact %s %s", w.Name, counts)

	if cfg.trace {
		if err := layerMetrics(ctx, cfg, dir, jobs, ref, m, res); err != nil {
			return nil, err
		}
	} else {
		endToEndMetrics(m, res)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		report("metric %-30s %14.6f %s", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	if res.Correct {
		os.RemoveAll(dir)
	} else {
		report("daemon logs kept in %s", dir)
	}
	return res, nil
}

// measured is what the daemon phase of a run observed.
type measured struct {
	results []jobResult
	wall    time.Duration
	records int
	setups  []float64 // seconds per boot
	// Deltas over the timed job list, summed over the fleet's daemons.
	cpu        time.Duration
	allocBytes float64
	gcCPU      float64 // seconds
	execNanos  uint64
	appends    uint64
	fsyncNanos uint64
	dispatches uint64
	failovers  uint64
	// hwmKB sums the daemons' peak resident sets.
	hwmKB uint64
}

// serve boots the daemons, measures set-up, runs the warm-up and the timed
// job list, samples the daemons around the timed list and stops them.
func serve(ctx context.Context, cfg config, dir string, jobs, warm []Job) (*measured, error) {
	w := cfg.workload
	m := &measured{}
	var f *fleet
	for b := 0; b < setupBoots; b++ {
		var d time.Duration
		var err error
		f, d, err = bootFleet(ctx, cfg.mpsocd, filepath.Join(dir, fmt.Sprintf("boot%d", b)), w)
		if err != nil {
			return nil, err
		}
		m.setups = append(m.setups, d.Seconds())
		if b < setupBoots-1 {
			f.stop()
		}
	}
	defer f.stop()

	warmResults, _ := runJobs(ctx, f.front.url(), warm, w.Clients)
	for i := range warmResults {
		if r := &warmResults[i]; r.readErr != nil || r.streamCode != 200 {
			return nil, fmt.Errorf("warm-up job %d: submit %d, stream %d, %v", i, r.submitCode, r.streamCode, r.readErr)
		}
	}
	before, err := f.sampleAll(ctx)
	if err != nil {
		return nil, err
	}
	m.results, m.wall = runJobs(ctx, f.front.url(), jobs, w.Clients)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("timed job list: %w", err)
	}
	after, err := f.sampleAll(ctx)
	if err != nil {
		return nil, err
	}
	for i := range after {
		a, b := after[i], before[i]
		m.cpu += a.proc.cpu - b.proc.cpu
		m.hwmKB += a.proc.hwmKB
		m.allocBytes += a.rt.allocBytes - b.rt.allocBytes
		m.gcCPU += a.rt.gcCPU - b.rt.gcCPU
		m.execNanos += a.metrics.Host.ExecNanosTotal - b.metrics.Host.ExecNanosTotal
		m.appends += a.metrics.Journal.Appends - b.metrics.Journal.Appends
		m.fsyncNanos += a.metrics.Journal.FsyncNanosTotal - b.metrics.Journal.FsyncNanosTotal
		m.dispatches += a.metrics.Coordinator.Dispatches - b.metrics.Coordinator.Dispatches
		m.failovers += a.metrics.Coordinator.Failovers - b.metrics.Coordinator.Failovers
	}
	for i := range m.results {
		m.records += strings.Count(string(m.results[i].stream), "\n")
	}
	return m, nil
}

// jobTimes lists, over the jobs that streamed at least one record, the
// milliseconds from submit to the chosen timestamp.
func jobTimes(results []jobResult, at func(*jobResult) time.Duration) []float64 {
	var out []float64
	for i := range results {
		r := &results[i]
		if r.last > 0 {
			out = append(out, float64(at(r)-r.submit)/1e6)
		}
	}
	return out
}

// endToEndMetrics fills the metrics a user of the service sees.
func endToEndMetrics(m *measured, res *result) {
	recs := float64(max(m.records, 1))
	jobMS := jobTimes(m.results, func(r *jobResult) time.Duration { return r.last })
	ttfr := jobTimes(m.results, func(r *jobResult) time.Duration { return r.first })
	set := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }
	set("records_per_s", float64(m.records)/m.wall.Seconds(), "records/s")
	set("job_ms_p50", quantile(jobMS, 0.5), "ms")
	set("job_ms_p90", quantile(jobMS, 0.9), "ms")
	set("ttfr_ms_p50", quantile(ttfr, 0.5), "ms")
	set("cpu_ms_per_record", float64(m.cpu)/1e6/recs, "ms")
	set("alloc_kb_per_record", m.allocBytes/1024/recs, "KB")
	set("peak_rss_mb", float64(m.hwmKB)/1024, "MB")
	set("setup_s", median(m.setups), "s")
	report("samples: job_ms %d jobs, ttfr_ms %d jobs, setup_s %d boots, records_per_s %d records over %.3f s",
		len(jobMS), len(ttfr), len(m.setups), m.records, m.wall.Seconds())
}

// layerMetrics fills the per-layer metrics: the daemons' own counters from
// the timed list, the exact counts of the records, and the in-process
// replays with their probes.
func layerMetrics(ctx context.Context, cfg config, dir string, jobs []Job, ref *reference, m *measured, res *result) error {
	w := cfg.workload
	c := ref.counts
	recs := float64(c.Records)

	st, err := replayAll(ctx, jobs, w.Fleet, dir)
	if err != nil {
		return err
	}
	tr, build := st.tr, st.build
	if err := tr.checkNesting(); err != nil {
		return err
	}
	acc := tr.account(st.traced)

	submitMS := jobTimes(m.results, func(r *jobResult) time.Duration { return r.accepted })
	runNS := float64(acc.Total["sweep.RunOne"] + acc.Total["campaign.RunOne"])
	set := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }
	set("server.submit_ms_p50", quantile(submitMS, 0.5), "ms")
	set("server.worker_busy_share", float64(m.execNanos)/(float64(m.wall)*simWorkers), "share")
	set("server.gc_cpu_share", ratio(m.gcCPU, m.cpu.Seconds()), "share")
	set("server.coord_dispatches_per_job", float64(m.dispatches)/float64(len(jobs)), "count")
	set("journal.appends_per_record", float64(m.appends)/recs, "count")
	set("journal.fsync_ms_mean", ratio(float64(m.fsyncNanos), float64(m.appends))/1e6, "ms")
	set("journal.ack_us_p50", median(tr.durations("journal.AckShard"))/1e3, "us")
	set("spec.parse_us_per_job", float64(acc.Total["spec.Parse"])/1e3/float64(len(jobs)), "us")
	set("spec.repeat_share", float64(c.RepeatPoints)/recs, "share")
	set("soc.build_ms_per_record", build.ns/1e6/recs, "ms")
	set("soc.build_kb_per_record", build.bytes/1024/recs, "KB")
	set("soc.build_share", ratio(build.ns, runNS), "share")
	set("hashtree.build_ms", median(st.tree)/1e6, "ms")
	set("sweep.run_ms_per_record", float64(acc.Total["sweep.RunOne"])/1e6/recs, "ms")
	set("campaign.run_ms_per_record", float64(acc.Total["campaign.RunOne"])/1e6/recs, "ms")
	set("sim.cycles_per_record", c.perRecord(c.EngineCycles), "cycles")
	set("sim.host_ns_per_cycle", ratio(runNS-build.ns, float64(c.EngineCycles)), "ns")
	set("cpu.stall_share", ratio(float64(c.StallCycles), float64(c.CoreCycles)), "share")
	set("core.lcf_checks_per_record", c.perRecord(c.LCFChecks), "count")
	set("core.lcf_access_us", median(st.lcf)/1e3, "us")
	set("recovery.windows_per_record", c.perRecord(c.Windows), "count")
	set("recovery.quarantined_share", ratio(float64(c.QuarantinedCycles), float64(c.AttackCycles)), "share")
	set("sweep.encode_us_per_record", float64(acc.Total["json.Marshal"])/1e3/recs, "us")
	set("sweep.record_kb", c.perRecord(c.RecordBytes)/1024, "KB")
	set("sweep.merge_us_per_record", float64(acc.Self["sweep.Merge"])/1e3/recs, "us")
	set("agg.fold_us_per_record", float64(acc.Total["agg.Sweep.Add"]+acc.Total["agg.Campaign.Add"])/1e3/recs, "us")
	set("bench.unaccounted_share", float64(acc.Unaccounted)/float64(acc.Wall), "share")
	set("bench.trace_overhead_share", float64(st.traced-st.untraced)/float64(st.untraced), "share")

	report("samples: submit_ms %d jobs, journal ack %d spans, build probes %d points, hashtree and lcf probes %d trials each",
		len(submitMS), acc.Count["journal.AckShard"], c.Records, len(st.tree))
	report("replay: untraced %.3f s, traced %.3f s, build probes %.3f s, %d spans",
		st.untraced.Seconds(), st.traced.Seconds(), build.ns/1e9, len(tr.spans))
	names := make([]string, 0, len(acc.Self))
	for n := range acc.Self {
		names = append(names, n)
	}
	sort.Strings(names)
	var sum time.Duration
	for _, n := range names {
		sum += acc.Self[n]
		report("self %-22s %10.3f ms %6.2f%% of wall (%d spans)", n,
			float64(acc.Self[n])/1e6, 100*float64(acc.Self[n])/float64(acc.Wall), acc.Count[n])
	}
	report("self %-22s %10.3f ms %6.2f%% of wall", "(unaccounted)",
		float64(acc.Unaccounted)/1e6, 100*float64(acc.Unaccounted)/float64(acc.Wall))
	report("self sum + unaccounted = %d ns, traced wall = %d ns", int64(sum+acc.Unaccounted), int64(acc.Wall))

	path := filepath.Join(cfg.work, fmt.Sprintf("trace-%s-seed%d.json", w.Name, cfg.seed))
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	err = tr.writeChrome(out, "perfbench replay "+w.Name, map[string]any{
		"workload": w.Name, "seed": cfg.seed, "jobs": len(jobs), "records": c.Records,
	})
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	report("trace %s", path)
	return nil
}
