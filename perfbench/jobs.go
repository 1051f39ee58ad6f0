package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"repro/internal/campaign"
	"repro/internal/spec"
	"repro/internal/sweep"
)

// Workload is one closed-loop traffic mix: which daemons serve it, how many
// clients submit, and the seeded generator of its spec bodies.
type Workload struct {
	Name string
	// Clients is the number of closed-loop clients; each submits its own
	// slice of the job list and waits for a job's last record before
	// submitting the next.
	Clients int
	// Fleet runs a journaled coordinator over two one-worker backends
	// instead of one journaled two-worker daemon.
	Fleet bool
	// JobsPerSecond sizes the fixed job list: a run of --seconds s holds
	// max(MinJobs, JobsPerSecond*s) jobs, about s seconds of work on a
	// 2-vCPU host.
	JobsPerSecond float64
	// gen makes job i's spec. Each generator rotates through Shapes job
	// shapes that set a job's cost, and job lists are a whole number of
	// rotations long, so lists of different seeds hold about the same work.
	gen    func(r *rng, i int) *spec.Spec
	Shapes int
}

// MinJobs is the smallest timed job list: enough that ten job latencies lie
// beyond the p90.
const MinJobs = 100

// workloads lists the benchmark's traffic mixes; README.md gives the reason
// for each.
var workloads = []*Workload{
	{
		// Small benign sweeps: the fixed per-record cost (platform build,
		// journal fsync, HTTP flush) dominates, and two clients contend for
		// the worker pool and the journal mutex. BENCHMARK.json does not
		// gate it: its timings follow the host's memory latency and drift
		// beyond the largest bound (README.md, Host noise).
		Name:          "sweep-churn",
		Clients:       2,
		JobsPerSecond: 30,
		gen:           churnSpec,
		Shapes:        len(churnShapes),
	},
	{
		// Attack campaigns under external-memory load: simulation behind
		// the LCF's CC/IC pipeline dominates.
		Name:          "campaign-secmem",
		Clients:       1,
		JobsPerSecond: 10,
		gen:           secmemSpec,
		Shapes:        len(secmemShapes),
	},
	{
		// Recovery campaigns through the coordinator: dispatch, shard merge
		// and large records.
		Name:          "fleet-recovery",
		Clients:       1,
		Fleet:         true,
		JobsPerSecond: 12.6,
		gen:           recoverySpec,
		Shapes:        len(recoveryPairs),
	},
}

// lookupWorkload returns the named workload.
func lookupWorkload(name string) (*Workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// Job is one spec submission of a run.
type Job struct {
	// ID is the job's position in its list.
	ID int
	// Client is the closed-loop client that submits it.
	Client int
	// Body is the spec document exactly as POSTed.
	Body []byte
}

// jobCount is the timed job list's length for a run of the given seconds.
func (w *Workload) jobCount(seconds int) int {
	n := max(MinJobs, int(math.Round(w.JobsPerSecond*float64(seconds))))
	return (n + w.Shapes - 1) / w.Shapes * w.Shapes
}

// warmupCount is the untimed warm-up list's length: about a twentieth of
// the timed list.
func (w *Workload) warmupCount(seconds int) int {
	return max(2*w.Clients, w.jobCount(seconds)/20)
}

// Jobs generates n jobs of the workload from seed. The stream name keeps
// the timed list and the warm-up list of one seed apart. The same (seed,
// stream, n) always yields byte-identical bodies.
func (w *Workload) Jobs(seed uint64, stream string, n int) ([]Job, error) {
	r := newRNG(seed, w.Name+"/"+stream)
	jobs := make([]Job, n)
	for i := range jobs {
		body, err := w.gen(r, i).JSON()
		if err != nil {
			return nil, err
		}
		jobs[i] = Job{ID: i, Client: i % w.Clients, Body: body}
	}
	return jobs, nil
}

// churnWorkloads are the sweep kernels whose cost scales with accesses; all
// of them run on one core.
var churnWorkloads = []string{"memcopy", "stream", "scrub", "mix"}

// churnShapes rotate over the job list, so every seed's list has the same
// grid sizes: kernel count x core counts x 3 protections x 4 targets is 24
// to 96 points.
var churnShapes = []struct {
	kernels int
	cores   []int
}{
	{2, []int{1}}, {1, []int{1, 2}}, {3, []int{2}}, {4, []int{1}},
	{2, []int{1, 2}}, {4, []int{1, 2}}, {3, []int{1}}, {2, []int{2}},
}

// churnSpec is a tiny benign sweep over every protection and target, of at
// most 32 accesses on one or two cores.
func churnSpec(r *rng, i int) *spec.Spec {
	sh := churnShapes[i%len(churnShapes)]
	return spec.NewSweep(spec.SweepSpec{
		Protections: spec.ProtectionNames(),
		Workloads:   r.subset(churnWorkloads, sh.kernels),
		Targets:     sweep.TargetNames(),
		Cores:       sh.cores,
		Accesses:    8 + r.intn(25),
		Compute:     2 + r.intn(7),
	})
}

// secmemScenarios are the attacks a distributed platform detects.
var secmemScenarios = []string{
	"tamper", "replay", "relocation", "spoof", "zone-escape",
	"dma-hijack", "format-abuse", "dos-flood", "burst-flood",
}

// secmemShapes rotate the protections and the external-memory backgrounds,
// which set a campaign point's cost: 4, 8, 6 and 12 points with two
// scenarios. Every background routes its traffic through the Local
// Ciphering Firewall, and secure-scrub rides in every job.
var secmemShapes = []struct {
	prots, backgrounds []string
}{
	{[]string{"distributed"}, []string{"secure-stream", "secure-scrub"}},
	{[]string{"distributed", "centralized"}, []string{"secure-scrub", "cipher-mix"}},
	{[]string{"distributed"}, []string{"secure-stream", "secure-scrub", "cipher-mix"}},
	{[]string{"distributed", "centralized"}, []string{"secure-stream", "secure-scrub", "cipher-mix"}},
}

// secmemSpec is an attack campaign of two scenarios under 128 to 512
// accesses of external-memory background load.
func secmemSpec(r *rng, i int) *spec.Spec {
	sh := secmemShapes[i%len(secmemShapes)]
	return spec.NewCampaign(spec.CampaignSpec{
		Scenarios:   r.subset(secmemScenarios, 2),
		Protections: sh.prots,
		Cores:       []int{3},
		Backgrounds: sh.backgrounds,
		Accesses:    128 + 8*r.intn(49),
		InjectDelay: 100,
	})
}

// recoveryPairs are the scenario pairs of the recovery workload, rotated
// over the job list; dos-flood's never-ending flood makes its pairs the
// dearest.
var recoveryPairs = [][]string{
	{"burst-flood", "zone-escape"}, {"dos-flood", "dma-hijack"}, {"burst-flood", "dos-flood"},
	{"zone-escape", "dma-hijack"}, {"burst-flood", "dma-hijack"}, {"zone-escape", "dos-flood"},
}

// recoverySpec is a four-point recovery-phase campaign with a staged
// release schedule, on an internal and an external-memory background.
func recoverySpec(r *rng, i int) *spec.Spec {
	return spec.NewCampaign(spec.CampaignSpec{
		Scenarios:   recoveryPairs[i%len(recoveryPairs)],
		Protections: []string{"distributed"},
		Cores:       []int{3},
		Backgrounds: []string{"stream", "secure-scrub"},
		Accesses:    96 + r.intn(65),
		InjectDelay: 100,
		Recovery: &spec.RecoverySpec{
			Enabled:    true,
			Staged:     true,
			ClearDelay: 1500 + 500*uint64(r.intn(4)),
		},
	})
}

// parsedJob is a job body decoded the way the daemon decodes it: exactly
// one of the grids is set.
type parsedJob struct {
	sweep    []sweep.Config
	campaign []campaign.Config
}

func (p *parsedJob) points() int { return len(p.sweep) + len(p.campaign) }

// parseJob runs spec.Parse and Grid on a job body.
func parseJob(body []byte) (*parsedJob, error) {
	sp, err := spec.Parse(body)
	if err != nil {
		return nil, err
	}
	p := &parsedJob{}
	if sp.Kind == spec.KindSweep {
		p.sweep, err = sp.Sweep.Grid()
	} else {
		p.campaign, err = sp.Campaign.Grid()
	}
	return p, err
}

// rng is a splitmix64 generator: tiny, and stable across Go releases, so a
// seed names the same job list forever.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream string) *rng {
	h := fnv.New64a()
	h.Write([]byte(stream))
	return &rng{s: seed*0x9E3779B97F4A7C15 ^ h.Sum64()}
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// subset picks k distinct names, kept in the list's canonical order.
func (r *rng) subset(names []string, k int) []string {
	idx := make([]int, len(names))
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + r.intn(len(idx)-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	idx = idx[:k]
	sort.Ints(idx)
	out := make([]string, k)
	for i, x := range idx {
		out[i] = names[x]
	}
	return out
}
