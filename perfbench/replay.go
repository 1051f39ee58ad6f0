package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime/metrics"
	"slices"
	"time"

	"repro/internal/agg"
	"repro/internal/bus"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/hashtree"
	"repro/internal/journal"
	"repro/internal/mem"
	"repro/internal/soc"
	"repro/internal/sweep"
)

// replayer re-executes jobs in-process, one call at a time, along the path
// the daemon takes for each job:
//
//	spec.Parse → journal.Accept → RunOne → json.Marshal → journal.AckShard
//	→ agg.*.Add per record → journal.Term
//
// and, for a fleet, every backend's parse and shard run followed by the
// coordinator's sweep.Merge, whose output sink decodes, folds and journals
// each merged line. With a tracer every call is a span; with nil the same
// code runs untimed.
type replayer struct {
	tr    *tracer
	jn    *journal.Journal
	fleet bool
}

// newReplayer opens a replayer journaling into a fresh directory.
func newReplayer(dir string, fleet bool, tr *tracer) (*replayer, error) {
	jn, err := journal.Open(dir, journal.Options{NowNanos: func() int64 { return time.Now().UnixNano() }})
	if err != nil {
		return nil, err
	}
	return &replayer{tr: tr, jn: jn, fleet: fleet}, nil
}

// job replays one job.
func (r *replayer) job(job Job) error {
	tr := r.tr
	id := fmt.Sprintf("job-%04d", job.ID+1)
	p, err := tracedParse(tr, job.Body)
	if err != nil {
		return err
	}
	sp := tr.begin("journal.Accept")
	err = r.jn.Accept(id, job.Body, journal.SubmitOpts{Workers: 2, Shard: "0/1", Mode: "stream"})
	tr.end(sp)
	if err != nil {
		return err
	}
	if r.fleet {
		err = r.fleetJob(id, job.Body, p)
	} else {
		err = r.localJob(id, p)
	}
	if err != nil {
		return err
	}
	sp = tr.begin("journal.Term")
	err = r.jn.Term(id, "done", "")
	tr.end(sp)
	return err
}

func tracedParse(tr *tracer, body []byte) (*parsedJob, error) {
	sp := tr.begin("spec.Parse")
	defer tr.end(sp)
	return parseJob(body)
}

// folder is one job's online aggregate, either kind.
type folder struct {
	camp agg.Campaign
	swp  agg.Sweep
}

// runPoint runs grid point i and encodes its record line.
func runPoint(tr *tracer, p *parsedJob, i int) (any, []byte, error) {
	var rec any
	if p.sweep != nil {
		sp := tr.begin("sweep.RunOne")
		r := sweep.RunOne(p.sweep[i])
		tr.end(sp)
		r.Index = i
		rec = r
	} else {
		sp := tr.begin("campaign.RunOne")
		r := campaign.RunOne(p.campaign[i])
		tr.end(sp)
		r.Index = i
		rec = r
	}
	sp := tr.begin("json.Marshal")
	line, err := json.Marshal(rec)
	tr.end(sp)
	return rec, line, err
}

// fold adds one record to the job's aggregate.
func (f *folder) fold(tr *tracer, rec any) {
	switch r := rec.(type) {
	case sweep.RunResult:
		sp := tr.begin("agg.Sweep.Add")
		f.swp.Add(r)
		tr.end(sp)
	case campaign.Record:
		sp := tr.begin("agg.Campaign.Add")
		f.camp.Add(r)
		tr.end(sp)
	}
}

// localJob is one daemon running the whole grid.
func (r *replayer) localJob(id string, p *parsedJob) error {
	tr := r.tr
	var f folder
	for i := 0; i < p.points(); i++ {
		rec, line, err := runPoint(tr, p, i)
		if err != nil {
			return err
		}
		sp := tr.begin("journal.AckShard")
		err = r.jn.AckShard(id, i, line)
		tr.end(sp)
		if err != nil {
			return err
		}
		f.fold(tr, rec)
	}
	return nil
}

// fleetShards is the coordinator's split: one shard per backend.
const fleetShards = 2

// fleetJob is the coordinator path: each backend parses the forwarded spec
// and streams its cost-balanced shard, then the coordinator merges the
// shard streams.
func (r *replayer) fleetJob(id string, body []byte, p *parsedJob) error {
	tr := r.tr
	weights := campaign.Weights(p.campaign)
	if p.sweep != nil {
		weights = sweep.Weights(p.sweep)
	}
	shards := make([]bytes.Buffer, fleetShards)
	for s := range shards {
		bp, err := tracedParse(tr, body)
		if err != nil {
			return err
		}
		var f folder
		for _, i := range (sweep.Shard{Index: s, Count: fleetShards}).Slice(bp.points(), weights) {
			rec, line, err := runPoint(tr, bp, i)
			if err != nil {
				return err
			}
			shards[s].Write(line)
			shards[s].WriteByte('\n')
			f.fold(tr, rec)
		}
	}
	sink := &mergeSink{tr: tr, jn: r.jn, id: id, sweep: p.sweep != nil}
	sp := tr.begin("sweep.Merge")
	err := sweep.Merge(sink, &shards[0], &shards[1])
	tr.end(sp)
	return err
}

// mergeSink is the coordinator's merge output: per merged line it decodes
// the grid index and journals the line, then decodes the record and folds it.
type mergeSink struct {
	tr    *tracer
	jn    *journal.Journal
	id    string
	sweep bool
	f     folder
}

func (m *mergeSink) Write(p []byte) (int, error) {
	line := bytes.TrimSuffix(p, []byte("\n"))
	var hdr struct {
		Index int `json:"index"`
	}
	sp := m.tr.begin("json.Unmarshal")
	err := json.Unmarshal(line, &hdr)
	m.tr.end(sp)
	if err != nil {
		return 0, err
	}
	sp = m.tr.begin("journal.AckShard")
	err = m.jn.AckShard(m.id, hdr.Index, line)
	m.tr.end(sp)
	if err != nil {
		return 0, err
	}
	if m.sweep {
		sp = m.tr.begin("agg.Sweep.Add")
		var rec sweep.RunResult
		if err = json.Unmarshal(line, &rec); err == nil {
			m.f.swp.Add(rec)
		}
	} else {
		sp = m.tr.begin("agg.Campaign.Add")
		var rec campaign.Record
		if err = json.Unmarshal(line, &rec); err == nil {
			m.f.camp.Add(rec)
		}
	}
	m.tr.end(sp)
	if err != nil {
		return 0, err
	}
	return len(p), nil
}

// replayStats is what the traced run's replays and probes measured.
type replayStats struct {
	tr *tracer
	// untraced sums the untraced job replays; traced sums the traced ones
	// and equals the tracer's clock.
	untraced, traced time.Duration
	// build sums one platform-build probe per grid point.
	build buildProbe
	// tree and lcf are the hashtree and LCF probe trials, in nanoseconds.
	tree, lcf []float64
}

// probeTrials is how many hashtree and LCF probe trials a traced run
// makes; their medians are reported.
const probeTrials = 7

// replayAll replays every job twice, untraced and traced, back to back and
// in alternating order, then probes the platform build of each of the job's
// grid points. Both sides of each comparison the per-layer metrics make
// (traced against untraced, RunOne against its build) are thus timed
// within one job's replay of each other, and drift in the host's speed
// cancels out. The hashtree and LCF probe trials are spread evenly over the
// job list.
func replayAll(ctx context.Context, jobs []Job, fleet bool, dir string) (*replayStats, error) {
	st := &replayStats{tr: newTracer()}
	plain, err := newReplayer(filepath.Join(dir, "replay-untraced"), fleet, nil)
	if err != nil {
		return nil, err
	}
	defer plain.jn.Close()
	traced, err := newReplayer(filepath.Join(dir, "replay-traced"), fleet, st.tr)
	if err != nil {
		return nil, err
	}
	defer traced.jn.Close()
	for k, job := range jobs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sides := []func() error{
			func() error {
				t0 := time.Now()
				err := plain.job(job)
				st.untraced += time.Since(t0)
				return err
			},
			func() error {
				st.tr.setJob(job.ID)
				st.tr.resume()
				err := traced.job(job)
				st.tr.pause()
				return err
			},
		}
		if k%2 == 1 {
			sides[0], sides[1] = sides[1], sides[0]
		}
		for _, side := range sides {
			if err := side(); err != nil {
				return nil, fmt.Errorf("replaying job %d: %w", job.ID, err)
			}
		}
		p, err := parseJob(job.Body)
		if err != nil {
			return nil, err
		}
		if err := st.build.probeAll(p); err != nil {
			return nil, err
		}
		if len(st.tree) < probeTrials && k >= len(st.tree)*len(jobs)/probeTrials {
			tree, err := probeHashtree()
			if err != nil {
				return nil, err
			}
			lcf, err := probeLCFAccess(len(st.lcf))
			if err != nil {
				return nil, err
			}
			st.tree = append(st.tree, float64(tree))
			st.lcf = append(st.lcf, float64(lcf))
		}
	}
	st.traced = st.tr.elapsed
	return st, nil
}

// buildProbe is the cost of building grid points' platforms.
type buildProbe struct {
	ns    float64 // wall time
	bytes float64 // heap bytes allocated
}

// heapAllocs reads the process's cumulative heap allocation.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// socBuild is the platform build RunOne performs for a grid point: soc.New
// for a sweep point, soc.NewPair (with the reactor armed when the recovery
// phase is on) for a campaign point.
type socBuild struct {
	cfg  soc.Config
	pair bool
}

func sweepBuild(c sweep.Config) socBuild {
	return socBuild{cfg: soc.Config{Protection: c.Protection, NumCores: c.Normalize().NumCores}}
}

func campaignBuild(c campaign.Config) socBuild {
	c = c.Normalize()
	b := socBuild{cfg: soc.Config{Protection: c.Protection, NumCores: c.NumCores}, pair: true}
	if c.Recovery.Enabled() {
		b.cfg.QuarantineThreshold = c.Recovery.QuarantineThreshold
		b.cfg.QuarantineWindow = c.Recovery.QuarantineWindow
	}
	return b
}

// probe builds the platform once and adds its cost to sum.
func (b socBuild) probe(sum *buildProbe) error {
	a0 := heapAllocs()
	t0 := time.Now()
	var err error
	if b.pair {
		_, err = soc.NewPair(b.cfg)
	} else {
		_, err = soc.New(b.cfg)
	}
	sum.ns += float64(time.Since(t0))
	sum.bytes += float64(heapAllocs() - a0)
	return err
}

// probeAll probes the platform build of every grid point of a job.
func (sum *buildProbe) probeAll(p *parsedJob) error {
	for _, c := range p.sweep {
		if err := sweepBuild(c).probe(sum); err != nil {
			return err
		}
	}
	for _, c := range p.campaign {
		if err := campaignBuild(c).probe(sum); err != nil {
			return err
		}
	}
	return nil
}

// probeHashtree times hashtree.New plus Build over the platform's 32 KiB
// secure zone: the integrity tree every distributed platform seals at build.
func probeHashtree() (time.Duration, error) {
	st := mem.NewDDR("ddr", soc.DDRBase, soc.DDRSize).Store()
	t0 := time.Now()
	t, err := hashtree.New(hashtree.Config{Store: st, DataBase: soc.SecureBase,
		DataSize: soc.SecureSize, NodeBase: soc.NodeBase, CacheSize: 64})
	if err != nil {
		return 0, err
	}
	t.Build()
	return time.Since(t0), nil
}

// probeLCFAccess times core.CipherFirewall.Access: one 32-byte leaf read
// plus its write-back through the CC/IC pipeline, walking the whole secure
// zone of a freshly sealed firewall. It returns the mean time per
// read+write pair; trial varies the data written.
func probeLCFAccess(trial int) (time.Duration, error) {
	ddr := mem.NewDDR("ddr", soc.DDRBase, soc.DDRSize)
	zone := core.Zone{Base: soc.SecureBase, Size: soc.SecureSize}
	cm := core.MustConfig(core.Policy{SPI: 300, Zone: zone, RWA: core.ReadWrite,
		ADF: core.AnyWidth, CM: true, IM: true, Key: soc.SecureKey})
	lcf, err := core.NewCipherFirewall(core.LCFConfig{Name: "lcf-ddr", IntegrityZone: zone,
		NodeBase: soc.NodeBase}, ddr, ddr.Store(), cm, core.NewAlertLog())
	if err != nil {
		return 0, err
	}
	lcf.Seal()
	const leafWords = hashtree.LeafSize / 4
	leaves := soc.SecureSize / hashtree.LeafSize
	rd := &bus.Transaction{Master: "cpu0", Op: bus.Read, Size: 4, Burst: leafWords, Data: make([]uint32, leafWords)}
	wr := &bus.Transaction{Master: "cpu0", Op: bus.Write, Size: 4, Burst: leafWords, Data: make([]uint32, leafWords)}
	t0 := time.Now()
	for i := 0; i < leaves; i++ {
		rd.Addr = soc.SecureBase + uint32(i*hashtree.LeafSize)
		wr.Addr = rd.Addr
		if _, resp := lcf.Access(0, rd); resp != bus.RespOK {
			return 0, fmt.Errorf("lcf read: %v", resp)
		}
		copy(wr.Data, rd.Data)
		wr.Data[0] = uint32(trial)
		if _, resp := lcf.Access(0, wr); resp != bus.RespOK {
			return 0, fmt.Errorf("lcf write: %v", resp)
		}
	}
	return time.Since(t0) / time.Duration(leaves), nil
}

// median of a sample; 0 when empty.
func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile is the q-th quantile by linear interpolation between order
// statistics; 0 when empty.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
