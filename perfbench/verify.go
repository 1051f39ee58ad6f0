package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/soc"
	"repro/internal/sweep"
)

// reference is the in-process expectation for a job list: every job's
// record lines, as RunOne plus json.Marshal produce them, and the exact
// counts of the simulated work.
type reference struct {
	// lines[j][i] is job j's record at grid index i, without the newline.
	lines  [][][]byte
	counts exactCounts
}

// exactCounts are deterministic properties of a job list's records: they
// repeat exactly from run to run and move only when the model changes.
type exactCounts struct {
	Jobs    int `json:"jobs"`
	Records int `json:"records"`
	// RepeatPoints counts grid points whose configuration already appeared
	// earlier in the job list.
	RepeatPoints int `json:"repeat_points"`
	// EngineCycles sums the simulated cycles every record's engines ran.
	EngineCycles uint64 `json:"engine_cycles"`
	// CoreCycles and StallCycles sum the records' per-core counters.
	CoreCycles  uint64 `json:"core_cycles"`
	StallCycles uint64 `json:"stall_cycles"`
	// LCFChecks sums the lcf-ddr firewall's policy checks.
	LCFChecks uint64 `json:"lcf_checks"`
	// Windows sums the recovery throughput windows.
	Windows uint64 `json:"windows"`
	// QuarantinedCycles and AttackCycles sum the campaign fields.
	QuarantinedCycles uint64 `json:"quarantined_cycles"`
	AttackCycles      uint64 `json:"attack_cycles"`
	// RecordBytes sums the record lines, newlines included.
	RecordBytes uint64 `json:"record_bytes"`
	// Detected and Recovered count records with those verdicts.
	Detected  int `json:"detected"`
	Recovered int `json:"recovered"`
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func (c exactCounts) perRecord(v uint64) float64 { return ratio(float64(v), float64(c.Records)) }

// dedup assigns each configuration the index of its first occurrence in a
// distinct list; equal configurations simulate to equal records.
type dedup[C any] struct {
	index    map[string]int
	distinct []C
	repeats  int
}

func (d *dedup[C]) add(c C) int {
	key := fmt.Sprintf("%T%+v", c, c)
	if i, ok := d.index[key]; ok {
		d.repeats++
		return i
	}
	if d.index == nil {
		d.index = map[string]int{}
	}
	d.index[key] = len(d.distinct)
	d.distinct = append(d.distinct, c)
	return len(d.distinct) - 1
}

// refLines runs every distinct configuration on a pool of workers and
// returns its record line, at grid index 0.
func refLines[C any](d *dedup[C], workers int, run func(C) ([]byte, error)) ([][]byte, error) {
	lines := make([][]byte, len(d.distinct))
	errs := make([]error, len(d.distinct))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				lines[i], errs[i] = run(d.distinct[i])
			}
		}()
	}
	for i := range d.distinct {
		next <- i
	}
	close(next)
	wg.Wait()
	return lines, errors.Join(errs...)
}

// withIndex rewrites a record line's leading grid index, which every
// record type marshals first.
func withIndex(line []byte, i int) ([]byte, error) {
	const zero = `{"index":0,`
	if !bytes.HasPrefix(line, []byte(zero)) {
		return nil, fmt.Errorf("record line does not start with its index: %.40s", line)
	}
	return append([]byte(`{"index":`+strconv.Itoa(i)+`,`), line[len(zero):]...), nil
}

// buildReference computes the expected stream of every job. Each distinct
// grid point is simulated once, on the given number of workers.
func buildReference(jobs []Job, workers int) (*reference, error) {
	parsed := make([]*parsedJob, len(jobs))
	var sw dedup[sweep.Config]
	var cp dedup[campaign.Config]
	slots := make([][]int, len(jobs))
	for j, job := range jobs {
		p, err := parseJob(job.Body)
		if err != nil {
			return nil, fmt.Errorf("job %d: %w", j, err)
		}
		parsed[j] = p
		for _, c := range p.sweep {
			slots[j] = append(slots[j], sw.add(c))
		}
		for _, c := range p.campaign {
			slots[j] = append(slots[j], cp.add(c))
		}
	}
	slines, err := refLines(&sw, workers, func(c sweep.Config) ([]byte, error) {
		return json.Marshal(sweep.RunOne(c))
	})
	if err != nil {
		return nil, err
	}
	clines, err := refLines(&cp, workers, func(c campaign.Config) ([]byte, error) {
		return json.Marshal(campaign.RunOne(c))
	})
	if err != nil {
		return nil, err
	}
	srecs := make([]sweep.RunResult, len(slines))
	for i, line := range slines {
		if err := json.Unmarshal(line, &srecs[i]); err != nil {
			return nil, err
		}
	}
	crecs := make([]campaign.Record, len(clines))
	for i, line := range clines {
		if err := json.Unmarshal(line, &crecs[i]); err != nil {
			return nil, err
		}
	}

	ref := &reference{lines: make([][][]byte, len(jobs))}
	c := &ref.counts
	c.Jobs = len(jobs)
	c.RepeatPoints = sw.repeats + cp.repeats
	for j, p := range parsed {
		for i, slot := range slots[j] {
			var line []byte
			var err error
			if p.sweep != nil {
				c.addSweep(srecs[slot])
				line, err = withIndex(slines[slot], i)
			} else {
				c.addCampaign(crecs[slot], p.campaign[i])
				line, err = withIndex(clines[slot], i)
			}
			if err != nil {
				return nil, err
			}
			c.Records++
			c.RecordBytes += uint64(len(line) + 1)
			ref.lines[j] = append(ref.lines[j], line)
		}
	}
	return ref, nil
}

func (c *exactCounts) addSweep(r sweep.RunResult) {
	c.EngineCycles += r.Cycles
	c.addPlatform(r.Cores, r.Firewalls)
}

func (c *exactCounts) addCampaign(r campaign.Record, cfg campaign.Config) {
	// Both halves of the twin pair ran from cycle 0 to background start,
	// then for their measured windows.
	start := r.InjectCycle - cfg.Normalize().InjectDelay
	c.EngineCycles += 2*start + r.AttackCycles + r.TwinCycles
	c.Windows += uint64(len(r.Windows))
	c.QuarantinedCycles += r.QuarantinedCycles
	c.AttackCycles += r.AttackCycles
	if r.Detected {
		c.Detected++
	}
	if r.Recovered {
		c.Recovered++
	}
	c.addPlatform(r.Cores, r.Firewalls)
}

func (c *exactCounts) addPlatform(cores []soc.CoreStat, fws []core.Snapshot) {
	for _, st := range cores {
		c.CoreCycles += st.Cycles
		c.StallCycles += st.StallCycles
	}
	for _, fw := range fws {
		if fw.ID == "lcf-ddr" {
			c.LCFChecks += fw.Checked
		}
	}
}

// countFailures verifies every job against the reference and returns the
// number that failed, with the reasons of the first few.
func countFailures(results []jobResult, ref *reference) (int, []error) {
	failed := 0
	var reasons []error
	for i := range results {
		if err := verifyJob(&results[i], ref.lines[i]); err != nil {
			failed++
			if len(reasons) < 5 {
				reasons = append(reasons, fmt.Errorf("job %d: %w", i, err))
			}
		}
	}
	return failed, reasons
}

// verifyJob reports why a job failed, or nil: a refused submit, a stream
// that is not 200 or ends early, a record carrying an error, or any byte
// that differs from the reference.
func verifyJob(r *jobResult, want [][]byte) error {
	if r.submitCode != http.StatusCreated {
		if r.readErr != nil {
			return fmt.Errorf("submit: %v", r.readErr)
		}
		return fmt.Errorf("submit refused with status %d", r.submitCode)
	}
	if r.streamCode != http.StatusOK {
		if r.readErr != nil {
			return fmt.Errorf("stream: %v", r.readErr)
		}
		return fmt.Errorf("stream status %d", r.streamCode)
	}
	if r.readErr != nil {
		return fmt.Errorf("stream ended early: %v", r.readErr)
	}
	if r.gridSize != len(want) {
		return fmt.Errorf("daemon reports grid size %d, want %d", r.gridSize, len(want))
	}
	return checkStream(r.stream, want)
}

// checkStream compares one job's JSONL stream with the reference lines.
func checkStream(stream []byte, want [][]byte) error {
	if len(stream) > 0 && stream[len(stream)-1] != '\n' {
		return fmt.Errorf("stream ends mid-record")
	}
	lines := bytes.Split(bytes.TrimSuffix(stream, []byte("\n")), []byte("\n"))
	if len(stream) == 0 {
		lines = nil
	}
	for i, line := range lines {
		var hdr struct {
			Index int    `json:"index"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal(line, &hdr); err != nil {
			return fmt.Errorf("record %d: %v", i, err)
		}
		if hdr.Error != "" {
			return fmt.Errorf("record %d carries error %q", i, hdr.Error)
		}
		if hdr.Index != i {
			return fmt.Errorf("record %d has index %d", i, hdr.Index)
		}
		if i >= len(want) {
			return fmt.Errorf("stream has %d records, want %d", len(lines), len(want))
		}
		if !bytes.Equal(line, want[i]) {
			return fmt.Errorf("record %d differs from the in-process reference", i)
		}
	}
	if len(lines) != len(want) {
		return fmt.Errorf("stream ended early: %d of %d records", len(lines), len(want))
	}
	return nil
}

// digest hashes every job's stream in job order: two commits that simulate
// identically print the same digest for the same seed.
func digest(results []jobResult) string {
	h := sha256.New()
	for i := range results {
		h.Write(results[i].stream)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// vacuous reports why a workload's records would not exercise what the
// workload exists for, or "".
func vacuous(w *Workload, c exactCounts) string {
	switch w.Name {
	case "campaign-secmem":
		if c.Detected == 0 {
			return "no campaign record detected its attack"
		}
	case "fleet-recovery":
		if c.Recovered == 0 {
			return `no record carries "recovered":true`
		}
	}
	return ""
}
