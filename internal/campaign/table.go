package campaign

import (
	"fmt"
	"io"
	"strconv"

	"repro/internal/sweep"
	"repro/internal/trace"
)

// WriteTable runs this shard's portion of the grid and renders the paper's
// detection matrix: one row per (scenario, background, cores) grid line,
// one column per protection, each cell summarizing detection, attribution
// and containment — plus a bystander-cost table from the twin-run
// measurements and, when the reaction-and-recovery phase ran, the
// incident-lifecycle table (react latency, quarantine duration, recovery
// time back to twin throughput).
func WriteTable(w io.Writer, grid []Config, sh sweep.Shard, workers int) error {
	// The matrix needs the whole (sharded) grid in hand; campaign grids
	// are small (scenarios x protections x a few axes), so buffering here
	// is fine — large runs should use jsonl/csv.
	var recs []Record
	if err := Each(grid, sh, workers, func(r Record) error {
		recs = append(recs, r)
		return nil
	}); err != nil {
		return err
	}

	// Preserve first-seen axis order from the deterministic grid.
	type line struct {
		scenario, background string
		cores                int
	}
	var lines []line
	var prots []string
	seenLine := map[line]bool{}
	seenProt := map[string]bool{}
	cell := map[line]map[string]Record{}
	for _, r := range recs {
		l := line{r.Scenario, r.Background, r.NumCores}
		if !seenLine[l] {
			seenLine[l] = true
			lines = append(lines, l)
			cell[l] = map[string]Record{}
		}
		if !seenProt[r.Protection] {
			seenProt[r.Protection] = true
			prots = append(prots, r.Protection)
		}
		cell[l][r.Protection] = r
	}

	withRecovery := len(grid) > 0 && grid[0].Recovery.Enabled()
	cols := append([]string{"scenario", "background", "cores"}, prots...)
	dt := trace.NewTable("containment matrix — detection / attribution", cols...)
	st := trace.NewTable("bystander cost — background slowdown vs attack-free twin", cols...)
	rt := trace.NewTable("reaction & recovery — quarantine / release / back to twin throughput", cols...)
	for _, l := range lines {
		drow := []string{l.scenario, l.background, strconv.Itoa(l.cores)}
		srow := append([]string(nil), drow...)
		rrow := append([]string(nil), drow...)
		for _, p := range prots {
			r, ok := cell[l][p]
			if !ok {
				drow, srow, rrow = append(drow, "-"), append(srow, "-"), append(rrow, "-")
				continue
			}
			drow = append(drow, verdictCell(r))
			if r.TwinCycles == 0 {
				srow = append(srow, "-")
			} else {
				srow = append(srow, fmt.Sprintf("%.2fx", r.Slowdown))
			}
			rrow = append(rrow, recoveryCell(r))
		}
		dt.AddRow(drow...)
		st.AddRow(srow...)
		rt.AddRow(rrow...)
	}
	for i, tb := range []*trace.Table{dt, st, rt} {
		if i == 2 && !withRecovery {
			break
		}
		if i > 0 {
			if _, err := io.WriteString(w, "\n"); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, tb.String()); err != nil {
			return err
		}
	}
	return nil
}

// recoveryCell compresses one record's incident lifecycle into a cell of
// the reaction table.
func recoveryCell(r Record) string {
	switch {
	case r.Err != "":
		return "error: " + r.Err
	case !r.RecoveryOn:
		return "-"
	case r.QuarantineCycle == 0:
		return "no quarantine"
	case r.ReleaseCycle == 0:
		return fmt.Sprintf("react +%dcy, still quarantined", r.ReactLatency)
	case r.Recovered:
		return fmt.Sprintf("react +%dcy, quar %dcy, recovered +%dcy",
			r.ReactLatency, r.QuarantinedCycles, r.RecoveryCycles)
	default:
		return fmt.Sprintf("react +%dcy, quar %dcy, NOT recovered",
			r.ReactLatency, r.QuarantinedCycles)
	}
}

// verdictCell compresses one record into a matrix cell.
func verdictCell(r Record) string {
	switch {
	case r.Err != "":
		return "error: " + r.Err
	case r.Detected && r.Contained:
		return fmt.Sprintf("caught by %s +%dcy", r.DetectedBy, r.DetectLatency)
	case r.Detected:
		return fmt.Sprintf("alert only (%s) — goal met", r.DetectedBy)
	case r.Contained:
		return "contained (no alert)"
	default:
		return "ATTACK SUCCEEDED"
	}
}
