package main

import (
	"context"
	"fmt"
	"io"
	"os"

	"repro/internal/campaign"
	"repro/internal/obs"
	"repro/internal/spec"
	"repro/internal/sweep"
)

// buildCampaignGrid constructs the attack-campaign grid through the spec
// layer — the same grid an mpsocd-submitted spec produces (validation
// errors carry spec field paths like "campaign.scenarios[2]").
func buildCampaignGrid(o *options) ([]campaign.Config, error) {
	sp, err := o.resolveSpec(spec.KindCampaign)
	if err != nil {
		return nil, err
	}
	return sp.Campaign.Grid()
}

// runAttack executes the campaign grid (or merges shard files) and streams
// the report to w.
func runAttack(o *options, w io.Writer) error {
	if o.merge != "" {
		if o.traceFile != "" {
			return fmt.Errorf("-trace requires running the campaign (mutually exclusive with -merge)")
		}
		if o.format != "jsonl" {
			return fmt.Errorf("-merge only supports JSONL shard streams (got -format %s)", o.format)
		}
		return mergeShards(o.merge, w)
	}
	var write func(io.Writer, []campaign.Config, sweep.Shard, int) error
	switch o.format {
	case "jsonl":
		write = campaign.WriteJSONL
	case "csv":
		write = campaign.WriteCSV
	case "table":
		write = campaign.WriteTable
	default:
		return fmt.Errorf("unknown attack format %q (want jsonl, csv or table)", o.format)
	}
	if o.traceFile != "" && o.format != "jsonl" {
		return fmt.Errorf("-trace requires -format jsonl in attack mode (got %s)", o.format)
	}
	grid, err := buildCampaignGrid(o)
	if err != nil {
		return err
	}
	sh, err := sweep.ParseShard(o.shard)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "attack: shard %s of %d campaign runs (%s)\n", sh, len(grid), o.format)
	if o.traceFile != "" {
		return runAttackTraced(o, w, grid, sh)
	}
	return write(w, grid, sh, o.workers)
}

// runAttackTraced streams the campaign's JSONL to w while appending every
// run's incident trace to -trace as one Chrome process (pid = global grid
// index + 1, name = the grid point). Records and traces ride the same
// index-ordered pipeline, so both files are byte-identical across worker
// counts.
func runAttackTraced(o *options, w io.Writer, grid []campaign.Config, sh sweep.Shard) error {
	f, err := os.Create(o.traceFile)
	if err != nil {
		return err
	}
	tw := obs.NewTraceWriter(f)
	write := sweep.EmitJSONL[campaign.Record](w)
	err = campaign.EachTrace(context.Background(), grid, sh, o.workers, o.traceLimit,
		func(r campaign.Record, tr *obs.Tracer) error {
			if err := write(r); err != nil {
				return err
			}
			return tw.Process(r.Index+1, r.Name, tr)
		})
	if err == nil {
		err = tw.Close()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
