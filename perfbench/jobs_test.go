package main

import (
	"bytes"
	"testing"
)

// gridTargets bounds each workload's grid points per job.
var gridTargets = map[string][2]int{
	"sweep-churn":     {24, 96},
	"campaign-secmem": {4, 12},
	"fleet-recovery":  {4, 4},
}

// TestJobListsAreSeededAndValid pins the generator: one seed always yields
// byte-identical spec bodies, every body passes spec.Parse, every list
// meets its job-count and grid-size targets, and a second seed yields a
// different, equally valid list.
func TestJobListsAreSeededAndValid(t *testing.T) {
	const seconds = 10
	for _, w := range workloads {
		lo, hi := gridTargets[w.Name][0], gridTargets[w.Name][1]
		n := w.jobCount(seconds)
		if n < MinJobs || n%w.Shapes != 0 {
			t.Errorf("%s: %d jobs, want >= %d and a multiple of %d", w.Name, n, MinJobs, w.Shapes)
		}
		a, err := w.Jobs(1, "timed", n)
		if err != nil {
			t.Fatal(err)
		}
		b, err := w.Jobs(1, "timed", n)
		if err != nil {
			t.Fatal(err)
		}
		other, err := w.Jobs(2, "timed", n)
		if err != nil {
			t.Fatal(err)
		}
		same := 0
		for i := range a {
			if !bytes.Equal(a[i].Body, b[i].Body) {
				t.Fatalf("%s: job %d differs between two generations of seed 1", w.Name, i)
			}
			if bytes.Equal(a[i].Body, other[i].Body) {
				same++
			}
		}
		if same == n {
			t.Errorf("%s: seeds 1 and 2 generate the same list", w.Name)
		}
		for seed, list := range map[int][]Job{1: a, 2: other} {
			points := 0
			for _, job := range list {
				p, err := parseJob(job.Body)
				if err != nil {
					t.Fatalf("%s seed %d job %d: %v", w.Name, seed, job.ID, err)
				}
				if k := p.points(); k < lo || k > hi {
					t.Errorf("%s seed %d job %d: %d grid points, want %d..%d", w.Name, seed, job.ID, k, lo, hi)
				}
				if job.Client < 0 || job.Client >= w.Clients {
					t.Errorf("%s: job %d on client %d of %d", w.Name, job.ID, job.Client, w.Clients)
				}
				points += p.points()
			}
			t.Logf("%s seed %d: %d jobs, %d grid points", w.Name, seed, n, points)
		}
	}
}

// TestSeedsHoldTheSameShapes checks the shape rotation: two seeds' lists
// hold the same number of grid points, so their work differs only in the
// randomized details.
func TestSeedsHoldTheSameShapes(t *testing.T) {
	for _, w := range workloads {
		var totals []int
		for _, seed := range []uint64{3, 4} {
			jobs, err := w.Jobs(seed, "timed", w.jobCount(10))
			if err != nil {
				t.Fatal(err)
			}
			total := 0
			for _, job := range jobs {
				p, err := parseJob(job.Body)
				if err != nil {
					t.Fatal(err)
				}
				total += p.points()
			}
			totals = append(totals, total)
		}
		if totals[0] != totals[1] {
			t.Errorf("%s: seeds hold %d and %d grid points", w.Name, totals[0], totals[1])
		}
	}
}

func TestWarmupListDiffersFromTimedList(t *testing.T) {
	for _, w := range workloads {
		timed, _ := w.Jobs(5, "timed", 4)
		warm, _ := w.Jobs(5, "warmup", 4)
		if bytes.Equal(timed[0].Body, warm[0].Body) && bytes.Equal(timed[1].Body, warm[1].Body) {
			t.Errorf("%s: warm-up list repeats the timed list", w.Name)
		}
	}
}
