package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// jobResult is what one client saw of one job.
type jobResult struct {
	submitCode int
	streamCode int
	// gridSize is the daemon's reported grid size.
	gridSize int
	// stream is every byte of the job's JSONL stream.
	stream []byte
	// readErr is a transport error while submitting or streaming.
	readErr error
	// Timestamps relative to the job list's start: POST sent, 201 read,
	// first complete record line read, last record line read.
	submit, accepted, first, last time.Duration
}

// submitStatus is the part of the 201 body the client needs.
type submitStatus struct {
	GridSize  int    `json:"grid_size"`
	StreamURL string `json:"stream_url"`
}

// runJobs drives the job list against base with one closed-loop goroutine
// per client and returns each job's result (in job order) and the wall time
// from the first submit to the last record.
func runJobs(ctx context.Context, base string, jobs []Job, clients int) ([]jobResult, time.Duration) {
	hc := &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 2 * clients,
		DisableCompression:  true,
	}}
	defer hc.CloseIdleConnections()
	results := make([]jobResult, len(jobs))
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if jobs[i].Client == c {
					results[i] = runJob(ctx, hc, base, jobs[i].Body, start)
				}
			}
		}()
	}
	wg.Wait()
	return results, time.Since(start)
}

// runJob submits one spec, then reads its whole stream.
func runJob(ctx context.Context, hc *http.Client, base string, body []byte, start time.Time) jobResult {
	var r jobResult
	r.submit = time.Since(start)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/api/v1/jobs", bytes.NewReader(body))
	if err != nil {
		r.readErr = err
		return r
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		r.readErr = err
		return r
	}
	r.submitCode = resp.StatusCode
	var st submitStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	r.accepted = time.Since(start)
	if r.submitCode != http.StatusCreated {
		return r
	}
	if err != nil {
		r.readErr = fmt.Errorf("decoding submit status: %w", err)
		return r
	}
	r.gridSize = st.GridSize

	req, err = http.NewRequestWithContext(ctx, http.MethodGet, base+st.StreamURL, nil)
	if err != nil {
		r.readErr = err
		return r
	}
	resp, err = hc.Do(req)
	if err != nil {
		r.readErr = err
		return r
	}
	defer resp.Body.Close()
	r.streamCode = resp.StatusCode
	if r.streamCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return r
	}
	buf := make([]byte, 64<<10)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if bytes.IndexByte(buf[:n], '\n') >= 0 {
				now := time.Since(start)
				if r.first == 0 {
					r.first = now
				}
				r.last = now
			}
			r.stream = append(r.stream, buf[:n]...)
		}
		if err == io.EOF {
			return r
		}
		if err != nil {
			r.readErr = err
			return r
		}
	}
}
