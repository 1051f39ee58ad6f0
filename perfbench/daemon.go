package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat times.
const clockTicks = 100

// simWorkers is the simulation worker count behind either daemon layout:
// one node with two workers, or two backends with one each.
const simWorkers = 2

// daemon is one running mpsocd process.
type daemon struct {
	role  string // "node", "coord", "backend0", ...
	addr  string // service listener, host:port
	debug string // -debug-addr listener, host:port
	cmd   *exec.Cmd
	log   *os.File
	done  chan struct{} // closed once the process has been waited for
}

func (d *daemon) url() string { return "http://" + d.addr }

// fleet is the set of daemons one workload talks to.
type fleet struct {
	// front receives the clients' submits: the node, or the coordinator.
	front *daemon
	all   []*daemon
}

// freeAddr reserves a loopback port and releases it for a daemon to bind.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// spec of one daemon to start.
type daemonSpec struct {
	role string
	args []string
}

// bootFleet starts the workload's daemons on fresh journal directories under
// dir and waits until every /healthz answers 200. It returns the fleet and
// the time from the first exec to the last healthy probe.
func bootFleet(ctx context.Context, bin, dir string, w *Workload) (*fleet, time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	var specs []daemonSpec
	addrs := map[string]string{}
	reserve := func(role string) error {
		for _, k := range []string{role, role + "-debug"} {
			a, err := freeAddr()
			if err != nil {
				return err
			}
			addrs[k] = a
		}
		return nil
	}
	f := &fleet{}
	if w.Fleet {
		var backends []string
		for i := 0; i < simWorkers; i++ {
			role := fmt.Sprintf("backend%d", i)
			if err := reserve(role); err != nil {
				return nil, 0, err
			}
			specs = append(specs, daemonSpec{role, []string{"-workers", "1"}})
			backends = append(backends, "http://"+addrs[role])
		}
		if err := reserve("coord"); err != nil {
			return nil, 0, err
		}
		specs = append(specs, daemonSpec{"coord", []string{"-coordinator",
			"-backends", strings.Join(backends, ","), "-journal", filepath.Join(dir, "journal")}})
	} else {
		if err := reserve("node"); err != nil {
			return nil, 0, err
		}
		specs = append(specs, daemonSpec{"node", []string{"-workers", fmt.Sprint(simWorkers), "-journal", filepath.Join(dir, "journal")}})
	}

	start := time.Now()
	for _, s := range specs {
		d := &daemon{role: s.role, addr: addrs[s.role], debug: addrs[s.role+"-debug"], done: make(chan struct{})}
		args := append([]string{"-addr", d.addr, "-debug-addr", d.debug}, s.args...)
		log, err := os.Create(filepath.Join(dir, s.role+".log"))
		if err != nil {
			f.stop()
			return nil, 0, err
		}
		d.log = log
		d.cmd = exec.Command(bin, args...)
		d.cmd.Stdout, d.cmd.Stderr = log, log
		// A benchmark killed mid-run must not leave daemons behind.
		d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := d.cmd.Start(); err != nil {
			log.Close()
			f.stop()
			return nil, 0, fmt.Errorf("starting %s: %w", s.role, err)
		}
		go func() {
			d.cmd.Wait()
			close(d.done)
		}()
		f.all = append(f.all, d)
	}
	f.front = f.all[len(f.all)-1]
	for _, d := range f.all {
		if err := waitHealthy(ctx, d); err != nil {
			f.stop()
			return nil, 0, err
		}
	}
	return f, time.Since(start), nil
}

// probeClient answers health probes; a refused connection retries at once.
var probeClient = &http.Client{Timeout: 2 * time.Second}

// waitHealthy polls /healthz until it returns 200, the process exits, or
// the context ends.
func waitHealthy(ctx context.Context, d *daemon) error {
	for {
		resp, err := probeClient.Get(d.url() + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-d.done:
			return fmt.Errorf("%s exited before becoming healthy (see %s)", d.role, d.log.Name())
		case <-ctx.Done():
			return fmt.Errorf("%s not healthy: %w", d.role, ctx.Err())
		case <-time.After(200 * time.Microsecond):
		}
	}
}

// stop sends SIGTERM to every daemon and waits for each to exit, killing any
// that outlast the grace period.
func (f *fleet) stop() {
	for _, d := range f.all {
		d.cmd.Process.Signal(syscall.SIGTERM)
	}
	for _, d := range f.all {
		select {
		case <-d.done:
		case <-time.After(10 * time.Second):
			d.cmd.Process.Kill()
			<-d.done
		}
		d.log.Close()
	}
}

// procSample is one daemon's kernel accounting.
type procSample struct {
	cpu   time.Duration // user+sys
	hwmKB uint64        // VmHWM
}

// readProc reads a live process's CPU time and peak resident set.
func readProc(pid int) (procSample, error) {
	var s procSample
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return s, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the whole line.
	rest := string(stat)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	fields := strings.Fields(rest)
	if len(fields) < 13 {
		return s, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseUint(fields[11], 10, 64)
	st, err2 := strconv.ParseUint(fields[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return s, fmt.Errorf("/proc/%d/stat: %w", pid, err)
	}
	s.cpu = time.Duration(ut+st) * time.Second / clockTicks
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return s, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			if err != nil {
				return s, fmt.Errorf("/proc/%d/status VmHWM: %w", pid, err)
			}
			s.hwmKB = kb
		}
	}
	return s, nil
}

// serverMetrics is the part of the daemon's /metrics JSON the benchmark
// reads.
type serverMetrics struct {
	Journal struct {
		Appends         uint64 `json:"appends"`
		FsyncNanosTotal uint64 `json:"fsync_nanos_total"`
	} `json:"journal"`
	Coordinator struct {
		Dispatches uint64 `json:"dispatches"`
		Failovers  uint64 `json:"failovers"`
	} `json:"coordinator"`
	Host struct {
		ExecNanosTotal uint64 `json:"exec_nanos_total"`
	} `json:"host"`
}

// runtimeSample holds the runtime/metrics values read off -debug-addr.
type runtimeSample struct {
	allocBytes float64 // /gc/heap/allocs:bytes
	gcCPU      float64 // /cpu/classes/gc/total:cpu-seconds
}

// daemonSample is everything read from one daemon at one instant.
type daemonSample struct {
	proc    procSample
	metrics serverMetrics
	rt      runtimeSample
}

// getJSON decodes one GET response.
func getJSON(ctx context.Context, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := probeClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// sample reads a daemon's /metrics, its runtime metrics and its kernel
// accounting.
func (d *daemon) sample(ctx context.Context) (daemonSample, error) {
	var s daemonSample
	if err := getJSON(ctx, d.url()+"/metrics", &s.metrics); err != nil {
		return s, fmt.Errorf("%s: %w", d.role, err)
	}
	var rt []struct {
		Name  string          `json:"name"`
		Value json.RawMessage `json:"value"`
	}
	if err := getJSON(ctx, "http://"+d.debug+"/debug/runtime", &rt); err != nil {
		return s, fmt.Errorf("%s: %w", d.role, err)
	}
	found := 0
	for _, m := range rt {
		var dst *float64
		switch m.Name {
		case "/gc/heap/allocs:bytes":
			dst = &s.rt.allocBytes
		case "/cpu/classes/gc/total:cpu-seconds":
			dst = &s.rt.gcCPU
		default:
			continue
		}
		if err := json.Unmarshal(m.Value, dst); err != nil {
			return s, fmt.Errorf("%s: runtime metric %s: %w", d.role, m.Name, err)
		}
		found++
	}
	if found != 2 {
		return s, fmt.Errorf("%s: /debug/runtime lacks heap allocation or GC CPU metrics", d.role)
	}
	var err error
	s.proc, err = readProc(d.cmd.Process.Pid)
	return s, err
}

// sampleAll samples every daemon of the fleet, in fleet order.
func (f *fleet) sampleAll(ctx context.Context) ([]daemonSample, error) {
	out := make([]daemonSample, len(f.all))
	for i, d := range f.all {
		var err error
		if out[i], err = d.sample(ctx); err != nil {
			return nil, err
		}
	}
	return out, nil
}
