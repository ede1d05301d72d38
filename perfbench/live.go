package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"rulefit/internal/obs"
)

// setupRepeats is how many fresh daemons a run sets up; setup_s is
// their median and the last one serves the timed traffic.
const setupRepeats = 9

// stealChunk is the window over which the host's steal share is read
// and charged to the requests in it.
const stealChunk = time.Second

// answer is one timed HTTP exchange.
type answer struct {
	code      int
	latencyMS float64
	steal     float64 // steal share of host busy time in the second around it
	body      []byte
	timing    string // Server-Timing header
	err       error  // transport failure
}

// adjustedMS is the latency with the host's stolen share taken out:
// what the request took on the CPU time the hypervisor gave this guest.
func (a answer) adjustedMS() float64 { return a.latencyMS * (1 - a.steal) }

// liveRun is what one untraced run against a live ruleplaced measured.
type liveRun struct {
	setupS   []float64
	answers  []answer
	cpuMS    float64 // daemon user+sys CPU over the timed section
	runqMS   float64 // daemon run-queue wait over the timed section
	hwmMB    float64 // daemon VmHWM at the end of the run
	flightEv int64   // flight events seen over the timed section (read only withFlight)
	stealPct float64 // steal share of the host's busy time during the timed section
}

// rawLatencies returns the client-observed latencies, ascending.
func (r *liveRun) rawLatencies() []sample {
	raw := make([]sample, len(r.answers))
	for i, a := range r.answers {
		raw[i] = sample{ms: a.latencyMS}
	}
	return sortedSamples(raw)
}

// daemonProc is one ruleplaced process with a single keep-alive client
// connection.
type daemonProc struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	exited chan error
}

// listenWatcher consumes the daemon's JSON log lines from stderr: it
// reports the address of the "listening" line and discards the rest,
// so the daemon never blocks on a full pipe.
type listenWatcher struct {
	mu   sync.Mutex
	buf  []byte
	done bool
	addr chan string
}

func (w *listenWatcher) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.done {
		return len(p), nil
	}
	w.buf = append(w.buf, p...)
	for {
		i := bytes.IndexByte(w.buf, '\n')
		if i < 0 {
			return len(p), nil
		}
		var line struct {
			Msg  string `json:"msg"`
			Addr string `json:"addr"`
		}
		if json.Unmarshal(w.buf[:i], &line) == nil && line.Msg == "listening" {
			w.done, w.buf = true, nil
			w.addr <- line.Addr
			return len(p), nil
		}
		w.buf = w.buf[i+1:]
	}
}

// startDaemon execs ruleplaced with default flags on an ephemeral
// loopback port and returns once its "listening" line arrives.
func startDaemon(ctx context.Context, bin string) (*daemonProc, error) {
	w := &listenWatcher{addr: make(chan string, 1)}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	cmd.Stdout = io.Discard
	cmd.Stderr = w
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &daemonProc{cmd: cmd, exited: make(chan error, 1)}
	go func() { d.exited <- cmd.Wait() }()
	select {
	case addr := <-w.addr:
		d.base = "http://" + addr
		d.client = &http.Client{
			Transport: &http.Transport{Proxy: nil, MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
			Timeout:   120 * time.Second,
		}
		return d, nil
	case err := <-d.exited:
		return nil, fmt.Errorf("ruleplaced exited before listening: %v", err)
	case <-ctx.Done():
		d.kill()
		return nil, ctx.Err()
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, errors.New("ruleplaced did not report listening within 30s")
	}
}

func (d *daemonProc) pid() int { return d.cmd.Process.Pid }

// stop drains the daemon with SIGTERM and waits for it to exit.
func (d *daemonProc) stop() error {
	if d.client != nil {
		d.client.CloseIdleConnections()
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return d.kill()
	}
	select {
	case err := <-d.exited:
		return err
	case <-time.After(20 * time.Second):
		return d.kill()
	}
}

func (d *daemonProc) kill() error {
	_ = d.cmd.Process.Kill() // already gone is fine: we only need it reaped
	<-d.exited
	return errors.New("ruleplaced had to be killed")
}

// post sends one request and reads the whole reply.
func (d *daemonProc) post(ctx context.Context, path string, body []byte) answer {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.base+path, bytes.NewReader(body))
	if err != nil {
		return answer{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := d.client.Do(req)
	if err != nil {
		return answer{err: err, latencyMS: msSince(start)}
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return answer{code: resp.StatusCode, latencyMS: msSince(start), body: data,
		timing: resp.Header.Get("Server-Timing"), err: err}
}

func (d *daemonProc) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// setUp starts a daemon and brings it to the state the timed traffic
// expects: the session created (session-delta) and the untimed
// warm-up answers served. It returns the daemon, the timed request
// path, and the setup time from exec.
func setUp(ctx context.Context, p *plan, bin string) (*daemonProc, string, float64, error) {
	start := time.Now()
	d, err := startDaemon(ctx, bin)
	if err != nil {
		return nil, "", 0, err
	}
	path := "/v1/place"
	fail := func(err error) (*daemonProc, string, float64, error) {
		_ = d.stop() // the setup error is the one worth reporting
		return nil, "", 0, err
	}
	if p.workload == sessionDelta {
		a := d.post(ctx, "/v1/session", p.createBody)
		if a.err != nil || a.code != http.StatusCreated {
			return fail(fmt.Errorf("session create: code %d: %v %s", a.code, a.err, a.body))
		}
		var created struct {
			SessionID string `json:"session_id"`
		}
		if err := json.Unmarshal(a.body, &created); err != nil {
			return fail(fmt.Errorf("session create reply: %w", err))
		}
		path = "/v1/session/" + created.SessionID + "/delta"
		for i, e := range p.warmEdits {
			if a := d.post(ctx, path, e.body); a.err != nil || a.code != http.StatusOK {
				return fail(fmt.Errorf("warm-up edit %d: code %d: %v %s", i, a.code, a.err, a.body))
			}
		}
	} else if a := d.post(ctx, "/v1/place", p.warmup.body); a.err != nil || a.code != http.StatusOK {
		return fail(fmt.Errorf("warm-up %s: code %d: %v %s", p.warmup.name, a.code, a.err, a.body))
	}
	return d, path, time.Since(start).Seconds(), nil
}

// runLive sets up setupRepeats fresh daemons, then replays the timed
// operations in a closed loop on the last one: one client, one
// keep-alive connection, the next request sent when the previous
// answer has been read. withFlight also reads the flight recorder's
// event count around the timed section.
func runLive(ctx context.Context, p *plan, bin string, withFlight bool) (*liveRun, error) {
	run := &liveRun{}
	var d *daemonProc
	var path string
	for k := 0; k < setupRepeats; k++ {
		var setup float64
		var err error
		if d, path, setup, err = setUp(ctx, p, bin); err != nil {
			return nil, err
		}
		run.setupS = append(run.setupS, setup)
		if k < setupRepeats-1 {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
	}
	// stop always reaps the process; a drain that needed a kill after
	// the timed section changes no measurement.
	defer func() { _ = d.stop() }()

	var seen0 int64
	if withFlight {
		var err error
		if seen0, err = flightSeen(ctx, d); err != nil {
			return nil, err
		}
	}
	pid := d.pid()
	c0, err := readCounters(pid)
	if err != nil {
		return nil, err
	}
	// Steal is read per chunk of about a second: single requests are
	// too short for /proc/stat's 10 ms resolution.
	chunk, mark, markT := 0, c0.host, time.Now()
	run.answers = make([]answer, 0, p.timed())
	for i := 0; i < p.timed(); i++ {
		run.answers = append(run.answers, d.post(ctx, path, p.body(i)))
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if time.Since(markT) < stealChunk && i < p.timed()-1 {
			continue
		}
		now, err := readHostCPU()
		if err != nil {
			return nil, err
		}
		for j := chunk; j <= i; j++ {
			run.answers[j].steal = stealShare(mark, now)
		}
		chunk, mark, markT = i+1, now, time.Now()
	}
	c1, err := readCounters(pid)
	if err != nil {
		return nil, err
	}
	run.cpuMS, run.runqMS = c1.cpuMS-c0.cpuMS, c1.runqMS-c0.runqMS
	run.stealPct = 100 * stealShare(c0.host, c1.host)
	if withFlight {
		seen1, err := flightSeen(ctx, d)
		if err != nil {
			return nil, err
		}
		run.flightEv = seen1 - seen0
	}
	if run.hwmMB, err = procHWMmb(pid); err != nil {
		return nil, err
	}
	return run, nil
}

// flightSeen reads the global flight recorder's seen-events counter
// from the /debug/flightz meta line.
func flightSeen(ctx context.Context, d *daemonProc) (int64, error) {
	data, err := d.get(ctx, "/debug/flightz")
	if err != nil {
		return 0, err
	}
	line, _, _ := bytes.Cut(data, []byte("\n"))
	var meta obs.Event
	if err := json.Unmarshal(line, &meta); err != nil || meta.Kind != obs.KindFlightMeta {
		return 0, fmt.Errorf("flightz: no meta line (%v)", err)
	}
	return int64(meta.Seen), nil
}

// counters are the cumulative readings taken around the timed section.
type counters struct {
	cpuMS, runqMS float64 // the daemon's
	host          hostCPU
}

func readCounters(pid int) (counters, error) {
	var c counters
	var err1, err2, err3 error
	c.cpuMS, err1 = procCPUms(pid)
	c.runqMS, err2 = procRunqMS(pid)
	c.host, err3 = readHostCPU()
	return c, errors.Join(err1, err2, err3)
}

// clockTicksPerSecond is Linux's USER_HZ, the unit of /proc/<pid>/stat
// CPU times.
const clockTicksPerSecond = 100

// procCPUms reads user+sys CPU time of every thread of pid.
func procCPUms(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("/proc/%d/stat: malformed", pid)
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: short", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return float64(utime+stime) * 1000 / clockTicksPerSecond, nil
}

// hostCPU is a reading of all CPUs' time from /proc/stat, in jiffies.
// Steal is time the hypervisor ran something else while a vCPU had
// work; busy is all non-idle time, steal included.
type hostCPU struct{ steal, busy int64 }

func readHostCPU() (hostCPU, error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostCPU{}, fmt.Errorf("/proc/stat: unexpected first line %q", line)
	}
	// user nice system idle iowait irq softirq steal (guest time is
	// already counted in user).
	var v [8]int64
	for i := range v {
		if v[i], err = strconv.ParseInt(f[i+1], 10, 64); err != nil {
			return hostCPU{}, fmt.Errorf("/proc/stat: %w", err)
		}
	}
	return hostCPU{steal: v[7], busy: v[0] + v[1] + v[2] + v[5] + v[6] + v[7]}, nil
}

// stealShare is the share of the busy time between two readings that
// the hypervisor stole.
func stealShare(a, b hostCPU) float64 {
	return ratio(float64(b.steal-a.steal), float64(b.busy-a.busy))
}

// procRunqMS sums the run-queue wait (second field of schedstat) of
// every live thread of pid.
func procRunqMS(pid int) (float64, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	if err != nil || len(tasks) == 0 {
		return 0, fmt.Errorf("/proc/%d/task/*/schedstat: none readable", pid)
	}
	var ns int64
	for _, t := range tasks {
		data, err := os.ReadFile(t)
		if err != nil {
			continue // a thread that exited meanwhile
		}
		f := strings.Fields(string(data))
		if len(f) < 2 {
			continue
		}
		v, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", t, err)
		}
		ns += v
	}
	return float64(ns) / 1e6, nil
}

// procHWMmb reads the peak resident set size of pid.
func procHWMmb(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
}

// phase is one Server-Timing entry.
type phase struct {
	name string
	ms   float64
}

// parseServerTiming reads "name;dur=ms, ..." as the daemon writes it.
func parseServerTiming(h string) []phase {
	var out []phase
	for _, part := range strings.Split(h, ",") {
		name, dur, ok := strings.Cut(strings.TrimSpace(part), ";dur=")
		if !ok {
			continue
		}
		ms, err := strconv.ParseFloat(dur, 64)
		if err != nil {
			continue
		}
		out = append(out, phase{name, ms})
	}
	return out
}
