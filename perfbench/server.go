package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
)

// server is one simserve child process.
type server struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	log    *os.File
	done   chan struct{}
}

// startServer spawns simserve with admission control at a token limit of
// nproc and an admission wait long enough that closed-loop load never
// sheds, so the admission layer sits on the measured path without
// refusing anything. The access log (one line per request, part of the
// measured path) goes to logPath.
func startServer(bin, logPath string, nproc int) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin,
		"-addr", addr,
		"-admit-limit", strconv.Itoa(nproc),
		"-admit-wait", "30s",
	)
	cmd.Stdout, cmd.Stderr = logf, logf
	// A benchmark killed mid-run must not leave its server behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting simserve: %w", err)
	}
	s := &server{
		cmd:  cmd,
		base: "http://" + addr,
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     nproc,
			MaxIdleConnsPerHost: nproc,
			DisableCompression:  true,
		}},
		log:  logf,
		done: make(chan struct{}),
	}
	go func() {
		_ = cmd.Wait() // the exit status of a server we stop ourselves is not news
		close(s.done)
	}()
	return s, nil
}

// freeAddr picks a loopback port the kernel reports free.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// stop sends SIGTERM, waits for the drain, and kills the process if it
// outlives the grace period. It returns once the process has exited.
func (s *server) stop() {
	if s == nil {
		return
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-s.done:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
	s.client.CloseIdleConnections()
	s.log.Close()
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// waitHealthy polls /healthz until it answers 200.
func (s *server) waitHealthy(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := s.client.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-s.done:
			return errors.New("simserve exited during start-up")
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("simserve not healthy after %v: %v", timeout, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// post sends one JSON body and returns the response body, failing on any
// status but 200.
func (s *server) post(path string, body []byte) ([]byte, error) {
	resp, err := s.client.Post(s.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}

// scrape reads /metrics into name{labels} → value.
func (s *server) scrape() (map[string]float64, error) {
	resp, err := s.client.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return obs.ParseText(resp.Body)
}

// setup takes a fresh server from spawn to ready: /healthz 200, the graph
// loaded over POST /v1/graph, and one answered query per measure of the
// workload's mix, so lazily built transposes and pools exist. graphBody is
// built before the clock starts. It returns the server and the elapsed
// time.
func setup(bin, logPath string, nproc int, graphBody []byte, w workload) (*server, time.Duration, error) {
	t0 := time.Now()
	s, err := startServer(bin, logPath, nproc)
	if err != nil {
		return nil, 0, err
	}
	fail := func(err error) (*server, time.Duration, error) {
		s.stop()
		return nil, 0, err
	}
	if err := s.waitHealthy(30 * time.Second); err != nil {
		return fail(err)
	}
	if _, err := s.post("/v1/graph", graphBody); err != nil {
		return fail(err)
	}
	for _, o := range warmupQueries(w) {
		path, body := o.request()
		if _, err := s.post(path, body); err != nil {
			return fail(fmt.Errorf("set-up query: %w", err))
		}
	}
	return s, time.Since(t0), nil
}

// warmupQueries is one query per (kind, measure) pair the workload sends,
// all on node 0.
func warmupQueries(w workload) []op {
	var out []op
	for k := opKind(0); k < opEdit; k++ {
		if w.mix[k] == 0 {
			continue
		}
		switch k {
		case opCert:
			out = append(out, op{kind: k, measure: certMeasure})
		case opBatch:
			b := make([]slot, len(readMeasures))
			for i, m := range readMeasures {
				b[i] = slot{Measure: m, K: topK}
			}
			out = append(out, op{kind: k, batch: b})
		default:
			for _, m := range readMeasures {
				out = append(out, op{kind: k, measure: m})
			}
		}
	}
	return out
}

// procCPU returns a process's user+system CPU time from /proc/<pid>/stat.
// The kernel counts it in clock ticks of USER_HZ, which Linux fixes at 100.
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name, which may hold spaces.
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// vmHWM returns a process's peak resident set in MB from /proc/<pid>/status.
func vmHWM(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// hostCPU is the aggregate "cpu" line of /proc/stat: total and steal ticks.
type hostCPU struct{ total, steal uint64 }

func readHostCPU() hostCPU {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	var h hostCPU
	for i, s := range f[1:] {
		v, _ := strconv.ParseUint(s, 10, 64)
		// guest and guest_nice (fields 9 and 10) are already in user/nice.
		if i < 8 {
			h.total += v
		}
		if i == 7 {
			h.steal = v
		}
	}
	return h
}

// cpuSample is the host's CPU counters at one instant.
type cpuSample struct {
	at  time.Time
	cpu hostCPU
}

// sampleHost reads the host's CPU counters every 100 ms until stop is
// closed, then sends every sample, the last taken at stop.
func sampleHost(stop <-chan struct{}) <-chan []cpuSample {
	out := make(chan []cpuSample, 1)
	go func() {
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		var s []cpuSample
		for {
			s = append(s, cpuSample{time.Now(), readHostCPU()})
			select {
			case <-stop:
				out <- append(s, cpuSample{time.Now(), readHostCPU()})
				return
			case <-t.C:
			}
		}
	}()
	return out
}

// stealBetween is the steal share between the last sample at or before a
// and the first at or after b, and 0 without samples.
func stealBetween(s []cpuSample, a, b time.Time) float64 {
	if len(s) == 0 {
		return 0
	}
	i, j := 0, len(s)-1
	for k, x := range s {
		if !x.at.After(a) {
			i = k
		}
	}
	for k := len(s) - 1; k >= 0; k-- {
		if !s[k].at.Before(b) {
			j = k
		}
	}
	return stealFrac(s[i].cpu, s[j].cpu)
}

// stealFrac is the share of CPU time the hypervisor stole between a and b.
func stealFrac(a, b hostCPU) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// loadAvg returns the 1-minute load average.
func loadAvg() float64 {
	raw, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(raw))
	if len(f) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(f[0], 64)
	return v
}

// histDelta is the change of one Prometheus histogram (or counter, with
// count 0) between two scrapes.
type histDelta struct{ sum, count float64 }

// metricDelta returns after−before of every sample whose key starts with
// prefix, summed: pass a full key for one series, or a metric name plus
// "{" to sum every label set.
func metricDelta(before, after map[string]float64, prefix string) float64 {
	var d float64
	for k, v := range after {
		if strings.HasPrefix(k, prefix) {
			d += v - before[k]
		}
	}
	return d
}

// histogramDelta reads a histogram's _sum and _count change for one label
// set, e.g. histogramDelta(b, a, "simserve_request_seconds", `{route="topk"}`).
func histogramDelta(before, after map[string]float64, name, labels string) histDelta {
	return histDelta{
		sum:   after[name+"_sum"+labels] - before[name+"_sum"+labels],
		count: after[name+"_count"+labels] - before[name+"_count"+labels],
	}
}

func (h histDelta) meanMs() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / h.count * 1e3
}
