package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
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

// buildDir holds everything a run leaves behind outside bench/out: the
// daemon binary, its snapshots and its logs.
const buildDir = ".bench_build"

// daemonFlags is the configuration under test, identical in every workload.
// -shards 2 is pinned so template IDs, hence cluster order, reproduce on any
// core count.
var daemonFlags = []string{
	"-model", daemonModel, "-horizon", daemonHorizon.String(), "-parallelism", "0",
	"-shards", strconv.Itoa(daemonShards), "-fpcache", strconv.Itoa(daemonFPCache),
	"-max-inflight", strconv.Itoa(daemonMaxInflight),
}

// The in-process twins of a traced run are built from the same values.
const (
	daemonModel       = "HYBRID"
	daemonHorizon     = time.Hour
	daemonShards      = 2
	daemonFPCache     = 65536
	daemonMaxInflight = 64
)

// buildDaemon compiles cmd/qb5000d from the checkout the benchmark runs in
// and returns the binary's path and how long the build took.
func buildDaemon(ctx context.Context) (string, float64, error) {
	if _, err := os.Stat(filepath.Join("cmd", "qb5000d")); err != nil {
		return "", 0, fmt.Errorf("run from the repository root: %w", err)
	}
	bin, err := filepath.Abs(filepath.Join(buildDir, "qb5000d"))
	if err != nil {
		return "", 0, err
	}
	start := nowNS()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/qb5000d")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/qb5000d: %w\n%s", err, out)
	}
	return bin, secondsSince(start), nil
}

// daemon is one qb5000d process (and its successors across restarts) plus
// the control connection the benchmark's sequential phases use.
type daemon struct {
	// ctx ends when the benchmark is interrupted; the daemon process is
	// killed with it, so an aborted run leaves nothing running.
	ctx            context.Context
	place          placement
	bin, dir, addr string
	cmd            *exec.Cmd
	log            *os.File
	ctl            *conn
}

func (d *daemon) snapshotPath() string { return filepath.Join(d.dir, "w.snap") }

// newDaemon reserves a loopback port and a scratch directory for one run.
func newDaemon(ctx context.Context, bin string, place placement) (*daemon, error) {
	dir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	if err := l.Close(); err != nil {
		return nil, err
	}
	return &daemon{ctx: ctx, place: place, bin: bin, dir: dir, addr: addr, ctl: newConn(addr)}, nil
}

// start execs the daemon (restoring the run's snapshot when load is set) and
// returns the time from exec until its port accepts a connection.
func (d *daemon) start(load bool) (float64, error) {
	args := append([]string{"-addr", d.addr, "-save", d.snapshotPath()}, daemonFlags...)
	if load {
		args = append(args, "-load", d.snapshotPath())
	}
	logf, err := os.OpenFile(filepath.Join(d.dir, "daemon.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return 0, err
	}
	cmd := exec.CommandContext(d.ctx, d.bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	start := nowNS()
	if err := d.place.startOn(cmd.Start); err != nil {
		return 0, errors.Join(err, logf.Close())
	}
	d.cmd, d.log = cmd, logf
	deadline := start + int64(60*time.Second)
	for nowNS() < deadline {
		c, err := net.DialTimeout("tcp", d.addr, time.Second)
		if err == nil {
			return secondsSince(start), c.Close()
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.kill()
	return 0, fmt.Errorf("daemon did not accept on %s within 60s (see %s)", d.addr, logf.Name())
}

// stop sends SIGTERM and waits for the process to exit (graceful shutdown
// plus the snapshot write); it returns how long that took.
func (d *daemon) stop() (float64, error) {
	if d.cmd == nil {
		return 0, nil
	}
	d.ctl.closeIdle()
	start := nowNS()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return 0, err
	}
	err := d.cmd.Wait()
	took := secondsSince(start)
	d.cmd = nil
	return took, errors.Join(err, d.log.Close())
}

// kill reaps the process on a failure path; the run is already lost.
func (d *daemon) kill() {
	if d.cmd == nil {
		return
	}
	//lint:ignore errflow Kill fails only when the process is already gone, which Wait reaps
	_ = d.cmd.Process.Kill()
	//lint:ignore errflow the exit status of a killed process carries no information
	_ = d.cmd.Wait()
	//lint:ignore errflow the log is diagnostic output; nothing depends on its last bytes
	_ = d.log.Close()
	d.cmd = nil
}

// cleanup removes the run's scratch directory.
func (d *daemon) cleanup() error {
	d.kill()
	d.ctl.closeIdle()
	return os.RemoveAll(d.dir)
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// cpuSeconds is the daemon's user+system CPU time so far.
func (d *daemon) cpuSeconds() (float64, error) {
	return procCPUSeconds(d.pid())
}

// clockTicksPerSecond is USER_HZ, fixed at 100 on every Linux ABI Go runs on.
const clockTicksPerSecond = 100

func procCPUSeconds(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields resume after ')'.
	i := bytes.LastIndexByte(raw, ')')
	fields := strings.Fields(string(raw[i+1:]))
	if i < 0 || len(fields) < 13 {
		return 0, fmt.Errorf("unexpected /proc/%d/stat: %q", pid, raw)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return float64(utime+stime) / clockTicksPerSecond, nil
}

// peakRSSMB is the daemon's high-water resident set (VmHWM).
func (d *daemon) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.pid()))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// conn is one keep-alive HTTP connection to the daemon. Sequential phases
// share the daemon's control conn; each sender of a timed phase owns one.
type conn struct {
	base   string
	client *http.Client
}

func newConn(addr string) *conn {
	return &conn{
		base: "http://" + addr,
		client: &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
			Timeout:   5 * time.Minute,
		},
	}
}

func (c *conn) closeIdle() { c.client.CloseIdleConnections() }

// do sends one request and returns the status and the fully drained body.
func (c *conn) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	out, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	return resp.StatusCode, out, err
}

// observeReply mirrors server.ObserveResult.
type observeReply struct {
	Ingested int64 `json:"ingested"`
	Rejected int64 `json:"rejected"`
}

// observe posts one body and fails on anything but a full, clean ingest.
func (c *conn) observe(body []byte) (observeReply, error) {
	var rep observeReply
	code, out, err := c.do(http.MethodPost, "/observe", body)
	if err != nil {
		return rep, err
	}
	if code != http.StatusOK {
		return rep, fmt.Errorf("/observe: %d %s", code, bytes.TrimSpace(out))
	}
	if err := json.Unmarshal(out, &rep); err != nil {
		return rep, fmt.Errorf("/observe reply: %w", err)
	}
	if rep.Rejected != 0 {
		return rep, fmt.Errorf("/observe rejected %d lines", rep.Rejected)
	}
	return rep, nil
}

// getJSON fetches path and decodes a 200 reply into v.
func (c *conn) getJSON(method, path string, v any) error {
	code, out, err := c.do(method, path, nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("%s: %d %s", path, code, bytes.TrimSpace(out))
	}
	return json.Unmarshal(out, v)
}
