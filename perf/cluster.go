package main

import (
	"bufio"
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
	"sync"
	"syscall"
	"time"

	"hyperfile/internal/metrics"
	"hyperfile/internal/object"
	"hyperfile/internal/server"
)

// clientSite is the driver's own site id, outside the server range.
const clientSite object.SiteID = 1000

// execTimeout bounds one query; a query that reaches it counts as failed.
const execTimeout = 20 * time.Second

// procs tracks every child process so that each exit path can kill them.
type procs struct {
	mu   sync.Mutex
	live map[*exec.Cmd]struct{}
}

var children = procs{live: map[*exec.Cmd]struct{}{}}

func (p *procs) add(c *exec.Cmd) {
	p.mu.Lock()
	p.live[c] = struct{}{}
	p.mu.Unlock()
}

func (p *procs) remove(c *exec.Cmd) {
	p.mu.Lock()
	delete(p.live, c)
	p.mu.Unlock()
}

// killAll is the last-resort reaper for signal, panic and watchdog exits.
func (p *procs) killAll() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for c := range p.live {
		_ = c.Process.Kill()
	}
}

// moduleDirs locates the hyperfile module this benchmark is built against
// and the benchmark's own directory.
func moduleDirs() (root, perf string, err error) {
	out, err := exec.Command("go", "list", "-m", "-f", "{{.Dir}}", "hyperfile", "hyperfile/perf").Output()
	if err != nil {
		return "", "", fmt.Errorf("locating the hyperfile module (run from inside perf/): %w", err)
	}
	dirs := strings.Fields(string(out))
	if len(dirs) != 2 {
		return "", "", fmt.Errorf("go list -m printed %q, want two directories", out)
	}
	if _, err := os.Stat(filepath.Join(dirs[0], "cmd", "hyperfiled")); err != nil {
		return "", "", fmt.Errorf("hyperfile module at %q has no cmd/hyperfiled: %w", dirs[0], err)
	}
	return dirs[0], dirs[1], nil
}

// buildServer compiles hyperfiled into dir and returns the binary's path.
func buildServer(dir string) (string, error) {
	bin := filepath.Join(dir, "hyperfiled")
	cmd := exec.Command("go", "build", "-o", bin, "hyperfile/cmd/hyperfiled")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building hyperfiled: %w\n%s", err, out)
	}
	return bin, nil
}

// serverProc is one running hyperfiled.
type serverProc struct {
	cmd     *exec.Cmd
	site    object.SiteID
	addr    string
	metrics string
	exited  chan struct{} // closed once Wait has returned
}

// cluster is three hyperfiled processes plus the one production client that
// drives them.
type cluster struct {
	servers []*serverProc
	client  *server.Client
	// watchers counts the goroutines that copy server logs and reap the
	// processes; stop waits for them.
	watchers sync.WaitGroup
}

// freePorts reserves n distinct loopback ports by binding and releasing them.
func freePorts(n int) ([]string, error) {
	var addrs []string
	var lns []net.Listener
	defer func() {
		for _, ln := range lns {
			_ = ln.Close()
		}
	}()
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs, nil
}

// errBind marks a boot that failed before serving, usually because another
// process took a port between reservation and bind; the caller retries.
var errBind = errors.New("server exited before serving")

// startCluster boots three servers with default flags over the dataset files
// in dataDir and connects the client. Ports are retried on bind failure.
func startCluster(bin, dataDir string) (*cluster, error) {
	var lastErr error
	for attempt := 0; attempt < 4; attempt++ {
		c, err := bootOnce(bin, dataDir, attempt)
		if err == nil {
			return c, nil
		}
		lastErr = err
		if !errors.Is(err, errBind) {
			break
		}
	}
	return nil, lastErr
}

func bootOnce(bin, dataDir string, attempt int) (*cluster, error) {
	addrs, err := freePorts(2 * numSites)
	if err != nil {
		return nil, err
	}
	c := &cluster{}
	ready := make([]chan struct{}, numSites)
	for i := 0; i < numSites; i++ {
		var peers []string
		for j := 0; j < numSites; j++ {
			if j != i {
				peers = append(peers, fmt.Sprintf("%d=%s", j+1, addrs[j]))
			}
		}
		sp := &serverProc{
			site: object.SiteID(i + 1), addr: addrs[i], metrics: addrs[numSites+i],
			exited: make(chan struct{}),
		}
		sp.cmd = exec.Command(bin,
			"-site", strconv.Itoa(i+1),
			"-listen", sp.addr,
			"-peers", strings.Join(peers, ","),
			"-data", filepath.Join(dataDir, fmt.Sprintf("site-%d.jsonl", i+1)),
			"-metrics-addr", sp.metrics)
		// The kernel kills the server if the benchmark dies without running
		// its own clean-up (SIGKILL of the benchmark).
		sp.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		stderr, err := sp.cmd.StderrPipe()
		if err != nil {
			c.stop()
			return nil, err
		}
		logf, err := os.Create(filepath.Join(dataDir, fmt.Sprintf("site-%d.%d.log", i+1, attempt)))
		if err != nil {
			c.stop()
			return nil, err
		}
		if err := sp.cmd.Start(); err != nil {
			logf.Close()
			c.stop()
			return nil, err
		}
		children.add(sp.cmd)
		c.servers = append(c.servers, sp)
		ready[i] = make(chan struct{})
		c.watchers.Add(1)
		go func(ready chan<- struct{}) {
			defer c.watchers.Done()
			defer close(sp.exited)
			watchLog(stderr, logf, ready, sp)
		}(ready[i])
	}
	deadline := time.NewTimer(60 * time.Second)
	defer deadline.Stop()
	for i, sp := range c.servers {
		select {
		case <-ready[i]:
		case <-sp.exited:
			c.stop()
			return nil, fmt.Errorf("site %d: %w (see its log in %s)", i+1, errBind, dataDir)
		case <-deadline.C:
			c.stop()
			return nil, fmt.Errorf("site %d did not start serving within 60s", i+1)
		}
	}

	c.client, err = server.NewClient(clientSite, "127.0.0.1:0")
	if err != nil {
		c.stop()
		return nil, err
	}
	for _, sp := range c.servers {
		c.client.AddServer(sp.site, sp.addr)
	}
	for _, sp := range c.servers {
		if _, err := c.client.Stats(sp.site, 10*time.Second); err != nil {
			c.stop()
			return nil, fmt.Errorf("site %v does not answer Stats: %w", sp.site, err)
		}
	}
	return c, nil
}

// watchLog copies a server's stderr to its log file, signals the "hyperfiled
// serving" line, and reaps the process when the pipe closes. Its caller
// closes sp.exited when it returns.
func watchLog(stderr io.Reader, logf *os.File, ready chan<- struct{}, sp *serverProc) {
	sc := bufio.NewScanner(stderr)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	signalled := false
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(logf, line)
		if !signalled && strings.Contains(line, "hyperfiled serving") {
			signalled = true
			close(ready)
		}
	}
	logf.Close()
	_ = sp.cmd.Wait()
	children.remove(sp.cmd)
}

// stop shuts the client and every server down and waits for them to end.
func (c *cluster) stop() {
	if c.client != nil {
		c.client.Close()
		c.client = nil
	}
	for _, sp := range c.servers {
		_ = sp.cmd.Process.Signal(syscall.SIGTERM)
	}
	for _, sp := range c.servers {
		select {
		case <-sp.exited:
		case <-time.After(5 * time.Second):
			_ = sp.cmd.Process.Kill()
			<-sp.exited
		}
	}
	c.watchers.Wait()
	c.servers = nil
}

// scrape sums the three servers' /debug/hyperfile registries.
func (c *cluster) scrape() (metrics.Snapshot, error) {
	var sum metrics.Snapshot
	for _, sp := range c.servers {
		resp, err := http.Get("http://" + sp.metrics + "/debug/hyperfile")
		if err != nil {
			return sum, fmt.Errorf("scraping site %v: %w", sp.site, err)
		}
		var doc struct {
			Metrics metrics.Snapshot `json:"metrics"`
		}
		err = json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if err != nil {
			return sum, fmt.Errorf("scraping site %v: %w", sp.site, err)
		}
		sum = sum.Add(doc.Metrics)
	}
	return sum, nil
}

// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat. Linux
// fixes it at 100 on every architecture Go supports.
const clockTick = 100

// cpuTimes is a process's accumulated user and system CPU time.
type cpuTimes struct{ User, Sys time.Duration }

func (a cpuTimes) sub(b cpuTimes) cpuTimes { return cpuTimes{a.User - b.User, a.Sys - b.Sys} }
func (a cpuTimes) add(b cpuTimes) cpuTimes { return cpuTimes{a.User + b.User, a.Sys + b.Sys} }
func (a cpuTimes) total() time.Duration    { return a.User + a.Sys }

// parseProcStat extracts utime and stime from the text of /proc/<pid>/stat.
// The command name may hold spaces and parentheses, so fields are counted
// from the last ')'.
func parseProcStat(text string) (cpuTimes, error) {
	i := strings.LastIndexByte(text, ')')
	if i < 0 {
		return cpuTimes{}, fmt.Errorf("proc stat: no command field in %q", text)
	}
	f := strings.Fields(text[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return cpuTimes{}, fmt.Errorf("proc stat: %d fields after command", len(f))
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return cpuTimes{}, fmt.Errorf("proc stat: bad utime/stime %q %q", f[11], f[12])
	}
	tick := time.Second / clockTick
	return cpuTimes{User: time.Duration(ut) * tick, Sys: time.Duration(st) * tick}, nil
}

// parseVmHWM extracts the peak resident set size, in kB, from the text of
// /proc/<pid>/status.
func parseVmHWM(text string) (int64, error) {
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				return strconv.ParseInt(f[0], 10, 64)
			}
		}
	}
	return 0, errors.New("proc status: no VmHWM line")
}

// serverCPU sums the servers' CPU times.
func (c *cluster) serverCPU() (cpuTimes, error) {
	var sum cpuTimes
	for _, sp := range c.servers {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", sp.cmd.Process.Pid))
		if err != nil {
			return sum, err
		}
		t, err := parseProcStat(string(b))
		if err != nil {
			return sum, err
		}
		sum = sum.add(t)
	}
	return sum, nil
}

// serverRSSMB sums the servers' peak resident sets, in MB.
func (c *cluster) serverRSSMB() (float64, error) {
	var kb int64
	for _, sp := range c.servers {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", sp.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		v, err := parseVmHWM(string(b))
		if err != nil {
			return 0, err
		}
		kb += v
	}
	return float64(kb) / 1024, nil
}

// selfCPU is the benchmark process's own CPU time (the client side).
func selfCPU() cpuTimes {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return cpuTimes{}
	}
	return cpuTimes{
		User: time.Duration(ru.Utime.Nano()),
		Sys:  time.Duration(ru.Stime.Nano()),
	}
}
