package main

import (
	"bufio"
	"bytes"
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
)

// repoRoot walks up from the working directory — the repository root under
// run.sh, bench/ under `go test` — to the directory holding cmd/vnfoptd.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if st, err := os.Stat(filepath.Join(dir, "cmd", "vnfoptd")); err == nil && st.IsDir() {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no cmd/vnfoptd above the working directory; run from inside the repository")
		}
		dir = parent
	}
}

// buildDaemon compiles ./cmd/vnfoptd from source into outDir. Build time
// is not part of any metric.
func buildDaemon(root, outDir string) (string, error) {
	bin := filepath.Join(outDir, "vnfoptd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/vnfoptd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/vnfoptd: %v\n%s", err, out)
	}
	return bin, nil
}

// daemon is one vnfoptd process under test, started in its own process
// group so that stop reaches anything it might have spawned.
type daemon struct {
	bin, addr, dir string
	walFlags       []string // the workload's -wal-sync policy
	procs          int
	stderr         *os.File
	cmd            *exec.Cmd
}

// live tracks every running daemon so the signal handler in main can
// kill them on Ctrl-C.
var live struct {
	sync.Mutex
	set map[*daemon]bool
}

func killLive() {
	live.Lock()
	defer live.Unlock()
	for d := range live.set {
		if d.cmd != nil && d.cmd.Process != nil {
			_ = syscall.Kill(-d.cmd.Process.Pid, syscall.SIGKILL)
		}
	}
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// start launches the daemon over d.dir (WAL root and snapshot file live
// there, so a restart after kill recovers from them) and returns once
// /readyz answers 200.
func (d *daemon) start() error {
	cmd := exec.Command(d.bin, append([]string{
		"-addr", d.addr,
		"-wal", filepath.Join(d.dir, "wal"),
		"-snapshot", filepath.Join(d.dir, "snapshot.json"),
		"-snapshot-every", "1h", // never fires inside a run: recovery is create + WAL replay
		"-log-level", "warn",
	}, d.walFlags...)...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(d.procs))
	cmd.Stdout = d.stderr
	cmd.Stderr = d.stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := cmd.Start(); err != nil {
		return err
	}
	d.cmd = cmd
	live.Lock()
	if live.set == nil {
		live.set = make(map[*daemon]bool)
	}
	live.set[d] = true
	live.Unlock()

	// Two ready answers in a row: the daemon raises its "recovering" flag
	// just after its listener starts, so a single poll can slip in
	// between and be told "ready" before recovery has begun.
	deadline := time.Now().Add(60 * time.Second)
	for ready := 0; time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if c, err := dial(d.addr); err == nil {
			status, body, err := c.do(getRequest("/readyz"))
			c.close()
			// 503 has two shapes: "recovering" while the WAL replays, and a
			// list of degraded scenarios once it is done — the state a
			// daemon killed mid-storm comes back in, and ready for traffic.
			// Any other answer is a daemon that is not ready.
			degraded := status == http.StatusServiceUnavailable && bytes.Contains(body, []byte(`"degraded"`))
			if err == nil && (status == http.StatusOK || degraded) {
				if ready++; ready == 2 {
					return nil
				}
				continue
			}
		}
		ready = 0
		if err := syscall.Kill(cmd.Process.Pid, 0); err != nil {
			break // exited: no point polling on
		}
	}
	d.kill()
	return fmt.Errorf("daemon on %s never became ready (stderr in %s)", d.addr, d.stderr.Name())
}

// kill SIGKILLs the daemon's process group and waits until it has ended.
func (d *daemon) kill() {
	if d.cmd == nil {
		return
	}
	_ = syscall.Kill(-d.cmd.Process.Pid, syscall.SIGKILL)
	_ = d.cmd.Wait()
	live.Lock()
	delete(live.set, d)
	live.Unlock()
	d.cmd = nil
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// scrape reads the daemon's /metrics, summed per family.
func (d *daemon) scrape() (map[string]float64, error) {
	c, err := dial(d.addr)
	if err != nil {
		return nil, err
	}
	defer c.close()
	status, body, err := c.do(getRequest("/metrics"))
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", status)
	}
	return promFamilies(bytes.NewReader(body), routeFilters)
}

// procCPU reads the CPU seconds (user + system) a process has used from
// /proc/<pid>/stat. The kernel reports clock ticks; Linux fixes USER_HZ
// at 100 on every supported architecture.
func procCPU(pid int) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	// The command name (field 2) may contain spaces; fields are counted
	// from the closing parenthesis.
	rest := data[bytes.LastIndexByte(data, ')')+1:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0
	}
	utime, _ := strconv.ParseFloat(f[11], 64)
	stime, _ := strconv.ParseFloat(f[12], 64)
	return (utime + stime) / 100
}

// procPeakRSS reads the peak resident set (VmHWM) in MiB.
func procPeakRSS(pid int) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// selfCPU is the generator process's own CPU seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// conn is one keep-alive HTTP/1.1 connection that writes requests
// prebuilt as bytes and parses responses with the standard library. The
// generator shares two cores with the daemon it measures, so the client
// side of a request has to be cheap: no per-request header building, no
// transport goroutines.
type conn struct {
	c  net.Conn
	br *bufio.Reader
}

func dial(addr string) (*conn, error) {
	c, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, br: bufio.NewReaderSize(c, 64<<10)}, nil
}

func (c *conn) close() { _ = c.c.Close() }

// do sends one prebuilt request and reads the whole response.
func (c *conn) do(req []byte) (int, []byte, error) {
	if err := c.c.SetDeadline(time.Now().Add(120 * time.Second)); err != nil {
		return 0, nil, err
	}
	if _, err := c.c.Write(req); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, body, nil
}

func getRequest(path string) []byte {
	return []byte("GET " + path + " HTTP/1.1\r\nHost: bench\r\n\r\n")
}

func postRequest(path, contentType string, body []byte) []byte {
	head := "POST " + path + " HTTP/1.1\r\nHost: bench\r\nContent-Type: " + contentType +
		"\r\nContent-Length: " + strconv.Itoa(len(body)) + "\r\n\r\n"
	return append([]byte(head), body...)
}
