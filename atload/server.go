package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildServer compiles cmd/atserve from the checkout at root into
// <root>/.bench_build and returns the binary's path.
func buildServer(root, buildDir string) (string, error) {
	bin := filepath.Join(buildDir, "atserve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/atserve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/atserve: %v\n%s", err, out)
	}
	return bin, nil
}

// server is one running atserve process.
type server struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	dataDir string
	logPath string
	client  *http.Client
	done    chan struct{} // closed when the process has ended
	BootMS  float64       // exec → /readyz 200
}

// startServer execs the real binary under the fixed configuration, with a
// fresh working directory under runDir, and waits for /readyz.
func startServer(bin, runDir string, w *workload) (*server, error) {
	dir, err := os.MkdirTemp(runDir, "srv-")
	if err != nil {
		return nil, err
	}
	addrFile := filepath.Join(dir, "addr")
	args := append(serverFlags(), "-addr", "127.0.0.1:0", "-addr-file", addrFile)
	s := &server{logPath: filepath.Join(dir, "atserve.log")}
	if w.Durable {
		s.dataDir = filepath.Join(dir, "data")
		args = append(args, "-data-dir", s.dataDir, "-budget", strconv.FormatInt(w.Budget, 10))
	}
	logf, err := os.Create(s.logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting atserve: %w", err)
	}
	s.cmd = cmd
	s.done = make(chan struct{})
	go func() { _ = cmd.Wait(); close(s.done) }() // the exit status is not used: stop signals, early exits report the log
	// One keep-alive connection: the load is a single closed-loop client.
	s.client = &http.Client{Transport: &http.Transport{
		MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1,
		DisableCompression: true,
	}}
	deadline := t0.Add(30 * time.Second)
	for s.base == "" {
		if data, err := os.ReadFile(addrFile); err == nil && bytes.HasSuffix(data, []byte("\n")) {
			s.base = "http://" + strings.TrimSpace(string(data))
			break
		}
		if err := s.exited(); err != nil {
			return nil, err
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, errors.New("atserve did not write its address within 30s")
		}
		time.Sleep(time.Millisecond)
	}
	for {
		resp, err := s.client.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if err := s.exited(); err != nil {
			return nil, err
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, errors.New("atserve not ready within 30s")
		}
		time.Sleep(time.Millisecond)
	}
	s.BootMS = float64(time.Since(t0).Nanoseconds()) / 1e6
	return s, nil
}

// exited reports an error when the process has already ended.
func (s *server) exited() error {
	select {
	case <-s.done:
		log, _ := os.ReadFile(s.logPath)
		return fmt.Errorf("atserve exited early:\n%s", log)
	default:
		return nil
	}
}

// stop ends the process (SIGTERM, then SIGKILL after 10s) and waits for it.
func (s *server) stop() {
	if s == nil || s.cmd == nil {
		return
	}
	s.client.CloseIdleConnections()
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
	s.cmd = nil
}

// cpuSeconds reads utime+stime of the server process from /proc/<pid>/stat.
func (s *server) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the line, i.e. the 12th and 13th after ")".
	i := bytes.LastIndexByte(data, ')')
	f := strings.Fields(string(data[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("unexpected /proc stat line %q", data)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected /proc stat line %q", data)
	}
	const clkTck = 100 // USER_HZ, fixed at 100 on Linux
	return (ut + st) / clkTck, nil
}

// peakRSSMiB reads VmHWM, the resident-set high-water mark.
func (s *server) peakRSSMiB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// scrape reads /metrics into name → value.
func (s *server) scrape() (map[string]float64, error) {
	resp, err := s.client.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// diskBytes sums the regular files under the server's data directory.
func (s *server) diskBytes() (int64, error) {
	var total int64
	err := filepath.WalkDir(s.dataDir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}
