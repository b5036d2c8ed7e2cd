package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/client"
)

// server is one kcored child process.
type server struct {
	cmd         *exec.Cmd
	addr        string
	metricsAddr string // "" unless started with -metrics-addr
	exited      chan struct{}
}

// freeAddrs finds n distinct free loopback ports: it binds them all at
// once, so no two can be the same, and releases them for the child.
func freeAddrs(n int) ([]string, error) {
	var addrs []string
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer l.Close()
		addrs = append(addrs, l.Addr().String())
	}
	return addrs, nil
}

// logTail returns the end of a child's log for an error message.
func logTail(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return err.Error()
	}
	if len(b) > 1024 {
		b = b[len(b)-1024:]
	}
	return strings.TrimSpace(string(b))
}

// startServer spawns bin with flags plus a fresh -addr port — and, when
// metrics is set, a fresh -metrics-addr port — and returns once the
// server answers PING, with the time from spawn to that first reply.
func startServer(bin string, flags []string, metrics bool, logPath string) (*server, time.Duration, error) {
	ports, err := freeAddrs(2)
	if err != nil {
		return nil, 0, err
	}
	addr, maddr := ports[0], ports[1]
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close() // the child holds its own descriptor
	args := []string{"-addr", addr}
	if metrics {
		args = append(args, "-metrics-addr", maddr)
	} else {
		maddr = ""
	}
	args = append(args, flags...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The child dies with the benchmark, even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start kcored: %w", err)
	}
	s := &server{cmd: cmd, addr: addr, metricsAddr: maddr, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // exit status is irrelevant: the benchmark kills it
		close(s.exited)
	}()
	for {
		if pingOnce(addr) {
			return s, time.Since(start), nil
		}
		select {
		case <-s.exited:
			return nil, 0, fmt.Errorf("kcored exited before serving: %s", logTail(logPath))
		case <-time.After(time.Millisecond):
		}
		if time.Since(start) > 120*time.Second {
			s.kill()
			return nil, 0, fmt.Errorf("kcored not ready after 120s: %s", logTail(logPath))
		}
	}
}

func pingOnce(addr string) bool {
	c, err := client.Dial(addr, client.WithDialTimeout(time.Second))
	if err != nil {
		return false
	}
	defer c.Close()
	v, err := c.Do("PING")
	return err == nil && string(v.Str) == "PONG"
}

// kill sends SIGKILL and waits for the process to exit.
func (s *server) kill() {
	_ = s.cmd.Process.Kill() // fails only if it already exited
	<-s.exited
}

// vmHWM returns the process's peak resident set size in MB, from
// /proc/<pid>/status.
func (s *server) vmHWM() (float64, error) {
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
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.cmd.Process.Pid)
}

// stats returns the server's CORE.STATS reply as a key/value map.
func (s *server) stats() (map[string]string, error) {
	c, err := client.Dial(s.addr)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	v, err := c.Do("CORE.STATS")
	if err != nil {
		return nil, err
	}
	m, err := client.StringMap(v, nil)
	if err != nil {
		return nil, fmt.Errorf("CORE.STATS: %w", err)
	}
	return m, nil
}
