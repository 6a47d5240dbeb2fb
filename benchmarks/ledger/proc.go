package main

import (
	"bufio"
	"bytes"
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
)

const (
	roleFlagPrefix = "-role="
	readyPrefix    = "READY "
	startDeadline  = 60 * time.Second // the market generates its dataset first
	stopDeadline   = 15 * time.Second
)

// child is one role running as its own OS process, so its CPU and heap are
// its own. Closing stdin is the parent-death signal: the role exits when the
// pipe reaches EOF, however the driver died.
type child struct {
	cmd   *exec.Cmd
	stdin io.Closer
	url   string
}

// supervisor owns every child and every scratch path of one run and
// releases them on every exit path.
type supervisor struct {
	root string // work root, shared by consecutive runs (holds the pid file)
	dir  string // this run's scratch directory, removed on close

	mu       sync.Mutex
	children []*child
}

func pidFile(root string) string { return filepath.Join(root, "children.pids") }

// liveChildren lists pids from a previous run's pid file that still are
// ledger roles: a recycled pid running anything else does not count.
func liveChildren(root string) []int {
	data, err := os.ReadFile(pidFile(root))
	if err != nil {
		return nil
	}
	var live []int
	for _, f := range strings.Fields(string(data)) {
		pid, err := strconv.Atoi(f)
		if err != nil {
			continue
		}
		cmdline, err := os.ReadFile(fmt.Sprintf("/proc/%d/cmdline", pid))
		if err == nil && bytes.Contains(cmdline, []byte(roleFlagPrefix)) {
			live = append(live, pid)
		}
	}
	return live
}

func newSupervisor(root string) (*supervisor, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	if live := liveChildren(root); len(live) > 0 {
		return nil, fmt.Errorf("children of a previous run are still alive (pids %v, listed in %s): kill them first", live, pidFile(root))
	}
	// Nothing of an earlier run is alive: what it left behind (it can only
	// have been killed outright) is garbage.
	stale, _ := filepath.Glob(filepath.Join(root, "run-*"))
	for _, dir := range stale {
		os.RemoveAll(dir)
	}
	if err := os.WriteFile(pidFile(root), nil, 0o644); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(root, "run-")
	if err != nil {
		return nil, err
	}
	return &supervisor{root: root, dir: dir}, nil
}

// spawn starts this binary in a role and waits until it reports the
// loopback address it bound and answers healthPath.
func (s *supervisor) spawn(role, healthPath string, header http.Header, args ...string) (*child, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, append([]string{roleFlagPrefix + role}, args...)...)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", role, err)
	}
	c := &child{cmd: cmd, stdin: stdin}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	f, err := os.OpenFile(pidFile(s.root), os.O_APPEND|os.O_WRONLY, 0o644)
	if err == nil {
		fmt.Fprintln(f, cmd.Process.Pid)
		err = f.Close()
	}
	if err != nil {
		s.stop(c)
		return nil, fmt.Errorf("record %s pid: %w", role, err)
	}

	ready := make(chan string, 1)
	go func() {
		line, _ := bufio.NewReader(stdout).ReadString('\n')
		ready <- strings.TrimSpace(line)
		io.Copy(io.Discard, stdout)
	}()
	deadline := time.Now().Add(startDeadline)
	select {
	case line := <-ready:
		url, ok := strings.CutPrefix(line, readyPrefix)
		if !ok {
			s.stop(c)
			return nil, fmt.Errorf("%s exited before it was ready (said %q)", role, line)
		}
		c.url = url
	case <-time.After(startDeadline):
		s.stop(c)
		return nil, fmt.Errorf("%s not ready within %v", role, startDeadline)
	}
	if err := waitHealthy(c.url+healthPath, header, deadline); err != nil {
		s.stop(c)
		return nil, fmt.Errorf("%s: %w", role, err)
	}
	return c, nil
}

func waitHealthy(url string, header http.Header, deadline time.Time) error {
	for {
		req, err := http.NewRequest(http.MethodGet, url, nil)
		if err != nil {
			return err
		}
		req.Header = header
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("HTTP %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy by the deadline: %w", url, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// stop asks the child to shut down (SIGTERM drains the daemon and closes
// its store), kills it if it will not, and reaps it either way.
func (s *supervisor) stop(c *child) error {
	s.mu.Lock()
	for i, x := range s.children {
		if x == c {
			s.children = append(s.children[:i], s.children[i+1:]...)
			break
		}
	}
	s.mu.Unlock()
	c.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- c.cmd.Wait() }()
	var err error
	select {
	case err = <-done:
	case <-time.After(stopDeadline):
		c.cmd.Process.Kill()
		<-done
		err = errors.New("did not exit on SIGTERM, killed")
	}
	c.stdin.Close()
	return err
}

// kill ends a child that is not worth a clean shutdown and reaps it.
func (s *supervisor) kill(c *child) {
	c.cmd.Process.Kill()
	s.stop(c)
}

// close kills and reaps whatever is still running and removes the scratch
// directory and the pid file. Safe to call more than once.
func (s *supervisor) close() {
	s.mu.Lock()
	rest := append([]*child(nil), s.children...)
	s.mu.Unlock()
	for _, c := range rest {
		s.kill(c)
	}
	os.RemoveAll(s.dir)
	os.Remove(pidFile(s.root))
}
