package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat; it
// is 100 on every mainstream Linux architecture.
const clockTicks = 100

// server is one advhunter serve or cluster child process.
type server struct {
	cmd   *exec.Cmd
	base  string        // http://127.0.0.1:port
	setup time.Duration // exec to first /readyz 200
	log   *os.File
	done  chan error // receives cmd.Wait's result once
}

// live tracks every started child, so stopAll can end them on any exit path.
var live struct {
	sync.Mutex
	set map[*server]bool
}

var announce = regexp.MustCompile(` on (127\.0\.0\.1:\d+) `)

// boot starts bin with args (plus a loopback listen address), logs its
// stderr to logPath, and waits for the first /readyz 200. It reports the time
// from exec to that answer as the set-up time.
func boot(bin string, args []string, logPath string) (*server, error) {
	lf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append(args, "-addr", "127.0.0.1:0")...)
	cmd.Stderr = lf
	// A child outliving a killed benchmark would skew whatever runs next.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		lf.Close()
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	s := &server{cmd: cmd, log: lf, done: make(chan error, 1)}
	live.Lock()
	if live.set == nil {
		live.set = make(map[*server]bool)
	}
	live.set[s] = true
	live.Unlock()

	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			fmt.Fprintln(lf, sc.Text())
			if m := announce.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case addr <- m[1]:
				default:
				}
			}
		}
		s.done <- cmd.Wait()
	}()

	select {
	case a := <-addr:
		s.base = "http://" + a
	case err := <-s.done:
		s.done <- err
		s.stop()
		return nil, fmt.Errorf("%s exited before announcing its address (%v); see %s", args[0], err, logPath)
	case <-time.After(2 * time.Minute):
		s.stop()
		return nil, fmt.Errorf("%s did not announce its address within 2m; see %s", args[0], logPath)
	}
	probe := &http.Client{Timeout: time.Second}
	for deadline := time.Now().Add(time.Minute); ; {
		resp, err := probe.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("%s never answered /readyz 200", s.base)
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.setup = time.Since(start)
	return s, nil
}

// stop drains the child with SIGTERM, kills it if it outlives 30 s, and waits
// for it to exit.
func (s *server) stop() {
	live.Lock()
	delete(live.set, s)
	live.Unlock()
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(30 * time.Second):
		s.cmd.Process.Kill()
		<-s.done
	}
	s.log.Close()
}

// stopAll stops every child still running.
func stopAll() {
	live.Lock()
	var all []*server
	for s := range live.set {
		all = append(all, s)
	}
	live.Unlock()
	for _, s := range all {
		s.stop()
	}
}

// cpuTime is the child's user+system CPU time so far.
func (s *server) cpuTime() (time.Duration, error) {
	raw, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(s.cmd.Process.Pid), "stat"))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3 (state);
	// utime and stime are fields 14 and 15.
	f := strings.Fields(string(raw[strings.LastIndexByte(string(raw), ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	var ticks int64
	for _, v := range f[11:13] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, err
		}
		ticks += n
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// peakRSS is the child's resident-set high-water mark (VmHWM) in MB.
func (s *server) peakRSS() (float64, error) {
	raw, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(s.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}
