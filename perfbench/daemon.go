package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"predmatch/internal/client"
)

// daemon is one predmatchd child process serving a data directory on
// a fixed loopback port, so a restart is reachable at the same address.
type daemon struct {
	bin   string
	dir   string
	addr  string
	admin string // admin listen address; empty = -admin off
	extra []string
	log   string // stderr of every incarnation, appended

	cmd  *exec.Cmd
	done chan struct{} // closed when cmd has been waited for
}

// freePort asks the kernel for an unused loopback port.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// newDaemon prepares (but does not start) a daemon on a fresh data dir.
// traced turns the admin listener and head-sampled tracing on.
func newDaemon(bin, dir string, traced bool) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	d := &daemon{bin: bin, dir: dir, addr: addr, log: dir + ".log"}
	if traced {
		if d.admin, err = freePort(); err != nil {
			return nil, err
		}
		d.extra = []string{"-admin", d.admin, "-trace-sample", "16"}
	}
	return d, nil
}

// start execs the daemon on the tree's defaults (-index ibs, -fsync
// always) and returns once the process exists; it does not wait for
// recovery.
func (d *daemon) start() error {
	if d.cmd != nil {
		return errors.New("daemon already running")
	}
	logf, err := os.OpenFile(d.log, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	args := append([]string{"-addr", d.addr, "-data-dir", d.dir, "-index", "ibs", "-fsync", "always"}, d.extra...)
	cmd := exec.Command(d.bin, args...)
	cmd.Stderr = logf
	// If perfbench dies without cleaning up, the daemon dies with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return fmt.Errorf("start %s: %w", d.bin, err)
	}
	d.cmd = cmd
	d.done = make(chan struct{})
	go func() {
		_ = cmd.Wait() // a SIGKILLed daemon exits with an error by design
		logf.Close()
		close(d.done)
	}()
	return nil
}

// waitReady polls until a client can dial and ping the daemon, or the
// process exits, or the timeout passes.
func (d *daemon) waitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		c, err := client.Dial(d.addr)
		if err == nil {
			return c.Close()
		}
		select {
		case <-d.done:
			return fmt.Errorf("daemon exited before serving (see %s): %s", d.log, d.tail())
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon not ready after %v: %v", timeout, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// kill SIGKILLs the daemon and waits for it to be reaped. Safe to call
// on a daemon that is not running.
func (d *daemon) kill() {
	if d.cmd == nil {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGKILL) // fails only if already exited
	<-d.done
	d.cmd = nil
}

// peakRSSMB reads the daemon's peak resident set (VmHWM) in MB.
func (d *daemon) peakRSSMB() (float64, error) {
	if d.cmd == nil {
		return 0, errors.New("daemon not running")
	}
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
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
	return 0, errors.New("VmHWM not found")
}

// tail returns the last lines of the daemon's stderr, for errors.
func (d *daemon) tail() string {
	b, _ := os.ReadFile(d.log) // best effort: only decorates an error
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) > 5 {
		lines = lines[len(lines)-5:]
	}
	return strings.Join(lines, " | ")
}

// dirSizeMB sums the sizes of the regular files under dir.
func dirSizeMB(dir string) (float64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, de os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if de.Type().IsRegular() {
			info, err := de.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return float64(total) / (1 << 20), err
}
