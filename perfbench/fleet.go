package main

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/client"
)

// fleet is one running coordinator plus its sbst-worker processes,
// launched from the shipped binaries with default flags except
// addresses and paths (and the workload's -journal/-distributed/
// -queue-workers choices and the workers' -workers 1).
type fleet struct {
	coord       *proc
	workers     []*proc
	url         string
	client      *client.Client
	workerAddrs []string // worker metrics listeners (traced runs only)
}

type proc struct {
	cmd      *exec.Cmd
	done     chan struct{}
	log      *os.File
	stopOnce sync.Once
}

// startProc runs bin in dir, logging to dir/logName; a daemon's
// relative paths and temporary files stay in its run directory.
func startProc(bin string, args []string, dir, logName string) (*proc, error) {
	logf, err := os.Create(filepath.Join(dir, logName))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "TMPDIR="+dir)
	cmd.Stdout, cmd.Stderr = logf, logf
	// A benchmark killed outright still takes its daemons down with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", filepath.Base(bin), err)
	}
	p := &proc{cmd: cmd, done: make(chan struct{}), log: logf}
	go func() {
		_ = cmd.Wait() // exit status is judged by the caller via the log
		close(p.done)
	}()
	return p, nil
}

// stop sends SIGTERM, waits for a graceful exit, and kills the process
// if it has not exited in time. It returns once the process is gone.
func (p *proc) stop() {
	p.stopOnce.Do(func() {
		_ = p.cmd.Process.Signal(syscall.SIGTERM) // already exited: nothing to stop
		select {
		case <-p.done:
		case <-time.After(10 * time.Second):
			_ = p.cmd.Process.Kill()
			<-p.done
		}
		p.log.Close()
	})
}

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	l.Close()
	return addr, nil
}

// startFleet launches the workload's coordinator and workers under dir
// (journal and logs live there) and returns once the coordinator
// answers GET /v1/meta.
func startFleet(ctx context.Context, binDir, dir string, w *workload, metricsListeners bool) (*fleet, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args := []string{"-addr", addr}
	if w.journal {
		args = append(args, "-journal", filepath.Join(dir, "journal.wal"))
	}
	if w.workers > 0 {
		args = append(args, "-distributed")
	}
	if w.queueWorkers > 0 {
		args = append(args, "-queue-workers", strconv.Itoa(w.queueWorkers))
	}
	coord, err := startProc(filepath.Join(binDir, "sbstd"), args, dir, "sbstd.log")
	if err != nil {
		return nil, err
	}
	f := &fleet{coord: coord, url: "http://" + addr}
	f.client = client.New(f.url, client.Options{})
	if err := f.waitReady(ctx); err != nil {
		f.stop()
		return nil, err
	}
	for i := 0; i < w.workers; i++ {
		// One shard per work unit: the worker is the fleet's one compute
		// thread (see workload).
		wargs := []string{"-coordinator", f.url, "-id", fmt.Sprintf("bench-w%d", i), "-workers", "1"}
		if metricsListeners {
			maddr, err := freeAddr()
			if err != nil {
				f.stop()
				return nil, err
			}
			wargs = append(wargs, "-metrics-addr", maddr)
			f.workerAddrs = append(f.workerAddrs, maddr)
		}
		p, err := startProc(filepath.Join(binDir, "sbst-worker"), wargs, dir, fmt.Sprintf("worker%d.log", i))
		if err != nil {
			f.stop()
			return nil, err
		}
		f.workers = append(f.workers, p)
	}
	return f, nil
}

func (f *fleet) waitReady(ctx context.Context) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		cctx, cancel := context.WithTimeout(ctx, time.Second)
		_, err := f.client.Meta(cctx)
		cancel()
		if err == nil {
			return nil
		}
		if f.coord.exited() || time.Now().After(deadline) || ctx.Err() != nil {
			return fmt.Errorf("coordinator not ready (see %s): %v", f.coord.log.Name(), err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// peakRSSMB reads the coordinator's peak resident set (VmHWM).
func (f *fleet) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", f.coord.cmd.Process.Pid))
	if err != nil {
		return 0, fmt.Errorf("coordinator status: %w", err)
	}
	sc := bufio.NewScanner(strings.NewReader(string(data)))
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("coordinator status has no VmHWM")
}

// stop terminates the workers, then the coordinator, waiting for each.
func (f *fleet) stop() {
	for _, w := range f.workers {
		w.stop()
	}
	f.coord.stop()
}
