package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"
)

// serve-small's ops are short and cross two processes: each wakes
// threads on both vCPUs several times and waits for four fsyncs. When
// the hypervisor steals CPU, a vCPU it has paused stalls whatever op
// touches it for milliseconds, and fsyncs slow with the host's disk.
// Such stalls stretch a 2 ms op far more than the reference kernel's
// 4 ms of computation, above all at the tail: at 15-35% steal the
// kernel-normalized p90 still read 1.5-2.2 times its quiet value.
//
// So serve-small times a second reference, a null op of the same
// shape: three round trips over one loopback TCP connection to a null
// server, a child process of the benchmark, which appends a 300-byte
// record and fsyncs it four times in all and computes about 1.2 ms of
// the reference kernel. The null server is the benchmark's own code,
// so no change to the program moves it. Each latency percentile and
// throughput of serve-small is scaled by the matching percentile or
// mean of the null ops in the same run, against its value on a quiet
// host.

const (
	// nullOpEvery is the least time between two null ops.
	nullOpEvery = 20 * time.Millisecond
	// nullRecord is the size of one record the null server appends.
	nullRecord = 300
	// nullNominalP50, nullNominalP90 and nullNominalMean are the null
	// op's times in ms that count as a slowdown of 1. They are set so
	// that on a quiet reference host (see refNominal) serve-small's
	// normalized times read about as its raw ones: measured at 6-13%
	// steal, the null op took 1.16 times serve-small's op at p50 and
	// p90, and serve-small's quiet op took 1.95 ms at p50 and 2.45 ms
	// at p90.
	nullNominalP50  = 2.25
	nullNominalP90  = 2.85
	nullNominalMean = 2.4
)

// nullSteps is what the null server does for each request: how many
// records it appends and fsyncs, and how many steps of the reference
// kernel it computes. The three requests mirror serve-small's POST
// (job record), SSE wait (running and result records, the synthesis)
// and GET (evict record).
var nullSteps = map[byte]struct{ appends, steps int }{
	's': {1, 22_000},
	'e': {2, 52_000},
	'g': {1, 15_000},
}

// nullServer is the body of the null server process: it serves one
// connection until the benchmark closes it, keeping its records in a
// file under dir that it removes on exit.
func nullServer(dir string) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	fmt.Println(ln.Addr())
	conn, err := ln.Accept()
	ln.Close()
	if err != nil {
		return err
	}
	defer conn.Close()
	f, err := os.CreateTemp(dir, "null-wal-")
	if err != nil {
		return err
	}
	defer os.Remove(f.Name())
	defer f.Close()

	next, p := refTable(), uint32(0)
	record := bytes.Repeat([]byte{'x'}, nullRecord)
	rd := bufio.NewReader(conn)
	for {
		line, err := rd.ReadString('\n')
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		work, ok := nullSteps[line[0]]
		if !ok {
			return fmt.Errorf("null server: unknown request %q", line)
		}
		for k := 0; k < work.appends; k++ {
			if _, err := f.Write(record); err != nil {
				return err
			}
			if err := f.Sync(); err != nil {
				return err
			}
		}
		p = refWork(next, p, work.steps)
		if _, err := conn.Write([]byte("ok\n")); err != nil {
			return err
		}
	}
}

// nullOps runs null ops against a null server child process and keeps
// their times.
type nullOps struct {
	cmd  *exec.Cmd
	conn net.Conn
	rd   *bufio.Reader
	last time.Time
	lat  []float64 // ms per null op
}

// startNullOps starts a null server keeping its records under dir and
// connects to it.
func startNullOps(dir string) (*nullOps, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "--null-server", dir)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start null server: %w", err)
	}
	n := &nullOps{cmd: cmd}
	addr, err := bufio.NewReader(out).ReadString('\n')
	if err == nil {
		n.conn, err = net.Dial("tcp", strings.TrimSpace(addr))
	}
	if err != nil {
		n.stop()
		return nil, fmt.Errorf("connect to null server: %w", err)
	}
	n.rd = bufio.NewReader(n.conn)
	return n, nil
}

// maybeRun runs a null op if nullOpEvery has passed since the last
// one. It returns the time it took, which the caller leaves out of the
// timed phase.
func (n *nullOps) maybeRun() (time.Duration, error) {
	if time.Since(n.last) < nullOpEvery {
		return 0, nil
	}
	t0 := time.Now()
	for _, req := range []byte("seg") {
		if _, err := n.conn.Write([]byte{req, '\n'}); err != nil {
			return 0, fmt.Errorf("null op: %w", err)
		}
		if _, err := n.rd.ReadString('\n'); err != nil {
			return 0, fmt.Errorf("null op: %w", err)
		}
	}
	n.last = time.Now()
	d := n.last.Sub(t0)
	n.lat = append(n.lat, ms(d))
	return d, nil
}

// factors are the run's host slowdowns for serve-small's p50, p90 and
// throughput: the null ops' p50, p90 and mean over their quiet values.
func (n *nullOps) factors() (p50, p90, mean float64) {
	sum := 0.0
	for _, v := range n.lat {
		sum += v
	}
	return percentile(n.lat, 50) / nullNominalP50,
		percentile(n.lat, 90) / nullNominalP90,
		sum / float64(len(n.lat)) / nullNominalMean
}

// stop closes the connection, which ends the null server, and waits
// for it to exit.
func (n *nullOps) stop() {
	if n.conn != nil {
		n.conn.Close()
	}
	done := make(chan struct{})
	go func() {
		_ = n.cmd.Wait() // it exits 0 on EOF; a failure shows on stderr
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		_ = n.cmd.Process.Kill()
		<-done
	}
}
