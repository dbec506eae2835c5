package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/front"
	"repro/internal/obs"
	"repro/internal/snapshot"
)

// serverArgs configures one generation of the server under test: the
// schedserve flags the workloads vary. Admission watermarks stay disabled in
// every workload (see README: shedding under overload is timing-dependent
// and would make the report digests unpinnable).
type serverArgs struct {
	Policy   string
	Eps      float64
	Alpha    float64
	Machines int
	Shards   int
	Tenants  int // -await-tenants: the merge starts once all are connected
	SizeHint int

	Checkpoint string // lineage base path ("" disables checkpointing)
	Every      int
	Deltas     int
	Keep       int

	Resume    bool // restore from Checkpoint before serving
	Telemetry bool // serve /metrics on a second listener (-debug-addr)
}

func (a serverArgs) flags(listen, debug string) []string {
	f := []string{
		"-listen", listen,
		"-policy", a.Policy,
		"-eps", strconv.FormatFloat(a.Eps, 'g', -1, 64),
		"-alpha", strconv.FormatFloat(a.Alpha, 'g', -1, 64),
		"-machines", strconv.Itoa(a.Machines),
		"-shards", strconv.Itoa(a.Shards),
		"-await-tenants", strconv.Itoa(a.Tenants),
		"-size-hint", strconv.Itoa(a.SizeHint),
	}
	if a.Checkpoint != "" {
		f = append(f, "-checkpoint", a.Checkpoint,
			"-checkpoint-every", strconv.Itoa(a.Every),
			"-checkpoint-deltas", strconv.Itoa(a.Deltas),
			"-checkpoint-keep", strconv.Itoa(a.Keep))
		if a.Resume {
			f = append(f, "-resume", a.Checkpoint)
		}
	}
	if debug != "" {
		f = append(f, "-debug-addr", debug)
	}
	return f
}

// frontConfig is the same configuration for an in-process front.Server.
func (a serverArgs) frontConfig(reg *obs.Registry) front.Config {
	return front.Config{
		Policy: a.Policy, Epsilon: a.Eps, Alpha: a.Alpha,
		Machines: a.Machines, Shards: a.Shards,
		AwaitTenants: a.Tenants, SizeHint: a.SizeHint,
		CheckpointPath: a.Checkpoint, CheckpointEvery: a.Every,
		CheckpointDeltas: a.Deltas, CheckpointKeep: a.Keep,
		Obs: reg,
	}
}

// newFront builds the in-process server the way cmd/schedserve does: fresh,
// or restored from the checkpoint lineage when Resume is set.
func (a serverArgs) newFront(reg *obs.Registry) (*front.Server, error) {
	cfg := a.frontConfig(reg)
	if !a.Resume {
		return front.New(cfg)
	}
	payload, _, err := snapshot.RecoverLineage(a.Checkpoint)
	if err != nil {
		return nil, err
	}
	return front.Restore(cfg, bytes.NewReader(payload))
}

// usage is what a server generation cost, read when it ends.
type usage struct {
	CPU       time.Duration // user + system
	User      time.Duration
	PeakRSSMB float64
}

// server is one running generation of the server under test: a separately
// exec'd schedserve binary, or (quick mode) a front.Server behind an
// in-process httptest listener.
type server struct {
	url      string
	debugURL string
	startDur time.Duration // exec → /healthz 200

	cmd    *exec.Cmd
	stderr bytes.Buffer
	exited chan error

	hs, ds *httptest.Server
	fs     *front.Server
	cpu0   usage

	peakRSSMB float64 // sampled while the process still exists
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startServer launches one generation and waits until /healthz answers.
// bin == "" selects the in-process server.
func startServer(bin string, a serverArgs) (*server, error) {
	start := time.Now()
	s := &server{}
	if bin == "" {
		var reg *obs.Registry
		if a.Telemetry {
			reg = obs.NewRegistry()
		}
		fs, err := a.newFront(reg)
		if err != nil {
			return nil, err
		}
		s.fs, s.cpu0 = fs, selfUsage()
		s.hs = httptest.NewServer(fs.Handler())
		s.url = s.hs.URL
		if reg != nil {
			s.ds = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				reg.WritePrometheus(w)
			}))
			s.debugURL = s.ds.URL
		}
		s.startDur = time.Since(start)
		return s, nil
	}
	listen, err := freeAddr()
	if err != nil {
		return nil, err
	}
	debug := ""
	if a.Telemetry {
		if debug, err = freeAddr(); err != nil {
			return nil, err
		}
		s.debugURL = "http://" + debug
	}
	s.url = "http://" + listen
	s.cmd = exec.Command(bin, a.flags(listen, debug)...)
	s.cmd.Stderr = &s.stderr
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	s.exited = make(chan error, 1)
	go func() { s.exited <- s.cmd.Wait() }()
	deadline := start.Add(20 * time.Second)
	for {
		select {
		case err := <-s.exited:
			return nil, fmt.Errorf("schedserve exited during start-up: %v: %s", err, strings.TrimSpace(s.stderr.String()))
		default:
		}
		if c, err := net.DialTimeout("tcp", listen, time.Second); err == nil {
			c.Close()
			resp, err := httpc.Get(s.url + "/healthz")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
		}
		if time.Now().After(deadline) {
			s.cmd.Process.Kill()
			<-s.exited
			return nil, fmt.Errorf("schedserve not ready after 20s: %s", strings.TrimSpace(s.stderr.String()))
		}
		time.Sleep(500 * time.Microsecond)
	}
	s.startDur = time.Since(start)
	return s, nil
}

// sample reads the live thread count and records the peak resident set of
// the server process. The peak comes from VmHWM while the process exists, not
// from wait4's ru_maxrss: a child's ru_maxrss starts at its parent's peak
// (exec folds the old address space's high-water mark into it), so it would
// report this generator's memory, not the server's.
func (s *server) sample() (threads int) {
	pid := os.Getpid()
	if s.cmd != nil {
		pid = s.cmd.Process.Pid
	}
	s.peakRSSMB = max(s.peakRSSMB, procStatus(pid, "VmHWM:")/1024)
	return int(procStatus(pid, "Threads:"))
}

// end collects the generation's cost once its process (or in-process
// server) is gone.
func (s *server) end() (usage, error) {
	if s.cmd == nil {
		now := selfUsage()
		return usage{CPU: now.CPU - s.cpu0.CPU, User: now.User - s.cpu0.User, PeakRSSMB: now.PeakRSSMB}, nil
	}
	st := s.cmd.ProcessState
	u := usage{CPU: st.UserTime() + st.SystemTime(), User: st.UserTime(), PeakRSSMB: s.peakRSSMB}
	if strings.Contains(s.stderr.String(), "panic") {
		return u, fmt.Errorf("schedserve panicked: %s", strings.TrimSpace(s.stderr.String()))
	}
	return u, nil
}

// crash kills the generation the way a power cut does — SIGKILL, nothing
// flushed — without waiting for it; reap collects the remains. Safe to call
// from a connection's reader goroutine. The in-process stand-in drains first
// (Drain aborts every stream in one critical section, so no tenant runs ahead
// of the others and the decided jobs stay a prefix of the merged order, as
// they are when a process dies) and then severs the connections. Its restored
// prefix is therefore everything decided so far rather than the last periodic
// checkpoint: the replay's dup count differs, the final report does not.
func (s *server) crash() {
	if s.cmd == nil {
		go func() {
			s.fs.Drain() // reap reports its error
			s.hs.CloseClientConnections()
		}()
		return
	}
	s.sample()
	s.cmd.Process.Kill()
}

// reap waits for a crashed generation to be gone and returns what it cost.
func (s *server) reap() (usage, error) {
	if s.cmd == nil {
		_, err := s.fs.Drain()
		s.closeInproc()
		u, _ := s.end()
		return u, err
	}
	<-s.exited
	return s.end()
}

// stop ends a drained generation gracefully (SIGTERM: schedserve re-emits
// its report on stdout and exits 0).
func (s *server) stop() (usage, error) {
	if s.cmd == nil {
		s.closeInproc()
		return s.end()
	}
	s.sample()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return usage{}, err
	}
	select {
	case err := <-s.exited:
		u, uerr := s.end()
		if err != nil {
			return u, fmt.Errorf("schedserve exit: %v: %s", err, strings.TrimSpace(s.stderr.String()))
		}
		return u, uerr
	case <-time.After(30 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
		return usage{}, errors.New("schedserve ignored SIGTERM for 30s")
	}
}

func (s *server) closeInproc() {
	s.hs.Close()
	if s.ds != nil {
		s.ds.Close()
	}
}

// buildServer compiles cmd/schedserve once, before any timed window.
func buildServer(root, outDir string) (bin string, dur time.Duration, err error) {
	bin = filepath.Join(outDir, "bin", "schedserve")
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/schedserve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("building schedserve: %v: %s", err, bytes.TrimSpace(out))
	}
	abs, err := filepath.Abs(bin)
	return abs, time.Since(start), err
}

// selfUsage reads this process's CPU time and peak resident set.
func selfUsage() usage {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	user := time.Duration(ru.Utime.Nano())
	// VmHWM rather than ru_maxrss: only the former restarts on resetPeakRSS.
	return usage{CPU: user + time.Duration(ru.Stime.Nano()), User: user, PeakRSSMB: procStatus(os.Getpid(), "VmHWM:") / 1024}
}

// resetPeakRSS asks the kernel to restart this process's peak-RSS watermark
// at its current resident set, so a workload run late in a multi-workload
// process does not inherit an earlier workload's peak. Best effort: where the
// kernel refuses, the watermark simply keeps its history.
func resetPeakRSS() {
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// procStatus reads one numeric field of /proc/<pid>/status (kB for the
// memory fields; 0 when absent).
func procStatus(pid int, field string) float64 {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				v, _ := strconv.ParseFloat(f[0], 64)
				return v
			}
		}
	}
	return 0
}
