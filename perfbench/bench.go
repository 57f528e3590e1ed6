package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/durable"
	"repro/internal/service"
)

// Set-up and recovery are repeated and reported as medians, so one
// slow file-system call does not decide the figure.
const (
	setupRepeats    = 7
	recoveryRepeats = 7
)

// fsyncPolicy is the WAL flush policy of a server with a data
// directory.  hyperd's default is always; on a memory-backed file
// system an fsync costs next to nothing, so never stands in for the
// memory-backed data directory the benchmark cannot mount inside its
// checkout, and the journal figures measure the program, not the
// shared disk.  The fsync-always variant restores the default for a
// reference figure.
var fsyncPolicy = durable.FsyncNever

// newServer opens a server configured as hyperd's default flags
// configure it (256-step partition dispatch, 1 GiB frontier budget,
// 1 min solve timeout).  An empty dir gives hyperd's default in-memory
// server; otherwise dir is its data directory.
func newServer(dir string) (*service.Server, error) {
	return service.Open(service.Config{
		QueueDepth:       256,
		CacheEntries:     1024,
		MaxSolveTimeout:  time.Minute,
		MaxFrontierBytes: 1 << 30,
		BreakerThreshold: 5,
		BreakerCooldown:  10 * time.Second,
		MaxSessions:      64,
		SessionBytes:     64 << 20,
		PartitionSteps:   256,
		DataDir:          dir,
		Fsync:            fsyncPolicy,
		FsyncInterval:    100 * time.Millisecond,
		WALSegmentBytes:  8 << 20,
	})
}

// workloadState is one workload's seeded inputs and recorded answers.
type workloadState interface {
	// round runs client c's r-th round of operations.
	round(c, r int, log *opLog)
	// check verifies every recorded answer; exact answers are queued on
	// the returned list for the reference DP.
	check() ([]exactCheck, []error)
	// probeSample lists the inputs the traced run calls each layer on.
	probeSample() []probeItem
}

type workloadDef struct {
	clients int
	// rssRound is the round after which client 0 reads the peak RSS.
	// A fixed round, not the end of the window, so the figure covers
	// the same work (and the same number of retained jobs) however
	// fast the window ran; every run reaches it well inside 20 s.
	rssRound int
	// durable workloads run on a server with a data directory; the
	// others on hyperd's default in-memory server.
	durable bool
	prepare func(b *bench) (workloadState, error)
}

var workloads = map[string]workloadDef{
	"solve-cold":     {clients: 1, rssRound: 150, prepare: prepareSolveCold},
	"twin-hits":      {clients: 2, rssRound: 100, prepare: prepareTwinHits},
	"stream-journal": {clients: 1, rssRound: 150, durable: true, prepare: prepareStreamJournal},
}

// bench is one run.
type bench struct {
	w       workloadDef
	seed    int64
	seconds int
	dir     string
	tr      *tracer

	srv     *service.Server
	h       http.Handler
	dataDir string // the current server's data directory, "" in memory

	// calls counts requests to the current server, set-up included.
	calls atomic.Int64
}

// opLog is one client's record of the window.
type opLog struct {
	lat       []float64   // ms per operation
	at        []time.Time // completion time per operation
	attempted int64
	failed    int64
	costPct   []float64 // reported cost as % of the disabled cost
	errs      []error   // failed operations
	bad       []error   // answers that failed a check
}

// ok records a completed operation's latency.
func (l *opLog) ok(d time.Duration) {
	l.lat = append(l.lat, float64(d)/float64(time.Millisecond))
	l.at = append(l.at, time.Now())
}

func (l *opLog) fail(err error) {
	l.failed++
	if len(l.errs) < 8 {
		l.errs = append(l.errs, err)
	}
}

func (l *opLog) wrong(err error) {
	if len(l.bad) < 8 {
		l.bad = append(l.bad, err)
	}
}

// call sends one request through the server's handler and returns the
// status, body and latency.  Traced runs record a span per request and
// keep a sample of the bodies, whose wire decode and encode are timed
// after the window.
func (b *bench) call(method, path string, body []byte, span string) (int, []byte, time.Duration) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	b.calls.Add(1)
	t0 := time.Now()
	b.h.ServeHTTP(rec, req)
	d := time.Since(t0)
	if b.tr != nil {
		op := b.tr.op()
		id := b.tr.add(span, op, 0, t0, t0.Add(d))
		b.tr.sample(wireSample{op: op, parent: id, path: path, req: body, resp: rec.Body.Bytes(), total: d})
	}
	return rec.Code, rec.Body.Bytes(), d
}

func (b *bench) run() (*result, error) {
	// Set-up: open a server and build the workload's inputs, several
	// times; the window runs on the last one.
	var (
		setups []float64
		st     workloadState
	)
	for k := 0; k < setupRepeats; k++ {
		if b.srv != nil {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			b.srv.Shutdown(ctx)
			cancel()
		}
		b.dataDir = ""
		if b.w.durable {
			b.dataDir = filepath.Join(b.dir, fmt.Sprintf("data-%d", k))
		}
		t0 := time.Now()
		srv, err := newServer(b.dataDir)
		if err != nil {
			return nil, err
		}
		b.srv, b.h = srv, srv.Handler()
		b.calls.Store(0)
		st, err = b.w.prepare(b)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	if b.tr != nil {
		b.tr.reset()
	}
	runtime.GC()
	before := scrape(b.h)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()

	logs := make([]*opLog, b.w.clients)
	window := time.Duration(b.seconds) * time.Second
	t0 := time.Now()
	deadline := t0.Add(window)
	cpuMarks := sampleCPU(window/slices, slices)
	var (
		wg  sync.WaitGroup
		rss float64
	)
	for c := range logs {
		logs[c] = &opLog{}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; time.Now().Before(deadline); r++ {
				st.round(c, r, logs[c])
				if c == 0 && r+1 == b.w.rssRound {
					rss = peakRSSMiB()
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(t0)
	cpu := cpuTime() - cpu0
	marks := <-cpuMarks
	runtime.ReadMemStats(&ms1)
	if rss == 0 {
		rss = peakRSSMiB() // a window too short to reach rssRound
	}
	after := scrape(b.h)

	all := &opLog{}
	for _, l := range logs {
		all.lat = append(all.lat, l.lat...)
		all.at = append(all.at, l.at...)
		all.attempted += l.attempted
		all.failed += l.failed
		all.costPct = append(all.costPct, l.costPct...)
		all.errs = append(all.errs, l.errs...)
		all.bad = append(all.bad, l.bad...)
	}
	if all.attempted == 0 {
		return nil, fmt.Errorf("no operation completed in the window")
	}
	ops := float64(all.attempted)

	var layers map[string]metric
	if b.tr != nil {
		layers = b.tr.window(before, after, all, ms1.TotalAlloc-ms0.TotalAlloc, ms1.NumGC-ms0.NumGC)
		if err := b.probe(st.probeSample(), layers); err != nil {
			return nil, fmt.Errorf("probe: %w", err)
		}
		b.tr.durable(scrape(b.h), b.calls.Load(), layers)
		noRecovery(layers)
	}

	errs := all.bad
	if sj, ok := st.(*streamJournal); ok {
		rerrs, err := sj.recover(layers)
		if err != nil {
			return nil, fmt.Errorf("recovery: %w", err)
		}
		errs = append(errs, rerrs...)
	}

	exact, cerrs := st.check()
	errs = append(errs, cerrs...)
	o := &optima{m: map[string]int64{}}
	errs = append(errs, o.verify(exact, filepath.Join(b.dir, "optima.txt"))...)
	// Failed operations are counted, not judged: correctness speaks of
	// the answers that came back.
	for i, err := range append(append([]error(nil), errs...), all.errs...) {
		if i == 8 {
			fmt.Fprintln(os.Stderr, "perfbench: ... more errors")
			break
		}
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}

	sl := sliceStats(all, t0, window, marks)
	e2e := map[string]metric{
		"throughput_ops":       {sl.throughput, "1/s"},
		"p50_ms":               {sl.p50, "ms"},
		"cpu_ms_per_op":        {sl.cpuPerOp, "ms"},
		"peak_rss_mib":         {rss, "MiB"},
		"setup_s":              {median(setups), "s"},
		"cost_pct_of_disabled": {mean(all.costPct), "%"},
	}
	// p99 is printed but not gated: it amplifies the measuring
	// machine's speed phases beyond the largest bound (README.md).
	fmt.Fprintf(os.Stderr, "perfbench: %d ops in %.2fs (%.1f ops/s, %.3f ms CPU/op overall; p99 %.3f ms, %d samples beyond it)\n",
		all.attempted, elapsed.Seconds(), ops/elapsed.Seconds(), cpu.Seconds()*1000/ops, sl.p99, sl.beyondP99)
	res := &result{
		Correct:   len(errs) == 0,
		Attempted: all.attempted,
		Failed:    all.failed,
		Metrics:   e2e,
	}
	if b.tr != nil {
		line, _ := json.Marshal(e2e)
		fmt.Fprintf(os.Stderr, "perfbench-e2e: %s\n", line)
		res.Metrics = map[string]metric{}
		for _, lm := range layerMetrics {
			v, ok := layers[lm.name]
			if !ok {
				return nil, fmt.Errorf("per-layer metric %s was not measured", lm.name)
			}
			res.Metrics[lm.name] = v
		}
		if err := b.tr.write(b.dir, e2e, layers); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// The window is cut into equal slices, and throughput, p50 and CPU
// per operation are the medians of their per-slice values, so a few
// seconds of interference from outside the process move the figure
// less than a mean over the whole window would.
const slices = 10

// sampleCPU records the process CPU time now and at every slice
// boundary, and delivers the marks after the last one.
func sampleCPU(every time.Duration, n int) <-chan []time.Duration {
	out := make(chan []time.Duration, 1)
	marks := []time.Duration{cpuTime()}
	go func() {
		tk := time.NewTicker(every)
		defer tk.Stop()
		for len(marks) <= n {
			<-tk.C
			marks = append(marks, cpuTime())
		}
		out <- marks
	}()
	return out
}

type windowStats struct {
	throughput, p50, p99, cpuPerOp float64
	beyondP99                      int
}

// sliceStats derives the latency, rate and CPU figures from the
// slices.  p99 is the median of the slices' p99 when every slice holds
// at least 1000 operations (ten beyond its p99), else the whole
// window's p99.
func sliceStats(all *opLog, t0 time.Time, window time.Duration, marks []time.Duration) windowStats {
	width := window / slices
	per := make([][]float64, slices)
	for i, at := range all.at {
		k := int(at.Sub(t0) / width)
		if k < slices {
			per[k] = append(per[k], all.lat[i])
		}
	}
	var rate, p50, p99, cpu []float64
	minOps := len(all.lat)
	for k, lat := range per {
		s := sorted(lat)
		if len(s) < minOps {
			minOps = len(s)
		}
		rate = append(rate, float64(len(s))/width.Seconds())
		p50 = append(p50, quantile(s, 0.50))
		p99 = append(p99, quantile(s, 0.99))
		if len(s) > 0 {
			cpu = append(cpu, (marks[k+1]-marks[k]).Seconds()*1000/float64(len(s)))
		}
	}
	st := windowStats{throughput: median(rate), p50: median(p50), cpuPerOp: median(cpu)}
	if minOps >= 1000 {
		st.p99 = median(p99)
		st.beyondP99 = minOps - int(0.99*float64(minOps)+0.5)
	} else {
		s := sorted(all.lat)
		st.p99 = quantile(s, 0.99)
		st.beyondP99 = len(s) - int(0.99*float64(len(s))+0.5)
	}
	return st
}

// reopen opens a crashed data directory and polls /v1/healthz until
// it reports ready; it returns the time that took.
func reopen(dir string) (time.Duration, *service.Server, error) {
	t0 := time.Now()
	srv, err := newServer(dir)
	if err != nil {
		return 0, nil, err
	}
	h := srv.Handler()
	for {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/healthz", nil))
		var hs struct {
			State string `json:"state"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &hs); err != nil {
			return 0, nil, err
		}
		if hs.State == "ready" {
			return time.Since(t0), srv, nil
		}
		if time.Since(t0) > time.Minute {
			return 0, nil, fmt.Errorf("not ready after a minute (state %q)", hs.State)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// scrape reads a server's /metrics counters, summed over labels.
func scrape(h http.Handler) map[string]float64 {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	out := map[string]float64{}
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err == nil {
			out[name] += v
		}
	}
	return out
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
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

// copyDir copies a data directory, possibly while its server writes to
// it: a file that vanishes between listing and reading (a renamed
// temporary) is skipped, as it would be missing after a crash.  Every
// copied file is synced, so a recovery's own fsyncs do not also flush
// the copy.
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, fi os.FileInfo, err error) error {
		if os.IsNotExist(err) {
			return nil
		}
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if fi.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if os.IsNotExist(err) {
			return nil
		}
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		if err := out.Sync(); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// mustJSON marshals a request body once, at set-up.
func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // the benchmark's own request types always marshal
	}
	return data
}
