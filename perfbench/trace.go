package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/durable"
	"repro/internal/mtswitch"
	"repro/internal/partition"
	"repro/internal/service"
	"repro/internal/solve"
)

// layerMetrics names every per-layer metric, its unit and which way is
// better; the traced run prints exactly these.
var layerMetrics = []struct{ name, unit, better string }{
	{"service.request_us", "us", "lower"},
	{"service.self_us", "us", "lower"},
	{"service.decode_us", "us", "lower"},
	{"service.encode_us", "us", "lower"},
	{"service.response_bytes", "bytes", "lower"},
	{"service.alloc_bytes_per_op", "bytes", "lower"},
	{"service.result_hits", "count", "higher"},
	{"service.canonical_hits", "count", "higher"},
	{"service.hit_ratio", "ratio", "higher"},
	{"service.queue_wait_us", "us", "lower"},
	{"service.session_step_us", "us", "lower"},
	{"service.session_self_us", "us", "lower"},
	{"service.session_evictions", "count", "lower"},
	{"service.revive_ms", "ms", "lower"},
	{"mtswitch.canonical_us", "us", "lower"},
	{"mtswitch.engine_init_us", "us", "lower"},
	{"mtswitch.advance_us", "us", "lower"},
	{"mtswitch.extract_us", "us", "lower"},
	{"mtswitch.ns_per_state", "ns", "lower"},
	{"mtswitch.states_expanded", "count", "lower"},
	{"mtswitch.dedup_hits", "count", "lower"},
	{"mtswitch.dedup_ratio", "ratio", "lower"},
	{"mtswitch.states_pruned", "count", "higher"},
	{"mtswitch.dominance_hits", "count", "higher"},
	{"mtswitch.bound_cutoffs", "count", "higher"},
	{"mtswitch.candidates_pruned", "count", "higher"},
	{"mtswitch.peak_frontier", "count", "lower"},
	{"mtswitch.preprocess_reduction", "count", "higher"},
	{"mtswitch.arena_reused", "count", "higher"},
	{"mtswitch.extend_us", "us", "lower"},
	{"mtswitch.resolve_suffix_steps", "count", "lower"},
	{"mtswitch.resolve_expanded", "count", "lower"},
	{"solve.run_ms.beam", "ms", "lower"},
	{"solve.run_ms.exact", "ms", "lower"},
	{"solve.run_ms.exact-partitioned", "ms", "lower"},
	{"partition.plan_us", "us", "lower"},
	{"partition.windows", "count", "lower"},
	{"partition.cut_columns", "count", "lower"},
	{"partition.stitch_us", "us", "lower"},
	{"durable.appends_per_op", "1/op", "lower"},
	{"durable.bytes_per_append", "bytes", "lower"},
	{"durable.fsyncs_per_op", "1/op", "lower"},
	{"durable.flush_us", "us", "lower"},
	{"recovery.ready_ms", "ms", "lower"},
	{"durable.replay_ms", "ms", "lower"},
	{"durable.replayed_records", "count", "lower"},
	{"recovery.sessions_revived", "count", "higher"},
	{"recovery.cache_warmloaded", "count", "higher"},
	{"go.gc_cycles_per_kop", "count/kop", "lower"},
}

// span is one timed call at a layer boundary.  Spans of one operation
// share Op; Parent is the span id of the enclosing call (0 at top).
type span struct {
	ID     int64  `json:"id"`
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	Parent int64  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	ops   int64
	// a uniform sample of the window's requests
	samples []wireSample
	seen    int64
	rng     *rand.Rand
}

// wireSample is one request of the window with its answer.
type wireSample struct {
	op, parent int64
	path       string
	req, resp  []byte
	total      time.Duration
}

// maxSamples bounds the kept requests: enough for stable means, few
// enough that the kept bodies do not grow the heap with the window.
const maxSamples = 1024

func (t *tracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.t0 = time.Now()
	t.spans, t.samples, t.seen = nil, nil, 0
	t.rng = rand.New(rand.NewSource(1))
}

func (t *tracer) op() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// add records a span and returns its id.
func (t *tracer) add(name string, op, parent int64, start, end time.Time) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Name: name, Op: op, Parent: parent, Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

// timed runs fn inside a span.
func (t *tracer) timed(name string, op, parent int64, fn func()) time.Duration {
	s := time.Now()
	fn()
	e := time.Now()
	t.add(name, op, parent, s, e)
	return e.Sub(s)
}

// sample keeps a uniform sample of at most maxSamples of the window's
// requests (reservoir sampling), so the kept requests neither cluster
// at the start of the window nor alias with a workload's round length.
func (t *tracer) sample(s wireSample) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.rng == nil {
		return // set-up: the window has not started
	}
	t.seen++
	if len(t.samples) < maxSamples {
		t.samples = append(t.samples, s)
	} else if k := t.rng.Int63n(t.seen); k < maxSamples {
		t.samples[k] = s
	}
}

// wireFigures times the service layer's wire work on the sampled
// requests, after the window: decoding each request body into its wire
// type and encoding the decoded answer again.  It also reads each
// solve's queue wait and solve window from its answer, and returns the
// mean service-own time, queue wait and answer size of the solves.
func (t *tracer) wireFigures() (selfUS, queueUS, respBytes float64) {
	t.mu.Lock()
	samples := t.samples
	t.mu.Unlock()
	var self, queue, resp []float64
	for _, s := range samples {
		var in any = &service.SolveRequest{}
		var out any = &service.JobStatus{}
		switch {
		case strings.HasSuffix(s.path, "/steps"):
			in, out = &service.SessionSteps{}, &service.SessionStatus{}
		case s.path == "/v1/sessions":
			in, out = &service.SessionRequest{}, &service.SessionStatus{}
		case s.path != "/v1/solve":
			continue
		}
		t.timed("service.decode", s.op, s.parent, func() { json.Unmarshal(s.req, in) })
		if err := json.Unmarshal(s.resp, out); err != nil {
			continue
		}
		t.timed("service.encode", s.op, s.parent, func() { json.Marshal(out) })
		js, ok := out.(*service.JobStatus)
		if !ok {
			continue
		}
		resp = append(resp, float64(len(s.resp)))
		if js.StartedAt != nil && js.FinishedAt != nil {
			queue = append(queue, float64(js.StartedAt.Sub(js.SubmittedAt).Nanoseconds())/1e3)
			self = append(self, float64((s.total-js.FinishedAt.Sub(*js.StartedAt)).Nanoseconds())/1e3)
		}
	}
	return mean(self), mean(queue), mean(resp)
}

// meanSpan is the mean duration of the named spans in microseconds.
func (t *tracer) meanSpan(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum float64
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			sum += float64(s.End - s.Start)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n) / 1e3
}

// window derives the per-layer figures of the measured window.
func (t *tracer) window(before, after map[string]float64, all *opLog, allocBytes uint64, gcs uint32) map[string]metric {
	d := func(k string) float64 { return after[k] - before[k] }
	ops := float64(all.attempted)
	self, queue, resp := t.wireFigures()
	m := map[string]metric{
		"service.request_us":         {t.meanSpan("service.request"), "us"},
		"service.self_us":            {self, "us"},
		"service.decode_us":          {t.meanSpan("service.decode"), "us"},
		"service.encode_us":          {t.meanSpan("service.encode"), "us"},
		"service.response_bytes":     {resp, "bytes"},
		"service.alloc_bytes_per_op": {float64(allocBytes) / ops, "bytes"},
		"service.result_hits":        {d("hyperd_cache_hits_total"), "count"},
		"service.canonical_hits":     {d("hyperd_cache_canonical_hits_total"), "count"},
		"service.queue_wait_us":      {queue, "us"},
		"service.session_evictions":  {d("hyperd_sessions_evicted_total"), "count"},
		"go.gc_cycles_per_kop":       {float64(gcs) * 1000 / ops, "count/kop"},
	}
	hits := d("hyperd_cache_hits_total") + d("hyperd_cache_canonical_hits_total")
	if req := d("hyperd_cache_hits_total") + d("hyperd_cache_misses_total"); req > 0 {
		m["service.hit_ratio"] = metric{hits / req, "ratio"}
	} else {
		m["service.hit_ratio"] = metric{0, "ratio"}
	}
	return m
}

// durable derives the journal figures over the server's life (set-up,
// window and probe), so read-only windows still report them.
func (t *tracer) durable(final map[string]float64, calls int64, m map[string]metric) {
	appends := final["hyperd_wal_appends_total"]
	per := func(x, y float64) float64 {
		if y == 0 {
			return 0
		}
		return x / y
	}
	m["durable.appends_per_op"] = metric{per(appends, float64(calls)), "1/op"}
	m["durable.fsyncs_per_op"] = metric{per(final["hyperd_wal_fsyncs_total"], float64(calls)), "1/op"}
	m["durable.bytes_per_append"] = metric{per(final["hyperd_wal_bytes"], appends), "bytes"}
	m["durable.flush_us"] = metric{per(final["hyperd_wal_flush_seconds_sum"], final["hyperd_wal_flush_seconds_count"]) * 1e6, "us"}
}

// noRecovery fills the recovery metrics of a run that does not crash
// its server: nothing is replayed or revived.
func noRecovery(m map[string]metric) {
	for _, k := range []string{"recovery.ready_ms", "durable.replay_ms", "service.revive_ms"} {
		m[k] = metric{0, "ms"}
	}
	for _, k := range []string{"durable.replayed_records", "recovery.sessions_revived", "recovery.cache_warmloaded"} {
		m[k] = metric{0, "count"}
	}
}

// recovery reads the reopened server's recovery counters.
func (t *tracer) recovery(h map[string]float64, m map[string]metric) {
	m["durable.replayed_records"] = metric{h["hyperd_wal_replayed_records_total"], "count"}
	m["recovery.sessions_revived"] = metric{h["hyperd_recovery_sessions_revived"], "count"}
	m["recovery.cache_warmloaded"] = metric{h["hyperd_recovery_cache_warmloaded"], "count"}
}

// replay times WAL.Replay over the crash copy; the rest of the
// recovery time is the service reviving its state.
func (t *tracer) replay(dir string, recoveryS float64, m map[string]metric) error {
	w, err := durable.OpenWAL(filepath.Join(dir, "wal"), durable.WALOptions{Fsync: durable.FsyncAlways})
	if err != nil {
		return err
	}
	defer w.Close()
	var d time.Duration
	var rerr error
	d = t.timed("durable.replay", 0, 0, func() { rerr = w.Replay(func([]byte) error { return nil }) })
	if rerr != nil {
		return rerr
	}
	ms := float64(d.Nanoseconds()) / 1e6
	m["durable.replay_ms"] = metric{ms, "ms"}
	m["service.revive_ms"] = metric{recoveryS*1000 - ms, "ms"}
	return nil
}

// write stores the spans and the per-layer summary beside the run.
func (t *tracer) write(dir string, e2e, layers map[string]metric) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(map[string]any{"spans": t.spans, "end_to_end_traced": e2e, "per_layer": layers})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace.json"), data, 0o644)
}

// probeItem is one input the traced run calls each layer on directly:
// the instance and the solver the workload requests for it.  Streams
// open with sessInitial rows and grow by sessBatch, as stream-journal's
// sessions do.
type probeItem struct {
	in     *inst
	solver string
	opts   service.WireOptions
}

func probeOf(j *job) probeItem {
	return probeItem{in: j.in, solver: j.solver, opts: j.opts}
}

func solveOptions(w service.WireOptions) solve.Options {
	return solve.Options{Workers: w.Workers, MaxStates: w.MaxStates, MaxCandidates: w.MaxCandidates, DisablePruning: w.DisablePruning, MaxFrontierBytes: 1 << 30}
}

// probe times the benchmark's direct calls into each layer's public
// functions on the workload's own inputs: canonical form, the stepped
// engine (init, one Advance per step, extract), the registry Run, the
// partition planner, stepped-engine Extend per streamed batch, and the
// same streams through the service's session API.
func (b *bench) probe(items []probeItem, m map[string]metric) error {
	ctx := context.Background()
	t := b.tr
	var (
		st                solve.Stats
		advanceNS         int64
		engines           float64
		windows, cut      []float64
		suffix, resolveEx []float64
	)
	for _, it := range items {
		op := t.op()
		mt, err := it.in.model()
		if err != nil {
			return err
		}
		o := solveOptions(it.opts)
		t.timed("mtswitch.canonical", op, 0, func() { mtswitch.CanonicalForm(mt) })
		name := it.solver
		if it.in.steps() >= 256 && name == "exact" {
			name = "exact-partitioned"
		}
		var sol *solve.Solution
		t.timed("solve.run."+name, op, 0, func() { sol, err = solve.Run(ctx, name, solve.NewMT(mt, parallelCost), o) })
		if err != nil {
			return fmt.Errorf("%s run: %w", name, err)
		}
		if name == "exact-partitioned" {
			var plan *partition.Plan
			t.timed("partition.plan", op, 0, func() { plan = partition.PlanWindows(mt, 0, 0) })
			windows = append(windows, float64(len(plan.Windows(mt.Steps()))))
			cut = append(cut, float64(plan.CutColumns))
			t.add("partition.stitch", op, 0, t.t0, t.t0.Add(sol.Stats.StitchTime))
			continue
		}

		var en *mtswitch.Engine
		t.timed("mtswitch.engine_init", op, 0, func() { en, err = mtswitch.NewEngine(ctx, mt, parallelCost, o, false) })
		if err != nil {
			return err
		}
		for done := false; !done; {
			d := t.timed("mtswitch.advance", op, 0, func() { done, err = en.Advance(ctx, 1) })
			advanceNS += d.Nanoseconds()
			if err != nil {
				return err
			}
		}
		t.timed("mtswitch.extract", op, 0, func() { _, err = en.Solution(ctx) })
		if err != nil {
			return err
		}
		st.Add(en.Stats())
		engines++
		en.Close()

		// The same instance as a stream: the stepped engine directly,
		// then the session API.
		head, err := it.in.prefix(sessInitial).model()
		if err != nil {
			return err
		}
		inc, err := mtswitch.NewEngine(ctx, head, parallelCost, o, true)
		if err != nil {
			return err
		}
		if _, err := inc.Solution(ctx); err != nil {
			return err
		}
		for at := sessInitial; at < it.in.steps(); at += sessBatch {
			rows, err := rowsSets(it.in.reqs[at:min(at+sessBatch, it.in.steps())])
			if err != nil {
				return err
			}
			t.timed("mtswitch.extend", op, 0, func() {
				if err = inc.Extend(ctx, rows); err == nil {
					_, err = inc.Solution(ctx)
				}
			})
			if err != nil {
				return err
			}
			suffix = append(suffix, float64(inc.Steps()-inc.LastResolveStart()))
			resolveEx = append(resolveEx, float64(inc.ResolveExpanded()))
		}
		inc.Close()

		code, resp, _ := b.call("POST", "/v1/sessions", mustJSON(&service.SessionRequest{Solver: it.solver, Instance: it.in.prefix(sessInitial).wire(), Options: it.opts}), "service.session_open")
		var opened struct {
			ID string `json:"id"`
		}
		if code != 201 || json.Unmarshal(resp, &opened) != nil {
			return fmt.Errorf("probe session open: status %d", code)
		}
		for at := sessInitial; at < it.in.steps(); at += sessBatch {
			body := mustJSON(&service.SessionSteps{Reqs: it.in.reqs[at:min(at+sessBatch, it.in.steps())]})
			if code, _, _ := b.call("POST", "/v1/sessions/"+opened.ID+"/steps", body, "service.session_step"); code != 200 {
				return fmt.Errorf("probe session steps: status %d", code)
			}
		}
		b.call("DELETE", "/v1/sessions/"+opened.ID, nil, "service.session_delete")
	}

	per := func(x int64) float64 {
		if engines == 0 {
			return 0
		}
		return float64(x) / engines
	}
	m["mtswitch.canonical_us"] = metric{t.meanSpan("mtswitch.canonical"), "us"}
	m["mtswitch.engine_init_us"] = metric{t.meanSpan("mtswitch.engine_init"), "us"}
	m["mtswitch.advance_us"] = metric{t.meanSpan("mtswitch.advance"), "us"}
	m["mtswitch.extract_us"] = metric{t.meanSpan("mtswitch.extract"), "us"}
	if st.StatesExpanded > 0 {
		m["mtswitch.ns_per_state"] = metric{float64(advanceNS) / float64(st.StatesExpanded), "ns"}
		m["mtswitch.dedup_ratio"] = metric{float64(st.DedupHits) / float64(st.StatesExpanded), "ratio"}
	} else {
		m["mtswitch.ns_per_state"] = metric{0, "ns"}
		m["mtswitch.dedup_ratio"] = metric{0, "ratio"}
	}
	m["mtswitch.states_expanded"] = metric{per(st.StatesExpanded), "count"}
	m["mtswitch.dedup_hits"] = metric{per(st.DedupHits), "count"}
	m["mtswitch.states_pruned"] = metric{per(st.StatesPruned), "count"}
	m["mtswitch.dominance_hits"] = metric{per(st.DominanceHits), "count"}
	m["mtswitch.bound_cutoffs"] = metric{per(st.BoundCutoffs), "count"}
	m["mtswitch.candidates_pruned"] = metric{per(st.CandidatesPruned), "count"}
	m["mtswitch.peak_frontier"] = metric{float64(st.PeakFrontier), "count"}
	m["mtswitch.preprocess_reduction"] = metric{per(st.PreprocessReduction), "count"}
	m["mtswitch.arena_reused"] = metric{per(st.ArenaReused), "count"}
	m["mtswitch.extend_us"] = metric{t.meanSpan("mtswitch.extend"), "us"}
	m["mtswitch.resolve_suffix_steps"] = metric{mean(suffix), "count"}
	m["mtswitch.resolve_expanded"] = metric{mean(resolveEx), "count"}
	m["solve.run_ms.beam"] = metric{t.meanSpan("solve.run.beam") / 1e3, "ms"}
	m["solve.run_ms.exact"] = metric{t.meanSpan("solve.run.exact") / 1e3, "ms"}
	m["solve.run_ms.exact-partitioned"] = metric{t.meanSpan("solve.run.exact-partitioned") / 1e3, "ms"}
	m["partition.plan_us"] = metric{t.meanSpan("partition.plan"), "us"}
	m["partition.windows"] = metric{mean(windows), "count"}
	m["partition.cut_columns"] = metric{mean(cut), "count"}
	m["partition.stitch_us"] = metric{t.meanSpan("partition.stitch"), "us"}
	m["service.session_step_us"] = metric{t.meanSpan("service.session_step"), "us"}
	m["service.session_self_us"] = metric{t.meanSpan("service.session_step") - t.meanSpan("mtswitch.extend"), "us"}
	return nil
}
