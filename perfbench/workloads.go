package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"sync"
	"time"

	"repro/internal/service"
)

// Every request asks for workers: 1: at the default (all cores) a solve
// spreads over every core and competes with the service's own work,
// costing more CPU per solve and repeating less well (README.md).
var (
	beamOpts    = service.WireOptions{Workers: 1, MaxStates: 500, MaxCandidates: 3}
	exactOpts   = service.WireOptions{Workers: 1}
	sessionOpts = service.WireOptions{Workers: 1}
)

// job is one one-shot solve request with the instance it carries.
type job struct {
	in     *inst
	solver string
	opts   service.WireOptions
	body   []byte
}

func newJob(in *inst, solver string, opts service.WireOptions) *job {
	return &job{in: in, solver: solver, opts: opts, body: mustJSON(&service.SolveRequest{Solver: solver, Instance: in.wire(), Options: opts})}
}

// costOf reads the reported cost out of a job or session status
// without decoding the whole answer: the first "cost" key of both is
// the result's.
func costOf(body []byte) (int64, bool) {
	i := bytes.Index(body, []byte(`"cost":`))
	if i < 0 {
		return 0, false
	}
	rest := body[i+len(`"cost":`):]
	k := 0
	for k < len(rest) && (rest[k] == '-' || rest[k] >= '0' && rest[k] <= '9') {
		k++
	}
	v, err := strconv.ParseInt(string(rest[:k]), 10, 64)
	return v, err == nil
}

// solveOne posts one job and records latency, failure and cost.
func (b *bench) solveOne(j *job, log *opLog) ([]byte, bool) {
	log.attempted++
	code, body, d := b.call("POST", "/v1/solve", j.body, "service.request")
	if code != http.StatusOK {
		log.fail(fmt.Errorf("%s solve: status %d: %s", j.in.family, code, bytes.TrimSpace(body)))
		return nil, false
	}
	log.ok(d)
	if c, ok := costOf(body); ok {
		log.costPct = append(log.costPct, 100*float64(c)/float64(j.in.disabledCost()))
	}
	return body, true
}

// checkOne runs the schedule checks on one answer to j and, for an
// exact request, returns the reference check to run after the window;
// gen regenerates j's instance then, so answers need not be kept.
func checkOne(j *job, body []byte, what string, gen func() *inst) (*exactCheck, error) {
	got, err := checkAnswer(j.in, body)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", what, err)
	}
	if j.solver != "exact" {
		return nil, nil
	}
	var slack int64
	if !got.Result.Exact {
		// Only a partitioned solve may answer an exact request
		// inexactly, and then with a certified bound.
		if got.Result.Stats.Partitions < 2 {
			return nil, fmt.Errorf("%s: exact request answered inexactly", what)
		}
		slack = got.Result.Stats.StitchBound
	}
	return &exactCheck{in: gen, cost: got.Result.Cost, slack: slack, what: what}, nil
}

// checked collects the reference checks of a workload's answers.
type checked struct {
	exact []exactCheck
	errs  []error
}

func (c *checked) add(ec *exactCheck, err error) {
	if err != nil {
		c.errs = append(c.errs, err)
	} else if ec != nil {
		c.exact = append(c.exact, *ec)
	}
}

// ---- solve-cold -------------------------------------------------------

// coldJob is operation k of round r of the named input stream: beam on
// phased m=4 and m=5, exact on dense m=3, and exact on a 256-step
// blocked instance (dispatched to exact-partitioned).  Every instance
// is distinct.
func coldJob(stream string, seed int64, r, k int) *job {
	rng := rand.New(rand.NewSource(subSeed(seed, stream, r*4+k)))
	switch k {
	case 0:
		return newJob(genPhased(rng, 4, 16, 8, 6, 0.3), "beam", beamOpts)
	case 1:
		return newJob(genDense(rng, 3, 16, 4, 0.3), "exact", exactOpts)
	case 2:
		return newJob(genPhased(rng, 5, 12, 8, 6, 0.3), "beam", beamOpts)
	default:
		return newJob(genBlocked(rng, 3, 256), "exact", exactOpts)
	}
}

// Set-up warm-up rounds draw from their own input streams with a fixed
// seed: they never repeat a measured input, and every run's set-up does
// the same work whatever its seed, so setup_s does not follow the seed.
const (
	coldOpsPerRound = 4
	warmRounds      = 4
	warmSeed        = 0
)

type solveCold struct {
	b    *bench
	seed int64
	checked
}

func prepareSolveCold(b *bench) (workloadState, error) {
	st := &solveCold{b: b, seed: b.seed}
	// Warm-up: rounds on instances outside the measured list, so pools
	// and lazily built tables exist before the window.
	warm := &opLog{}
	for r := 0; r < warmRounds; r++ {
		for k := 0; k < coldOpsPerRound; k++ {
			b.solveOne(coldJob("cold-warmup", warmSeed, r, k), warm)
		}
	}
	if warm.failed > 0 {
		return nil, warm.errs[0]
	}
	return st, nil
}

func (st *solveCold) round(c, r int, log *opLog) {
	for k := 0; k < coldOpsPerRound; k++ {
		// Instances are generated and answers checked in the loop,
		// outside the latency timer: a pre-built list or kept answers
		// would grow the heap with the window, and with it the
		// garbage collector's share of every operation.
		j := coldJob("cold", st.seed, r, k)
		if body, ok := st.b.solveOne(j, log); ok {
			seed, r, k := st.seed, r, k
			st.add(checkOne(j, body, fmt.Sprintf("round %d op %d (%s)", r, k, j.in.family), func() *inst { return coldJob("cold", seed, r, k).in }))
		}
	}
}

func (st *solveCold) check() ([]exactCheck, []error) { return st.exact, st.errs }

func (st *solveCold) probeSample() []probeItem {
	var out []probeItem
	for r := 0; r < 2; r++ {
		for k := 0; k < coldOpsPerRound; k++ {
			out = append(out, probeOf(coldJob("cold", st.seed, r, k)))
		}
	}
	return out
}

// ---- twin-hits --------------------------------------------------------

// Twin-hits serves exact repeats and structural twins of originals
// solved at set-up.  Each client has its own twinVariants relabelings
// of every original; a client's round posts, per original, the exact
// repeat and the next of its own variants.  A variant recurs after
// the client has posted 40×twinVariants = 1280 other variants, more
// than the 1024-entry result LRU holds, so every variant request is
// served by the canonical cache (twin relabeling) and every repeat by
// the result cache, whatever the clients' relative speed: half the
// requests hit each level.
const twinVariants = 32

type twinItem struct {
	orig     *job
	variants []*job
	cost     int64 // the original's answered cost
	body     []byte
}

type twinHits struct {
	b     *bench
	items []*twinItem
	order [][]int // per client

	// The first answer to each request is fully checked when it
	// arrives; later answers must carry the same result bytes.
	mu   sync.Mutex
	sums map[*job]uint64
}

func prepareTwinHits(b *bench) (workloadState, error) {
	st := &twinHits{b: b}
	rng := rand.New(rand.NewSource(subSeed(b.seed, "twin-originals", 0)))
	var origs []*job
	for k := 0; k < 16; k++ {
		origs = append(origs, newJob(genPhased(rng, 4, 16, 8, 6, 0.3), "beam", beamOpts))
		origs = append(origs, newJob(genDense(rng, 3, 16, 4, 0.3), "exact", exactOpts))
		if k%2 == 0 {
			origs = append(origs, newJob(genBlocked(rng, 3, 256), "exact", exactOpts))
		}
	}
	setupLog := &opLog{}
	for _, o := range origs {
		body, ok := b.solveOne(o, setupLog)
		if !ok {
			return nil, setupLog.errs[0]
		}
		c, _ := costOf(body)
		it := &twinItem{orig: o, cost: c, body: body}
		for v := 0; v < twinVariants*b.w.clients; v++ {
			it.variants = append(it.variants, newJob(twin(rng, o.in, v), o.solver, o.opts))
		}
		st.items = append(st.items, it)
	}
	for c := 0; c < b.w.clients; c++ {
		st.order = append(st.order, rand.New(rand.NewSource(subSeed(b.seed, "twin-order", c))).Perm(len(st.items)))
	}
	st.sums = map[*job]uint64{}
	return st, nil
}

func resultSum(body []byte) uint64 {
	h := fnv.New64a()
	if i := bytes.Index(body, []byte(`"result":`)); i >= 0 {
		h.Write(body[i:])
	}
	return h.Sum64()
}

func (st *twinHits) round(c, r int, log *opLog) {
	for _, i := range st.order[c] {
		it := st.items[i]
		for _, j := range []*job{it.orig, it.variants[c*twinVariants+r%twinVariants]} {
			body, ok := st.b.solveOne(j, log)
			if !ok {
				continue
			}
			if got, _ := costOf(body); got != it.cost {
				log.wrong(fmt.Errorf("twin of %s original answered cost %d, original %d", it.orig.in.family, got, it.cost))
			}
			if !bytes.Contains(body, []byte(`"cache_hit":true`)) {
				log.wrong(fmt.Errorf("%s twin-hits request missed both caches", it.orig.in.family))
			}
			sum := resultSum(body)
			st.mu.Lock()
			want, seen := st.sums[j]
			if !seen {
				st.sums[j] = sum
			}
			st.mu.Unlock()
			if !seen {
				if _, err := checkAnswer(j.in, body); err != nil {
					log.wrong(fmt.Errorf("twin of %s: %v", it.orig.in.family, err))
				}
			} else if sum != want {
				log.wrong(fmt.Errorf("%s request answered differently on a repeat", it.orig.in.family))
			}
		}
	}
}

func (st *twinHits) check() ([]exactCheck, []error) {
	var c checked
	for _, it := range st.items {
		in := it.orig.in
		c.add(checkOne(it.orig, it.body, "original "+in.family, func() *inst { return in }))
	}
	return c.exact, c.errs
}

func (st *twinHits) probeSample() []probeItem {
	seen := map[string]int{}
	var out []probeItem
	for _, it := range st.items {
		if seen[it.orig.in.family] < 2 {
			seen[it.orig.in.family]++
			out = append(out, probeOf(it.orig))
		}
	}
	return out
}

// ---- stream-journal -----------------------------------------------------

// A stream-journal round streams one session trace (phased m=3, 20
// steps: an opening batch of 4 rows, then 8 batches of 2) into a
// session with default options except workers: 1, posts a one-shot
// solve of a small distinct instance after every second batch, and
// closes the session opened liveSessions rounds earlier, so that many
// sessions are live when the server is crashed.  After round
// crashRound the data directory is copied, as a kill -9 at that
// instant would leave it: recovery is measured on that copy, so the
// journal it replays has the same size in every run however fast the
// window ran.
const (
	sessSteps    = 20
	sessInitial  = 4
	sessBatch    = 2
	liveSessions = 4
	crashRound   = 20
)

type sessionRun struct {
	id    string
	final []byte // last steps answer
}

type streamJournal struct {
	b        *bench
	stream   string // input stream name
	seed     int64
	sessions []*sessionRun
	checked
	// live maps the sessions live at the crash copy to their last
	// answer before it.
	live     map[string][]byte
	crashErr error
}

func streamTrace(stream string, seed int64, r int) *inst {
	rng := rand.New(rand.NewSource(subSeed(seed, stream, r)))
	return genPhased(rng, 3, sessSteps, 6, 6, 0.3)
}

// streamJob is the k-th one-shot of round r: small dense exact, small
// phased beam, or a 256-step blocked exact (a large journal record).
func streamJob(stream string, seed int64, r, k int) *job {
	rng := rand.New(rand.NewSource(subSeed(seed, stream+"-oneshot", r*8+k)))
	switch (r*4 + k) % 3 {
	case 0:
		in := genDense(rng, 3, 8, 4, 0.3)
		in.family = famSmall
		return newJob(in, "exact", exactOpts)
	case 1:
		in := genPhased(rng, 4, 8, 6, 4, 0.3)
		in.family = famSmall
		return newJob(in, "beam", beamOpts)
	default:
		return newJob(genBlocked(rng, 3, 256), "exact", exactOpts)
	}
}

func prepareStreamJournal(b *bench) (workloadState, error) {
	st := &streamJournal{b: b, stream: "stream", seed: b.seed}
	warm := &streamJournal{b: b, stream: "stream-warmup", seed: warmSeed}
	log := &opLog{}
	for r := 0; r < warmRounds; r++ {
		warm.round(0, r, log)
	}
	if log.failed > 0 {
		return nil, log.errs[0]
	}
	for _, s := range warm.sessions {
		if s.id != "" {
			b.call("DELETE", "/v1/sessions/"+s.id, nil, "service.session_delete")
		}
	}
	return st, nil
}

// sessionOpen and sessionBody are the session wire requests.
func sessionOpen(in *inst) []byte {
	return mustJSON(&service.SessionRequest{Solver: "exact", Instance: in.wire(), Options: sessionOpts})
}

func (st *streamJournal) round(c, r int, log *opLog) {
	b := st.b
	tr := streamTrace(st.stream, st.seed, r)
	op := func(method, path string, body []byte, span string, in *inst) ([]byte, bool) {
		log.attempted++
		code, resp, d := b.call(method, path, body, span)
		if code != http.StatusOK && code != http.StatusCreated {
			log.fail(fmt.Errorf("%s %s: status %d: %s", method, path, code, bytes.TrimSpace(resp)))
			return nil, false
		}
		log.ok(d)
		if in != nil {
			if cost, ok := costOf(resp); ok {
				log.costPct = append(log.costPct, 100*float64(cost)/float64(in.disabledCost()))
			}
		}
		return resp, true
	}
	resp, ok := op("POST", "/v1/sessions", sessionOpen(tr.prefix(sessInitial)), "service.session_open", tr.prefix(sessInitial))
	if !ok {
		return
	}
	var opened struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(resp, &opened); err != nil || opened.ID == "" {
		log.wrong(fmt.Errorf("session open answer without id: %v", err))
		return
	}
	run := &sessionRun{id: opened.ID}
	k := 0
	for at, n := sessInitial, 0; at < sessSteps; at, n = at+sessBatch, n+1 {
		body := mustJSON(&service.SessionSteps{Reqs: tr.reqs[at : at+sessBatch]})
		resp, ok := op("POST", "/v1/sessions/"+run.id+"/steps", body, "service.session_step", tr.prefix(at+sessBatch))
		if !ok {
			return
		}
		run.final = resp
		if n%2 == 1 {
			j := streamJob(st.stream, st.seed, r, k)
			k++
			if body, ok := b.solveOne(j, log); ok {
				stream, seed, r, k := st.stream, st.seed, r, k-1
				st.add(checkOne(j, body, fmt.Sprintf("round %d one-shot %d (%s)", r, k, j.in.family), func() *inst { return streamJob(stream, seed, r, k).in }))
			}
		}
	}
	stream, seed := st.stream, st.seed
	st.add(checkOne(&job{in: tr, solver: "exact"}, run.final, fmt.Sprintf("round %d session final", r), func() *inst { return streamTrace(stream, seed, r) }))
	st.sessions = append(st.sessions, run)
	if old := len(st.sessions) - 1 - liveSessions; old >= 0 {
		op("DELETE", "/v1/sessions/"+st.sessions[old].id, nil, "service.session_delete", nil)
		st.sessions[old] = &sessionRun{}
	}
	if r+1 == crashRound && st.live == nil {
		st.crash()
	}
}

func (st *streamJournal) check() ([]exactCheck, []error) { return st.exact, st.errs }

// crash copies the data directory and records the sessions the copy
// must revive.
func (st *streamJournal) crash() {
	st.crashErr = copyDir(st.b.dataDir, filepath.Join(st.b.dir, "crash"))
	st.live = map[string][]byte{}
	for _, s := range st.sessions {
		if s.id != "" {
			st.live[s.id] = s.final
		}
	}
}

// recover drops the server as kill -9 would and reopens copies of the
// crash copy until each reports ready.  Untraced runs reopen once, for
// the recovery checks; traced runs time recoveryRepeats reopenings and
// fill the recovery metrics in m.
func (st *streamJournal) recover(m map[string]metric) ([]error, error) {
	b := st.b
	if st.live == nil {
		st.crash() // a window too short to reach the crash round
	}
	if st.crashErr != nil {
		return nil, fmt.Errorf("copy data directory: %w", st.crashErr)
	}
	b.srv.Abandon()
	crashDir := filepath.Join(b.dir, "crash")
	reopens := 1
	if b.tr != nil {
		reopens = recoveryRepeats
	}
	var (
		errs       []error
		recoveries []float64
	)
	for k := 0; k < reopens; k++ {
		cp := filepath.Join(b.dir, fmt.Sprintf("recover-%d", k))
		if err := copyDir(crashDir, cp); err != nil {
			return nil, err
		}
		d, srv, err := reopen(cp)
		if err != nil {
			return nil, err
		}
		recoveries = append(recoveries, d.Seconds())
		if k == 0 {
			errs = st.checkRecovered(srv.Handler())
			if b.tr != nil {
				b.tr.recovery(scrape(srv.Handler()), m)
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		srv.Shutdown(ctx)
		cancel()
		os.RemoveAll(cp)
	}
	if b.tr != nil {
		m["recovery.ready_ms"] = metric{median(recoveries) * 1000, "ms"}
		if err := b.tr.replay(crashDir, median(recoveries), m); err != nil {
			return nil, err
		}
	}
	return errs, nil
}

// checkRecovered compares every session live at the crash with the
// schedule the reopened server revived for it.
func (st *streamJournal) checkRecovered(h http.Handler) []error {
	var errs []error
	for id, final := range st.live {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/sessions/"+id, nil))
		if rec.Code != http.StatusOK {
			errs = append(errs, fmt.Errorf("session %s not revived: status %d", id, rec.Code))
			continue
		}
		before, err1 := parseAnswer(final)
		after, err2 := parseAnswer(rec.Body.Bytes())
		if err1 != nil || err2 != nil {
			errs = append(errs, fmt.Errorf("session %s: %v / %v", id, err1, err2))
			continue
		}
		var sb, sa schedDoc
		json.Unmarshal(before.Result.Schedule, &sb)
		json.Unmarshal(after.Result.Schedule, &sa)
		if before.Result.Cost != after.Result.Cost || !reflect.DeepEqual(sb, sa) {
			errs = append(errs, fmt.Errorf("session %s revived with a different schedule (cost %d, was %d)", id, after.Result.Cost, before.Result.Cost))
		}
	}
	if len(st.live) == 0 {
		errs = append(errs, fmt.Errorf("no session was live at the crash"))
	}
	return errs
}

func (st *streamJournal) probeSample() []probeItem {
	var out []probeItem
	for r := 0; r < 2; r++ {
		out = append(out, probeItem{in: streamTrace(st.stream, st.seed, r), solver: "exact", opts: sessionOpts})
	}
	for k := 0; k < 3; k++ {
		out = append(out, probeOf(streamJob(st.stream, st.seed, 0, k)))
	}
	return out
}
