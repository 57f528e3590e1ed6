package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"sort"
	"strings"
	"sync"

	"repro/internal/model"
	"repro/internal/mtswitch"
	"repro/internal/solve"
)

// The output checker parses every answer with the benchmark's own
// types and prices it with its own implementation of the paper's
// task-parallel MT-Switch cost
//
//	W + Σ_i ( max_j I_{j,i}·v_j + max{ |h^pub|, max_j |h_{j,i}| } )
//
// (W = 0 and no public global switches in every generated instance).

// answer is the subset of a job or session status the checker reads.
type answer struct {
	Error  string `json:"error"`
	Result *struct {
		Cost  int64 `json:"cost"`
		Exact bool  `json:"exact"`
		Stats struct {
			Partitions  int64 `json:"partitions"`
			StitchBound int64 `json:"stitch_bound"`
		} `json:"stats"`
		Schedule json.RawMessage `json:"schedule"`
	} `json:"result"`
}

// schedDoc is the schedule document inside a result.
type schedDoc struct {
	Tasks []struct {
		Name  string   `json:"name"`
		Local int      `json:"local"`
		V     int64    `json:"v"`
		Hyper string   `json:"hyper"`
		Hctx  []string `json:"hctx"`
	} `json:"tasks"`
}

func parseAnswer(body []byte) (*answer, error) {
	var a answer
	if err := json.Unmarshal(body, &a); err != nil {
		return nil, fmt.Errorf("decode answer: %v", err)
	}
	if a.Error != "" {
		return nil, fmt.Errorf("answer carries error %q", a.Error)
	}
	if a.Result == nil {
		return nil, fmt.Errorf("answer has no result")
	}
	return &a, nil
}

// checkSchedule validates a schedule against the instance it answers
// and returns its cost by the formula above: every task
// hyperreconfigures before step 0, hypercontexts only change at a
// hyperreconfiguration, and every requirement is covered.
func checkSchedule(in *inst, raw json.RawMessage) (int64, error) {
	var doc schedDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		return 0, fmt.Errorf("decode schedule: %v", err)
	}
	m, n := len(in.tasks), in.steps()
	if len(doc.Tasks) != m {
		return 0, fmt.Errorf("schedule has %d tasks, want %d", len(doc.Tasks), m)
	}
	hyper := make([]int64, n)
	width := make([]int64, n)
	for j, t := range doc.Tasks {
		want := in.tasks[j]
		if t.Name != want.Name || t.Local != want.Local || t.V != want.V {
			return 0, fmt.Errorf("schedule task %d is %s:%d:%d, want %s:%d:%d", j, t.Name, t.Local, t.V, want.Name, want.Local, want.V)
		}
		if len(t.Hyper) != n || len(t.Hctx) != n {
			return 0, fmt.Errorf("task %s schedule has %d/%d steps, want %d", t.Name, len(t.Hyper), len(t.Hctx), n)
		}
		if n > 0 && t.Hyper[0] != '1' {
			return 0, fmt.Errorf("task %s does not hyperreconfigure at step 0", t.Name)
		}
		for i := 0; i < n; i++ {
			h := t.Hctx[i]
			if len(h) != t.Local {
				return 0, fmt.Errorf("task %s hypercontext %d has %d bits, want %d", t.Name, i, len(h), t.Local)
			}
			switch t.Hyper[i] {
			case '1':
				if t.V > hyper[i] {
					hyper[i] = t.V
				}
			case '0':
				if h != t.Hctx[i-1] {
					return 0, fmt.Errorf("task %s changes hypercontext at step %d without hyperreconfiguring", t.Name, i)
				}
			default:
				return 0, fmt.Errorf("task %s hyper mask has %q", t.Name, t.Hyper[i])
			}
			req := in.reqs[i][j]
			var size int64
			for b := 0; b < len(h); b++ {
				switch h[b] {
				case '1':
					size++
				case '0':
					if req[b] == '1' {
						return 0, fmt.Errorf("task %s requirement at step %d not covered (switch %d)", t.Name, i, b)
					}
				default:
					return 0, fmt.Errorf("task %s hypercontext %d has %q", t.Name, i, h[b])
				}
			}
			if size > width[i] {
				width[i] = size
			}
		}
	}
	var cost int64
	for i := 0; i < n; i++ {
		cost += hyper[i] + width[i]
	}
	return cost, nil
}

// checkAnswer runs the schedule checks on one answer and returns the
// cost it reports.
func checkAnswer(in *inst, body []byte) (*answer, error) {
	a, err := parseAnswer(body)
	if err != nil {
		return nil, err
	}
	cost, err := checkSchedule(in, a.Result.Schedule)
	if err != nil {
		return nil, err
	}
	if cost != a.Result.Cost {
		return nil, fmt.Errorf("reported cost %d, schedule prices at %d", a.Result.Cost, cost)
	}
	return a, nil
}

var parallelCost = model.CostOptions{HyperUpload: model.TaskParallel, ReconfUpload: model.TaskParallel}

// optima computes and memoizes reference optima by instance content.
// Every reported optimum is written to the run directory, so the file
// is rebuilt from the seed by rerunning the same command.
type optima struct {
	mu sync.Mutex
	m  map[string]int64
}

func instKey(in *inst) string {
	h := fnv.New64a()
	for _, t := range in.tasks {
		fmt.Fprintf(h, "%s:%d:%d|", t.Name, t.Local, t.V)
	}
	for _, row := range in.reqs {
		h.Write([]byte(strings.Join(row, ",")))
		h.Write([]byte{';'})
	}
	return fmt.Sprintf("%s-%dx%d-%016x", in.family, len(in.tasks), in.steps(), h.Sum64())
}

// reference returns the optimum of in by mtswitch.SolveExactReference,
// the reference DP the program's tests compare against, run without a
// beam cap.
//
// Blocked instances are priced block by block.  Their blocks use
// disjoint switch columns, every block's first and last step require
// its whole working set of ws columns, and every v_j is at most ws.
// Then OPT = Σ_b OPT(block b): concatenating block optima is a valid
// schedule, and conversely any schedule restricted to a block's steps
// and columns, with a hyperreconfiguration forced at the block start,
// costs no more in total.  Restricting never grows a hypercontext, and
// the forced hyperreconfigurations add at most max_j v_j ≤ ws at a
// block start, and only when no task hyperreconfigured there, i.e.
// every task carried its hypercontext into the block; such a task
// held at least 2·ws switches at the last step of the previous block,
// where the restriction leaves at most ws, saving at least ws.
// Solving a 256-step instance whole with the reference DP takes
// minutes; its 16-step blocks take under a millisecond each.
func (o *optima) reference(in *inst) (int64, error) {
	key := instKey(in)
	o.mu.Lock()
	if v, ok := o.m[key]; ok {
		o.mu.Unlock()
		return v, nil
	}
	o.mu.Unlock()
	var total int64
	parts := []*inst{in}
	if in.family == famBlocked {
		parts = blocks(in)
	}
	for _, p := range parts {
		mt, err := p.model()
		if err != nil {
			return 0, err
		}
		sol, err := mtswitch.SolveExactReference(context.Background(), mt, parallelCost, solve.Options{Workers: 1, MaxStates: 1 << 30})
		if err != nil {
			return 0, fmt.Errorf("reference DP: %v", err)
		}
		if sol.Stats.Truncated {
			return 0, fmt.Errorf("reference DP truncated")
		}
		total += int64(sol.Cost)
	}
	o.mu.Lock()
	o.m[key] = total
	o.mu.Unlock()
	return total, nil
}

// blocks splits a generated blocked instance into its standalone
// blocks, each over its own ws columns.
func blocks(in *inst) []*inst {
	ws := blockWS
	var out []*inst
	for s := 0; s < in.steps(); s += blockLen {
		e := s + blockLen
		if e > in.steps() {
			e = in.steps()
		}
		b := s / blockLen
		p := &inst{family: famDense, tasks: make([]wireTask, len(in.tasks)), reqs: make([][]string, e-s)}
		for j, t := range in.tasks {
			t.Local = ws
			p.tasks[j] = t
		}
		for i := s; i < e; i++ {
			p.reqs[i-s] = make([]string, len(in.tasks))
			for j := range in.tasks {
				p.reqs[i-s][j] = in.reqs[i][j][b*ws : (b+1)*ws]
			}
		}
		out = append(out, p)
	}
	return out
}

// exactCheck is one answer to an exact request awaiting its reference
// optimum: the cost must lie in [optimum, optimum+slack], where slack
// is 0 for an answer flagged exact and the certified stitch bound for
// a partitioned answer that is not.
type exactCheck struct {
	in    func() *inst // regenerates the instance from its seed
	cost  int64
	slack int64
	what  string
}

// verifyOptima computes the reference optimum of every pending exact
// answer on two goroutines and compares.  It runs after the measured
// window, outside every timed metric.
func (o *optima) verify(checks []exactCheck, path string) []error {
	var (
		mu   sync.Mutex
		errs []error
		wg   sync.WaitGroup
	)
	next := make(chan exactCheck)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range next {
				opt, err := o.reference(c.in())
				if err == nil && (c.cost < opt || c.cost > opt+c.slack) {
					err = fmt.Errorf("cost %d outside [optimum %d, optimum + certified slack %d]", c.cost, opt, c.slack)
				}
				if err != nil {
					mu.Lock()
					errs = append(errs, fmt.Errorf("%s: %v", c.what, err))
					mu.Unlock()
				}
			}
		}()
	}
	for _, c := range checks {
		next <- c
	}
	close(next)
	wg.Wait()
	o.mu.Lock()
	lines := make([]string, 0, len(o.m))
	for k, v := range o.m {
		lines = append(lines, fmt.Sprintf("%s %d", k, v))
	}
	o.mu.Unlock()
	sort.Strings(lines)
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		errs = append(errs, err)
	}
	return errs
}
