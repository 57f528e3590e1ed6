package main

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/bitset"
	"repro/internal/model"
	"repro/internal/service"
)

// inst is the benchmark's own view of an MT-Switch instance: task
// shapes and step-major requirement rows in the wire bit-string form
// (reqs[i][j] is task j's requirement at step i, LSB first).  The
// generators below are deliberately independent of the program's
// workload package, so a change to the program cannot change the
// benchmark's inputs.
type inst struct {
	family string
	tasks  []wireTask
	reqs   [][]string
}

// family names the instance families; each maps to one solver request.
const (
	famPhased  = "phased"  // beam, m=4-5
	famDense   = "dense"   // exact, m=3
	famBlocked = "blocked" // exact at >= 256 steps, auto-dispatched to exact-partitioned
	famSmall   = "small"   // exact one-shots beside the sessions of stream-journal
)

// subSeed derives an independent generator seed for item idx of stream
// kind under the run seed (splitmix64 finalizer).
func subSeed(seed int64, kind string, idx int) int64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(idx+1)*0xbf58476d1ce4e5b9
	for _, c := range kind {
		x = (x ^ uint64(c)) * 0x94d049bb133111eb
	}
	x ^= x >> 31
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 29
	return int64(x >> 1)
}

func bits(l int, set func(b int) bool) string {
	var sb strings.Builder
	sb.Grow(l)
	for b := 0; b < l; b++ {
		if set(b) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

type wireTask = service.WireTask

func newTasks(m, l int, v int64) []wireTask {
	ts := make([]wireTask, m)
	for j := range ts {
		ts[j] = wireTask{Name: fmt.Sprintf("T%d", j+1), Local: l, V: v}
	}
	return ts
}

// genPhased draws tasks that move through phases of geometric length
// with per-phase working sets; each step requires a random subset of
// its phase's working set (never empty).
func genPhased(r *rand.Rand, m, n, l, meanPhase int, density float64) *inst {
	in := &inst{family: famPhased, tasks: newTasks(m, l, int64(l)), reqs: make([][]string, n)}
	for i := range in.reqs {
		in.reqs[i] = make([]string, m)
	}
	for j := 0; j < m; j++ {
		for i := 0; i < n; {
			length := 1
			for r.Float64() > 1.0/float64(meanPhase) && length < 4*meanPhase {
				length++
			}
			ws := make([]bool, l)
			ws[r.Intn(l)] = true
			for b := range ws {
				if r.Float64() < density {
					ws[b] = true
				}
			}
			for k := 0; k < length && i < n; k, i = k+1, i+1 {
				req := make([]bool, l)
				any := false
				for b := range req {
					if ws[b] && r.Float64() < 0.7 {
						req[b], any = true, true
					}
				}
				if !any {
					for b := range ws {
						if ws[b] {
							req[b] = true
							break
						}
					}
				}
				in.reqs[i][j] = bits(l, func(b int) bool { return req[b] })
			}
		}
	}
	return in
}

// genDense draws iid requirements: every switch is required with the
// given probability at every step, so nothing compresses and the exact
// DP explores the joint frontier in full.
func genDense(r *rand.Rand, m, n, l int, density float64) *inst {
	in := &inst{family: famDense, tasks: newTasks(m, l, int64(l)), reqs: make([][]string, n)}
	for i := range in.reqs {
		in.reqs[i] = make([]string, m)
		for j := 0; j < m; j++ {
			in.reqs[i][j] = bits(l, func(int) bool { return r.Float64() < density })
		}
	}
	return in
}

// Blocked instances use blockLen-step blocks over blockWS columns each.
const (
	blockLen = 16
	blockWS  = 3
)

// genBlocked draws aligned blocks of blockLen steps with block-disjoint
// working sets of blockWS columns, required in full at each block's first
// and last step and in sub-phases of parts of it inside, so no switch column is active
// across a block boundary.  A local hyperreconfiguration costs
// blockWS-1, so shrinking the hypercontext inside a block can pay.
func genBlocked(r *rand.Rand, m, n int) *inst {
	ws := blockWS
	nBlocks := (n + blockLen - 1) / blockLen
	l := nBlocks * ws
	in := &inst{family: famBlocked, tasks: newTasks(m, l, int64(ws-1)), reqs: make([][]string, n)}
	for i := range in.reqs {
		in.reqs[i] = make([]string, m)
	}
	for j := 0; j < m; j++ {
		var sub []bool
		left := 0
		for i := 0; i < n; i++ {
			blk := i / blockLen
			last := (blk+1)*blockLen - 1
			if last > n-1 {
				last = n - 1
			}
			req := make([]bool, l)
			if i%blockLen == 0 || i == last {
				for c := 0; c < ws; c++ {
					req[blk*ws+c] = true
				}
				left = 0
			} else {
				// Inside a block a task runs sub-phases of mean length 4,
				// each requiring a fixed nonempty part of the block's set.
				if left == 0 {
					sub = make([]bool, ws)
					sub[r.Intn(ws)] = true
					for c := range sub {
						if r.Float64() < 0.3 {
							sub[c] = true
						}
					}
					left = 1
					for r.Float64() > 0.25 && left < 12 {
						left++
					}
				}
				left--
				for c := 0; c < ws; c++ {
					req[blk*ws+c] = sub[c]
				}
			}
			in.reqs[i][j] = bits(l, func(b int) bool { return req[b] })
		}
	}
	return in
}

// twin relabels an instance without changing its structure: tasks are
// permuted and renamed (with the variant number v, so variants differ)
// and every task's switch columns are reversed.
// The optimum is invariant under all three; the checker compares a
// twin's cost with its original's, whose optimum the reference DP gives.
func twin(r *rand.Rand, in *inst, v int) *inst {
	m := len(in.tasks)
	perm := r.Perm(m)
	out := &inst{family: "twin-" + in.family, tasks: make([]wireTask, m), reqs: make([][]string, len(in.reqs))}
	for k, j := range perm {
		t := in.tasks[j]
		t.Name = fmt.Sprintf("%s'%d.%d", in.tasks[j].Name, v, k)
		out.tasks[k] = t
	}
	for i, row := range in.reqs {
		out.reqs[i] = make([]string, m)
		for k, j := range perm {
			out.reqs[i][k] = reverse(row[j])
		}
	}
	return out
}

func reverse(s string) string {
	b := []byte(s)
	for i, k := 0, len(b)-1; i < k; i, k = i+1, k-1 {
		b[i], b[k] = b[k], b[i]
	}
	return string(b)
}

func (in *inst) steps() int { return len(in.reqs) }

func (in *inst) wire() *service.WireInstance {
	return &service.WireInstance{Tasks: in.tasks, Reqs: in.reqs}
}

// prefix returns the instance's first n steps.
func (in *inst) prefix(n int) *inst {
	return &inst{family: in.family, tasks: in.tasks, reqs: in.reqs[:n]}
}

// model builds the program's model instance, for direct layer calls
// and the reference DP.
func (in *inst) model() (*model.MTSwitchInstance, error) {
	m := len(in.tasks)
	tasks := make([]model.Task, m)
	reqs := make([][]bitset.Set, m)
	for j, t := range in.tasks {
		tasks[j] = model.Task{Name: t.Name, Local: t.Local, V: model.Cost(t.V)}
		reqs[j] = make([]bitset.Set, len(in.reqs))
		for i, row := range in.reqs {
			s, err := bitset.Parse(row[j])
			if err != nil {
				return nil, err
			}
			reqs[j][i] = s
		}
	}
	return model.NewMTSwitchInstance(tasks, reqs)
}

// rowsSets converts step-major wire rows to the bitset rows the
// stepped engine's Extend takes.
func rowsSets(rows [][]string) ([][]bitset.Set, error) {
	out := make([][]bitset.Set, len(rows))
	for i, row := range rows {
		out[i] = make([]bitset.Set, len(row))
		for j, cell := range row {
			s, err := bitset.Parse(cell)
			if err != nil {
				return nil, err
			}
			out[i][j] = s
		}
	}
	return out, nil
}

// disabledCost is the hyperreconfiguration-off baseline: every switch
// of every task uploaded at every step.
func (in *inst) disabledCost() int64 {
	var total int64
	for _, t := range in.tasks {
		total += int64(t.Local)
	}
	return total * int64(in.steps())
}
