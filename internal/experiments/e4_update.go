package experiments

import (
	"fmt"

	"repro/internal/te"
	"repro/internal/update"
	"repro/internal/workload"

	"repro/internal/topo"
)

// E4Config parameterizes the congestion-free update experiment.
type E4Config struct {
	Scratches []float64 // headroom fractions to sweep
	Trials    int       // random transitions per scratch setting
	Demand    float64
	Seed      int64
}

// e4Transition solves the TE allocations before and after one random
// demand shift on g, both with the given scratch headroom.
func e4Transition(g *topo.Graph, demand float64, seed int64, scratch float64) (old, target *te.Allocation, err error) {
	m1 := workload.Gravity(g, demand, seed)
	m2 := workload.Perturb(m1, 0.8, seed+1000)
	cfg := te.Config{KPaths: 4, Headroom: scratch}
	if old, err = te.Solve(g, m1, cfg); err != nil {
		return nil, nil, err
	}
	target, err = te.Solve(g, m2, cfg)
	return old, target, err
}

// E4Update reproduces the SWAN/zUpdate safety table: random demand
// shifts on the WAN are applied (a) naively in one asynchronous shot
// and (b) via the interpolating planner. We count transitions with
// transient overload and the steps the planner needed. Shape: naive
// updates overload in most transitions once the network runs hot;
// the planner achieves zero overloads whenever scratch >= 10%, within
// the ceil(1/s)-1 step bound.
func E4Update(cfg E4Config) (*Table, error) {
	if len(cfg.Scratches) == 0 {
		cfg.Scratches = []float64{0.0, 0.05, 0.10, 0.20}
	}
	if cfg.Trials <= 0 {
		cfg.Trials = 10
	}
	if cfg.Demand <= 0 {
		cfg.Demand = 9000
	}
	g, _ := topo.WAN(1000)
	caps := update.Capacities(g)

	t := &Table{
		ID:    "E4",
		Title: "congestion-free updates: naive vs planned transitions",
		Header: []string{"scratch", "trials", "naive-overloaded", "planner-failed",
			"max-steps", "avg-steps", "bound"},
		Notes: []string{
			fmt.Sprintf("WAN gravity transitions, demand %.0f, %d trials each", cfg.Demand, cfg.Trials),
			"expected shape: naive overloads most hot transitions; planner never does with s>=0.10",
		},
	}
	for _, s := range cfg.Scratches {
		naiveBad, planFail, maxSteps, sumSteps, planned := 0, 0, 0, 0, 0
		for trial := 0; trial < cfg.Trials; trial++ {
			old, new_, err := e4Transition(g, cfg.Demand, cfg.Seed+int64(trial)*31, s)
			if err != nil {
				return nil, err
			}
			if len(update.StepViolations(old, new_, caps)) > 0 {
				naiveBad++
			}
			plan, err := (update.Planner{MaxIntermediates: 16}).Plan(old, new_, caps)
			if err != nil {
				planFail++
				continue
			}
			planned++
			steps := plan.Intermediates()
			sumSteps += steps
			if steps > maxSteps {
				maxSteps = steps
			}
		}
		bound := "-"
		if s > 0 {
			bound = fmt.Sprintf("%d", int(1/s+0.999999)-1)
		}
		avg := "-"
		if planned > 0 {
			avg = f2(float64(sumSteps) / float64(planned))
		}
		t.AddRow(f2(s), fmt.Sprintf("%d", cfg.Trials),
			fmt.Sprintf("%d", naiveBad), fmt.Sprintf("%d", planFail),
			fmt.Sprintf("%d", maxSteps), avg, bound)
	}
	return t, nil
}
