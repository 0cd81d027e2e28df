// Command zbench regenerates the synthetic evaluation suite declared
// in DESIGN.md: every experiment prints the table or series its
// SIGCOMM'13-style counterpart would report.
//
// Usage:
//
//	zbench -exp all                 # everything, full parameters
//	zbench -exp e3 -quick           # one experiment, reduced parameters
//	zbench -exp all -json results   # also write results/BENCH_<id>.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/experiments"
)

// experiment is one zbench entry. Run executes it with its quick preset
// or its full parameters and returns the rendered table plus the value
// written as BENCH_<id>.json.
type experiment struct {
	ID  string
	Run func(quick bool, seed int64) (*experiments.Table, any, error)
}

// tableOnly adapts an experiment without a result type: its table is
// also its JSON result.
func tableOnly(t *experiments.Table, err error) (*experiments.Table, any, error) {
	return t, t, err
}

var registry = []experiment{
	{"e1", func(quick bool, _ int64) (*experiments.Table, any, error) {
		cfg := experiments.E1Config{SwitchCounts: []int{1, 4, 16, 64}, Window: 8, Duration: 2 * time.Second}
		if quick {
			cfg.SwitchCounts = []int{1, 4, 16}
			cfg.Duration = 500 * time.Millisecond
		}
		return tableOnly(experiments.E1FlowSetup(cfg))
	}},
	{"e1a", func(quick bool, _ int64) (*experiments.Table, any, error) {
		d := 2 * time.Second
		if quick {
			d = 500 * time.Millisecond
		}
		return tableOnly(experiments.E1aProactiveVsReactive(d))
	}},
	{"e2", func(quick bool, _ int64) (*experiments.Table, any, error) {
		cfg := experiments.E2Config{Sizes: []int{100, 1000, 10000, 100000}, Measure: 200 * time.Millisecond}
		if quick {
			cfg.Sizes = []int{100, 1000, 10000}
			cfg.Measure = 50 * time.Millisecond
		}
		return tableOnly(experiments.E2Lookup(cfg), nil)
	}},
	{"e3", func(quick bool, seed int64) (*experiments.Table, any, error) {
		cfg := experiments.E3Config{Seed: seed}
		if quick {
			cfg.Scales = []float64{0.4, 0.8, 1.2, 2.0}
		}
		return tableOnly(experiments.E3Utilization(cfg))
	}},
	{"e3a", func(quick bool, seed int64) (*experiments.Table, any, error) {
		ks := []int{1, 2, 4, 8}
		if quick {
			ks = []int{1, 4}
		}
		return tableOnly(experiments.E3aPathDiversity(ks, seed))
	}},
	{"e4", func(quick bool, seed int64) (*experiments.Table, any, error) {
		cfg := experiments.E4Config{Trials: 10, Seed: seed}
		if quick {
			cfg.Trials = 3
		}
		return tableOnly(experiments.E4Update(cfg))
	}},
	{"e5", func(quick bool, seed int64) (*experiments.Table, any, error) {
		cfg := experiments.E5Config{Failures: 10, Seed: seed}
		if quick {
			cfg.Failures = 3
		}
		return tableOnly(experiments.E5Recovery(cfg))
	}},
	{"e6", func(quick bool, _ int64) (*experiments.Table, any, error) {
		if quick {
			return tableOnly(experiments.E6Codec(64), nil)
		}
		return tableOnly(experiments.E6Codec(), nil)
	}},
	{"e8", func(quick bool, _ int64) (*experiments.Table, any, error) {
		cfg := experiments.E8Config{}
		if quick {
			cfg.SwitchCounts = []int{1, 4, 16}
			cfg.Duration = 500 * time.Millisecond
		}
		return experiments.E8ControlPlaneScaling(cfg)
	}},
	{"e9", func(quick bool, _ int64) (*experiments.Table, any, error) {
		cfg := experiments.E9Config{}
		if quick {
			cfg.MissBudgets = []int{2}
			cfg.Backoffs = []time.Duration{10 * time.Millisecond}
			cfg.Rules = 8
		}
		return experiments.E9FaultRecovery(cfg)
	}},
	{"e10", func(quick bool, _ int64) (*experiments.Table, any, error) {
		cfg := experiments.E10Config{}
		if quick {
			cfg.Switches = 3
			cfg.Txns = 25
			cfg.OpsPerSwitch = 2
			cfg.PreRules = 4
		}
		return experiments.E10Transactions(cfg)
	}},
	{"e11", func(quick bool, _ int64) (*experiments.Table, any, error) {
		cfg := experiments.E11Config{}
		if quick {
			cfg.Switches = 4
			cfg.Duration = 500 * time.Millisecond
		}
		return experiments.E11ObservabilityOverhead(cfg)
	}},
	{"e12", func(quick bool, _ int64) (*experiments.Table, any, error) {
		cfg := experiments.E12Config{}
		if quick {
			cfg.Workers = []int{1, 2}
			cfg.Measure = 100 * time.Millisecond
		}
		return experiments.E12BurstScaling(cfg)
	}},
	{"e14", func(quick bool, _ int64) (*experiments.Table, any, error) {
		cfg := experiments.E14Config{}
		if quick {
			cfg.Switches = 2
			cfg.Rules = 4
			cfg.LoadDuration = 200 * time.Millisecond
		}
		return experiments.E14ClusterFailover(cfg)
	}},
	{"e15", func(quick bool, seed int64) (*experiments.Table, any, error) {
		cfg := experiments.E15Config{Seed: seed}
		if quick {
			cfg.Flows = 500
			cfg.Measure = 100 * time.Millisecond
			cfg.OverlayFlows = 8
			cfg.OverlayRounds = 2
		}
		return experiments.E15StatefulNF(cfg)
	}},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, registry))
}

// run parses args, runs every selected entry of reg in order and
// returns the exit status: 0 on success, 1 when an experiment or a
// JSON write fails, 2 on bad usage or an unknown experiment id.
func run(args []string, stdout, stderr io.Writer, reg []experiment) int {
	ids := make([]string, len(reg))
	for i, e := range reg {
		ids[i] = e.ID
	}
	known := strings.Join(ids, ",") + " or all"

	fs := flag.NewFlagSet("zbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment id: "+known)
	quick := fs.Bool("quick", false, "reduced parameters for a fast pass")
	seed := fs.Int64("seed", 1, "workload seed")
	jsonDir := fs.String("json", "", "also write each experiment's machine-readable result to DIR/BENCH_<id>.json")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	var selected []experiment
	for _, e := range reg {
		if *exp == "all" || strings.EqualFold(*exp, e.ID) {
			selected = append(selected, e)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "zbench: unknown experiment %q (want %s)\n", *exp, known)
		return 2
	}
	if *jsonDir != "" {
		if err := os.MkdirAll(*jsonDir, 0o755); err != nil {
			fmt.Fprintf(stderr, "zbench: %v\n", err)
			return 1
		}
	}
	for _, e := range selected {
		if err := runOne(e, *quick, *seed, *jsonDir, stdout); err != nil {
			fmt.Fprintf(stderr, "zbench: %s: %v\n", e.ID, err)
			return 1
		}
	}
	return 0
}

// runOne runs e, prints its table and, when jsonDir is set, writes its
// result to jsonDir/BENCH_<id>.json.
func runOne(e experiment, quick bool, seed int64, jsonDir string, stdout io.Writer) error {
	t, res, err := e.Run(quick, seed)
	if err != nil {
		return err
	}
	t.Fprint(stdout)
	if jsonDir == "" {
		return nil
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(jsonDir, "BENCH_"+e.ID+".json"), append(data, '\n'), 0o644)
}
