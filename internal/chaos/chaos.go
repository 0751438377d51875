// Package chaos is the soak/chaos harness for the vbsd/vbsgw stack:
// named fault recipes run against a live fleet while a continuous
// mixed workload drives traffic, then fleet-wide invariant conditions
// must converge. The split follows aistore's soaktest model:
//
//   - primitives (primitives.go) inject raw faults — process kill and
//     restart, repo I/O error injection, on-disk blob corruption, and
//     (Fleet.RestartGateway) a gateway crash and restart;
//   - recipes (recipes.go) sequence primitives into named scenarios
//     (nodekill, diskfull, corruptblob, churn, nodeadd, drain,
//     gwrestart);
//   - conditions (conditions.go) judge the aftermath — every acked
//     blob retrievable byte-identical, replica counts back at R, no
//     orphaned fabric occupancy, no task resurrection, /metrics
//     scrapeable with the required families, error budget held.
//
// The workload (workload.go) tracks what the cluster acknowledged,
// which is the ground truth conditions check against. cmd/vbschaos is
// the CLI; the package tests run every recipe in-process.
package chaos

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/loadgen"
)

// Config tunes one chaos run.
type Config struct {
	// Short selects the CI-sized run: shorter traffic phases, fewer
	// cycles, tighter convergence deadline.
	Short bool
	// Workers is the workload's concurrent client count (0 = 4).
	Workers int
	// Tasks is the number of distinct containers to mix (0 = 4).
	Tasks int
	// Seed drives container generation and op mixing.
	Seed int64
	// ErrorBudget is the highest acceptable client error rate; 0
	// selects the recipe's default.
	ErrorBudget float64
	// Warmup / FaultPhase are the traffic windows before and during
	// fault injection; Converge bounds post-recipe invariant polling.
	// Zero values select Short-dependent defaults.
	Warmup     time.Duration
	FaultPhase time.Duration
	Converge   time.Duration
	// Log receives progress lines (nil = discard).
	Log func(format string, args ...any)
}

// withDefaults fills zero fields from the short/full profiles and the
// recipe's error budget.
func (c Config) withDefaults(budget float64) Config {
	if c.Workers == 0 {
		c.Workers = 4
	}
	if c.Tasks == 0 {
		c.Tasks = 4
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.ErrorBudget == 0 {
		c.ErrorBudget = budget
	}
	if c.Warmup == 0 {
		if c.Short {
			c.Warmup = 800 * time.Millisecond
		} else {
			c.Warmup = 3 * time.Second
		}
	}
	if c.FaultPhase == 0 {
		if c.Short {
			c.FaultPhase = 1500 * time.Millisecond
		} else {
			c.FaultPhase = 8 * time.Second
		}
	}
	if c.Converge == 0 {
		if c.Short {
			c.Converge = 30 * time.Second
		} else {
			c.Converge = 60 * time.Second
		}
	}
	if c.Log == nil {
		c.Log = func(string, ...any) {}
	}
	return c
}

// Report is the per-recipe JSON document a run emits.
type Report struct {
	Recipe   string  `json:"recipe"`
	Short    bool    `json:"short"`
	Nodes    int     `json:"nodes"`
	Replicas int     `json:"replicas"`
	WallS    float64 `json:"wall_s"`
	// FaultsInjected logs every primitive action in order.
	FaultsInjected []string          `json:"faults_injected"`
	Workload       WorkloadStats     `json:"workload"`
	ErrorBudget    float64           `json:"error_budget"`
	Conditions     []ConditionResult `json:"conditions"`
	Passed         bool              `json:"passed"`
}

// Env is what recipes and conditions see: the fleet under test, the
// live workload, the run config, and the report being built.
type Env struct {
	Fleet  *Fleet
	Work   *Workload
	Cfg    Config
	Report *Report

	mu    sync.Mutex
	extra []Condition
}

func (e *Env) recordFault(format string, args ...any) {
	line := fmt.Sprintf(format, args...)
	e.Cfg.Log("chaos: fault: %s", line)
	e.mu.Lock()
	e.Report.FaultsInjected = append(e.Report.FaultsInjected, line)
	e.mu.Unlock()
}

// AddCondition registers a recipe-specific invariant checked after
// the standard set — e.g. "the blob I deleted mid-rebalance stays
// dead". Conditions added during the recipe run with the same
// convergence polling as the standard ones.
func (e *Env) AddCondition(c Condition) {
	e.mu.Lock()
	e.extra = append(e.extra, c)
	e.mu.Unlock()
}

func (e *Env) conditions() []Condition {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append(StandardConditions(), e.extra...)
}

// Sleep waits for d or until ctx is done.
func Sleep(ctx context.Context, d time.Duration) {
	select {
	case <-ctx.Done():
	case <-time.After(d):
	}
}

// Run executes one named recipe against the fleet: start the
// workload, warm up, let the recipe inject its faults under traffic,
// stop the workload, then poll every standard condition to
// convergence. The returned error covers harness failures; invariant
// violations land in the report with Passed=false.
func Run(ctx context.Context, f *Fleet, name string, cfg Config) (*Report, error) {
	rec, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("chaos: unknown recipe %q (have %v)", name, Names())
	}
	cfg = cfg.withDefaults(rec.ErrorBudget)
	start := time.Now()

	report := &Report{
		Recipe:         rec.Name,
		Short:          cfg.Short,
		Nodes:          len(f.Nodes),
		Replicas:       f.Replicas,
		ErrorBudget:    cfg.ErrorBudget,
		FaultsInjected: []string{},
	}

	cfg.Log("chaos: generating %d container(s)", cfg.Tasks)
	containers := make([][]byte, cfg.Tasks)
	for i := range containers {
		var err error
		if containers[i], err = loadgen.GenTask(cfg.Seed+int64(i), NodeW, NodeK); err != nil {
			return nil, fmt.Errorf("chaos: task generation: %w", err)
		}
	}

	env := &Env{
		Fleet:  f,
		Work:   NewWorkload(f.Client, containers),
		Cfg:    cfg,
		Report: report,
	}

	cfg.Log("chaos: recipe %s: workload up (%d workers), warmup %s", rec.Name, cfg.Workers, cfg.Warmup)
	env.Work.Start(ctx, cfg.Workers, cfg.Seed)
	Sleep(ctx, cfg.Warmup)

	recipeErr := rec.Run(ctx, env)

	cfg.Log("chaos: recipe %s: stopping workload", rec.Name)
	env.Work.Stop()
	report.Workload = env.Work.Stats()

	conds := env.conditions()
	cfg.Log("chaos: checking %d condition(s), converge budget %s", len(conds), cfg.Converge)
	allPassed := true
	for _, c := range conds {
		res := pollCondition(ctx, env, c, cfg.Converge)
		report.Conditions = append(report.Conditions, res)
		if res.Passed {
			cfg.Log("chaos: condition %-22s ok (%.1fs)", c.Name, res.WaitS)
		} else {
			cfg.Log("chaos: condition %-22s FAILED: %s", c.Name, res.Error)
			allPassed = false
		}
	}
	report.Workload = env.Work.Stats() // conditions don't add ops, but keep the freshest view
	report.WallS = time.Since(start).Seconds()
	report.Passed = allPassed && recipeErr == nil
	if recipeErr != nil {
		return report, fmt.Errorf("chaos: recipe %s: %w", rec.Name, recipeErr)
	}
	return report, nil
}
