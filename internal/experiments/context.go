package experiments

import (
	"context"
	"fmt"
	"sync"

	"gridstrat/internal/core"
	"gridstrat/internal/trace"
)

// Context owns the synthesized trace sets and caches the derived
// models and per-dataset optimizations that several artifacts share
// (e.g. the single-resubmission optimum anchors Tables 1–6).
type Context struct {
	Set *trace.Set

	mu       sync.Mutex
	models   map[string]*core.EmpiricalModel
	costs    map[string]*core.CostContext
	costOpts map[string]core.CostResult
}

// NewContext synthesizes all paper datasets.
func NewContext() (*Context, error) {
	set, err := trace.SynthesizeAll()
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	return &Context{
		Set:      set,
		models:   make(map[string]*core.EmpiricalModel),
		costs:    make(map[string]*core.CostContext),
		costOpts: make(map[string]core.CostResult),
	}, nil
}

// Model returns (and caches) the latency model of a dataset.
func (c *Context) Model(name string) (*core.EmpiricalModel, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if m, ok := c.models[name]; ok {
		return m, nil
	}
	tr, err := c.Set.Get(name)
	if err != nil {
		return nil, err
	}
	m, err := core.ModelFromTrace(tr)
	if err != nil {
		return nil, err
	}
	c.models[name] = m
	return m, nil
}

// Cost returns (and caches) the cost context — the optimized
// single-resubmission baseline — of a dataset.
func (c *Context) Cost(name string) (*core.CostContext, error) {
	c.mu.Lock()
	if cc, ok := c.costs[name]; ok {
		c.mu.Unlock()
		return cc, nil
	}
	c.mu.Unlock()
	m, err := c.Model(name)
	if err != nil {
		return nil, err
	}
	cc, err := core.NewCostContext(context.Background(), m, 1)
	if err != nil {
		return nil, fmt.Errorf("experiments: cost context for %s: %w", name, err)
	}
	c.mu.Lock()
	c.costs[name] = cc
	c.mu.Unlock()
	return cc, nil
}

// CostOptimum returns (and caches) the Δcost-optimal delayed
// parameters of a dataset — shared by Tables 5 and 6.
func (c *Context) CostOptimum(name string) (core.CostResult, error) {
	c.mu.Lock()
	if r, ok := c.costOpts[name]; ok {
		c.mu.Unlock()
		return r, nil
	}
	c.mu.Unlock()
	cc, err := c.Cost(name)
	if err != nil {
		return core.CostResult{}, err
	}
	r, err := cc.OptimizeDelayedCost(context.Background(), 1)
	if err != nil {
		return core.CostResult{}, err
	}
	c.mu.Lock()
	c.costOpts[name] = r
	c.mu.Unlock()
	return r, nil
}

// ReferenceDataset is the trace the paper uses for Tables 2–4 and
// Figures 2, 5, 6, 8.
const ReferenceDataset = "2006-IX"

// DatasetOrder returns the canonical row order of Table 1.
func (c *Context) DatasetOrder() []string { return c.Set.Order }
