package workload

import (
	"fmt"
	"math"
	"sort"

	"gridstrat/internal/core"
)

// Class is a planning-side SLO class, mirroring the admission tiers
// the serving layer enforces (internal/server: critical | standard |
// sheddable). The serving side decides who gets in when the daemon
// saturates; this side decides what each admitted class should be
// promised — its deadline, its success target, and how much parallel
// grid capacity it may burn to meet them.
type Class uint8

const (
	// ClassCritical work gets the tightest deadline and the largest
	// copy budget; it is planned first under contended capacity.
	ClassCritical Class = iota
	// ClassStandard is the default tier.
	ClassStandard
	// ClassSheddable is background work: a loose deadline, no
	// redundancy budget, and it only gets capacity the higher classes
	// left over.
	ClassSheddable
	numClasses
)

func (c Class) String() string {
	switch c {
	case ClassCritical:
		return "critical"
	case ClassSheddable:
		return "sheddable"
	default:
		return "standard"
	}
}

// ParseClass maps a class name to its value.
func ParseClass(s string) (Class, error) {
	switch s {
	case "critical":
		return ClassCritical, nil
	case "standard":
		return ClassStandard, nil
	case "sheddable":
		return ClassSheddable, nil
	}
	return 0, fmt.Errorf("workload: unknown SLO class %q", s)
}

// Classes returns the three classes in priority order (critical
// first).
func Classes() []Class { return []Class{ClassCritical, ClassStandard, ClassSheddable} }

// ClassPolicy is one class's planning SLO.
type ClassPolicy struct {
	Class Class
	// Deadline is the class SLO deadline in seconds: per-task total
	// latency for RecommendForClass, application makespan for the
	// contended capacity planner.
	Deadline float64
	// Target is the required probability of meeting the deadline,
	// in (0, 1).
	Target float64
	// MaxParallel bounds the average parallel copies per task the
	// class may keep in flight (>= 1).
	MaxParallel float64
	// Budget is the Δcost ceiling relative to the single optimum
	// (Eq. 6); 0 means uncapped.
	Budget float64
}

// Validate checks the policy.
func (p ClassPolicy) Validate() error {
	if p.Class >= numClasses {
		return fmt.Errorf("workload: unknown class %d", int(p.Class))
	}
	if !(p.Deadline > 0) || math.IsInf(p.Deadline, 1) {
		return fmt.Errorf("workload: class %s deadline %v must be positive and finite", p.Class, p.Deadline)
	}
	if !(p.Target > 0 && p.Target < 1) {
		return fmt.Errorf("workload: class %s target %v outside (0, 1)", p.Class, p.Target)
	}
	if p.MaxParallel < 1 || math.IsNaN(p.MaxParallel) {
		return fmt.Errorf("workload: class %s parallel budget %v must be >= 1", p.Class, p.MaxParallel)
	}
	if p.Budget < 0 || math.IsNaN(p.Budget) {
		return fmt.Errorf("workload: class %s cost budget %v must be >= 0", p.Class, p.Budget)
	}
	return nil
}

// DefaultPolicies derives the three class policies from a base
// deadline (the latency the critical class must meet): critical pays
// for redundancy to hit the base deadline with high confidence,
// standard gets twice the time at bounded cost, and sheddable gets
// four times the time with essentially no extra cost allowed.
func DefaultPolicies(deadline float64) []ClassPolicy {
	return []ClassPolicy{
		{Class: ClassCritical, Deadline: deadline, Target: 0.9, MaxParallel: 5, Budget: 0},
		{Class: ClassStandard, Deadline: 2 * deadline, Target: 0.85, MaxParallel: 2, Budget: 3},
		{Class: ClassSheddable, Deadline: 4 * deadline, Target: 0.75, MaxParallel: 1, Budget: 1.05},
	}
}

// ClassDemand is one class's application demand under contended
// capacity.
type ClassDemand struct {
	Policy ClassPolicy
	App    Application
}

// ClassAllocation is the contended planner's verdict for one class.
type ClassAllocation struct {
	Class Class
	// B is the chosen collection size; 0 when the class is infeasible
	// under its deadline within the capacity it was offered.
	B        int
	Est      MakespanEstimate
	Feasible bool
	// GridLoad is the peak concurrent copies the allocation consumes
	// (0 when infeasible — an infeasible class is refused, mirroring
	// admission shedding, rather than silently over-committing).
	GridLoad float64
}

// SmallestMeetingDeadlineContended is the class-aware version of
// SmallestMeetingDeadline: demands are planned in priority order
// (critical first) against a shared parallel-copy capacity. Each class
// gets the smallest collection size whose analytic makespan meets its
// policy deadline, with its affordable b capped by the capacity the
// higher classes left; a class that cannot meet its deadline within
// its remaining capacity (or its policy's MaxParallel) is reported
// infeasible and consumes nothing. Returns the allocations in priority
// order and the capacity left over.
func SmallestMeetingDeadlineContended(m core.Model, demands []ClassDemand, capacity float64, maxB int) ([]ClassAllocation, float64, error) {
	if capacity <= 0 || math.IsNaN(capacity) {
		return nil, 0, fmt.Errorf("workload: non-positive capacity %v", capacity)
	}
	if maxB < 1 {
		return nil, 0, fmt.Errorf("workload: maxB must be >= 1, got %d", maxB)
	}
	for _, d := range demands {
		if err := d.Policy.Validate(); err != nil {
			return nil, 0, err
		}
		if err := d.App.Validate(); err != nil {
			return nil, 0, err
		}
	}
	ordered := append([]ClassDemand(nil), demands...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Policy.Class < ordered[j].Policy.Class })

	out := make([]ClassAllocation, 0, len(ordered))
	remaining := capacity
	for _, d := range ordered {
		alloc := ClassAllocation{Class: d.Policy.Class}
		// The class's copy ceiling: its own policy, the global maxB,
		// and what fits in the remaining capacity at its wave width.
		bCap := maxB
		if pb := int(math.Floor(d.Policy.MaxParallel)); pb < bCap {
			bCap = pb
		}
		if cb := int(math.Floor(remaining / float64(d.App.WaveWidth))); cb < bCap {
			bCap = cb
		}
		if bCap >= 1 {
			b, est, err := SmallestMeetingDeadline(m, d.App, d.Policy.Deadline, bCap)
			if err != nil {
				return nil, 0, err
			}
			if b > 0 {
				alloc.B = b
				alloc.Est = est
				alloc.Feasible = true
				alloc.GridLoad = est.GridLoad
				remaining -= est.GridLoad
			}
		}
		if !alloc.Feasible && bCap >= 1 {
			// Report what the class would have achieved at its ceiling
			// so the caller can see how far off the deadline it is.
			s, err := MultipleStrategy(m, bCap)
			if err != nil {
				return nil, 0, err
			}
			est, err := EstimateMakespan(d.App, s)
			if err != nil {
				return nil, 0, err
			}
			alloc.Est = est
		}
		out = append(out, alloc)
	}
	return out, remaining, nil
}
