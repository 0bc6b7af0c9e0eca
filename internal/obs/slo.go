package obs

import "sync/atomic"

// SLOClass tracks one service-level objective as a good/bad event
// stream and derives an error-budget burn rate: the fraction of events
// that were bad, divided by the fraction the target allows. Burn 1.0
// means the budget is being spent exactly as fast as it accrues;
// above 1.0 the objective is being missed.
//
// The class registers three gauges — slo.<name>.burn_rate, .good and
// .bad — so the burn shows up in /metrics and run reports without any
// extra plumbing. Updates are lock-free; a nil *SLOClass is a valid
// no-op instrument.
type SLOClass struct {
	name      string
	objective float64 // seconds; 0 for event-based (non-latency) classes
	target    float64 // required good fraction, clamped below 1
	good      atomic.Int64
	bad       atomic.Int64
	gBurn     *Gauge
	gGood     *Gauge
	gBad      *Gauge
}

// NewSLOClass builds a class with the given latency objective (seconds;
// 0 for availability-style classes) and good-fraction target. Targets
// at or above 1 are clamped to 0.9999 so the burn rate stays finite.
// A nil registry yields a class that still counts but exports nothing.
func NewSLOClass(reg *Registry, name string, objectiveSeconds, target float64) *SLOClass {
	if target >= 1 {
		target = 0.9999
	}
	if target < 0 {
		target = 0
	}
	return &SLOClass{
		name:      name,
		objective: objectiveSeconds,
		target:    target,
		gBurn:     reg.Gauge("slo." + name + ".burn_rate"),
		gGood:     reg.Gauge("slo." + name + ".good"),
		gBad:      reg.Gauge("slo." + name + ".bad"),
	}
}

// Observe records one good or bad event and refreshes the gauges.
func (c *SLOClass) Observe(good bool) {
	if c == nil {
		return
	}
	if good {
		c.gGood.Set(float64(c.good.Add(1)))
	} else {
		c.gBad.Set(float64(c.bad.Add(1)))
	}
	c.gBurn.Set(c.burn(c.good.Load(), c.bad.Load()))
}

// ObserveLatency records one latency sample against the objective.
func (c *SLOClass) ObserveLatency(seconds float64) {
	if c == nil {
		return
	}
	c.Observe(seconds <= c.objective)
}

// burn computes the error-budget burn rate from event counts.
func (c *SLOClass) burn(good, bad int64) float64 {
	total := good + bad
	if total == 0 || bad == 0 {
		return 0
	}
	badFrac := float64(bad) / float64(total)
	return badFrac / (1 - c.target)
}

// SLOSnapshot is the JSON form of one class's state, used by /v1/stats
// and the run report's slo section (schema v3).
type SLOSnapshot struct {
	Name             string  `json:"name"`
	ObjectiveSeconds float64 `json:"objective_seconds,omitempty"`
	Target           float64 `json:"target"`
	Good             int64   `json:"good"`
	Bad              int64   `json:"bad"`
	GoodFraction     float64 `json:"good_fraction"`
	BurnRate         float64 `json:"burn_rate"`
}

// Snapshot captures the class. An event-free class reports a good
// fraction of 1 (no budget spent).
func (c *SLOClass) Snapshot() SLOSnapshot {
	if c == nil {
		return SLOSnapshot{}
	}
	good, bad := c.good.Load(), c.bad.Load()
	s := SLOSnapshot{
		Name:             c.name,
		ObjectiveSeconds: c.objective,
		Target:           c.target,
		Good:             good,
		Bad:              bad,
		GoodFraction:     1,
		BurnRate:         c.burn(good, bad),
	}
	if total := good + bad; total > 0 {
		s.GoodFraction = float64(good) / float64(total)
	}
	return s
}
