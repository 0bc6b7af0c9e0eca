// Package adaptive implements the paper's §V-B practical parameter
// setting as a runnable controller: the LSN operator periodically
// re-derives the conservativeness parameters F1/F2 from observed network
// conditions, guided by a traffic predictor in the style of the
// Algorithm-with-Predictions (AoP) framework the paper names as future
// work.
//
// The control rule instantiates the paper's guidance ("monitor the
// historical minimum and maximum demand ... periodically update F1 and
// F2 based on historical trends to maximize the actual achievable social
// welfare"):
//
//   - if too many requests were priced out in the last window, pricing
//     is too conservative → decrease F1 and F2;
//   - if battery depletion exceeds its target, the network is being
//     drained → increase F2 (conserve energy for the future);
//   - a load prediction above nominal scales both parameters up in
//     anticipation (reserve headroom for the predicted wave), and vice
//     versa.
//
// Parameters move multiplicatively and are clamped to [minF, maxF], so a
// bad predictor can only degrade performance within a bounded band —
// mirroring AoP's bounded-robustness property. The predictor is the
// simplest useful one: the mean realised arrival rate of the last
// predictorWindows windows.
package adaptive

import (
	"fmt"

	"spacebooking/internal/core"
	"spacebooking/internal/netstate"
	"spacebooking/internal/pricing"
	"spacebooking/internal/router"
	"spacebooking/internal/trace"
	"spacebooking/internal/workload"
)

// The controller's settings. They are constants because no caller ever
// chose other values.
const (
	// windowSlots is the adjustment period: how often F1/F2 are
	// re-derived.
	windowSlots = 16
	// minF and maxF clamp both parameters.
	minF, maxF = 0.25, 16
	// step is the multiplicative adjustment per trigger.
	step = 1.5
	// pricedOutTarget is the tolerated fraction of priced-out rejections
	// per window before pricing is relaxed.
	pricedOutTarget = 0.3
	// depletionTarget is the tolerated fraction of depleted satellites
	// (battery below depletedFrac) before energy pricing is tightened.
	depletionTarget = 0.1
	depletedFrac    = 0.2
	// predictorWindows is how many closed windows the load prediction
	// averages.
	predictorWindows = 3
)

// Controller wraps CEAR with periodic F1/F2 re-derivation. It implements
// router.Algorithm and owns the same resource state across re-derivations
// (only the pricing parameters change).
type Controller struct {
	state *netstate.State
	// opts are the inner CEAR's options; each re-derivation replaces
	// only Pricing.
	opts core.Options
	// nominal is the requests/slot a prediction is scaled against; a
	// prediction of exactly this load leaves the parameters unchanged,
	// and zero turns the prediction term off.
	nominal float64
	inner   *core.CEAR

	f1, f2      float64
	windowStart int

	// Window statistics.
	arrived   int
	pricedOut int

	// history holds the realised requests/slot of the last nHistory
	// closed windows, oldest first.
	history  [predictorWindows]float64
	nHistory int
}

var _ router.Algorithm = (*Controller)(nil)

// New builds the controller over a strict-battery state. The parameters
// start at opts.Pricing's F1/F2 and are re-derived with the paper's n
// and 𝕋 (pricing.Derive).
func New(state *netstate.State, nominal float64, opts core.Options) (*Controller, error) {
	if state == nil {
		return nil, fmt.Errorf("adaptive: nil state")
	}
	c := &Controller{state: state, opts: opts, nominal: nominal, f1: opts.Pricing.F1, f2: opts.Pricing.F2}
	if err := c.rebuild(); err != nil {
		return nil, err
	}
	return c, nil
}

// rebuild re-derives μ1/μ2 from the current F1/F2 and swaps the inner
// CEAR (sharing the same resource state).
func (c *Controller) rebuild() error {
	params, err := pricing.Derive(c.f1, c.f2)
	if err != nil {
		return err
	}
	c.opts.Pricing = params
	inner, err := core.New(c.state, c.opts)
	if err != nil {
		return err
	}
	c.inner = inner
	return nil
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// predictLoad records a closed window's realised requests/slot and
// returns the mean of the last predictorWindows windows.
func (c *Controller) predictLoad(ratePerSlot float64) float64 {
	if c.nHistory == predictorWindows {
		copy(c.history[:], c.history[1:])
		c.nHistory--
	}
	c.history[c.nHistory] = ratePerSlot
	c.nHistory++
	sum := 0.0
	for _, v := range c.history[:c.nHistory] {
		sum += v
	}
	return sum / float64(c.nHistory)
}

// adapt closes one window and re-derives the parameters.
func (c *Controller) adapt(nowSlot int) error {
	changed := false

	// Relax pricing if it rejected too aggressively.
	if c.arrived > 0 {
		frac := float64(c.pricedOut) / float64(c.arrived)
		if frac > pricedOutTarget {
			c.f1 /= step
			c.f2 /= step
			changed = true
		}
	}

	// Tighten energy pricing if the fleet is draining.
	prevSlot := nowSlot - 1
	if prevSlot >= 0 && prevSlot < c.state.Provider().Horizon() {
		depleted := c.state.DepletedSatCount(prevSlot, depletedFrac)
		fracDepleted := float64(depleted) / float64(c.state.Provider().NumSats())
		if fracDepleted > depletionTarget {
			c.f2 *= step
			changed = true
		}
	}

	// AoP term: scale toward the predicted load.
	if c.nominal > 0 {
		predicted := c.predictLoad(float64(c.arrived) / windowSlots)
		if predicted > 0 {
			scale := predicted / c.nominal
			switch {
			case scale > 1.25:
				c.f1 *= step
				c.f2 *= step
				changed = true
			case scale < 0.75:
				c.f1 /= step
				c.f2 /= step
				changed = true
			}
		}
	}

	c.f1 = clampF(c.f1, minF, maxF)
	c.f2 = clampF(c.f2, minF, maxF)
	c.arrived, c.pricedOut = 0, 0
	c.windowStart = nowSlot

	if !changed {
		return nil // keep the inner CEAR as-is
	}
	return c.rebuild()
}

// Handle implements router.Algorithm: window bookkeeping around the
// inner CEAR.
func (c *Controller) Handle(req workload.Request) (router.Decision, error) {
	for req.ArrivalSlot >= c.windowStart+windowSlots {
		if err := c.adapt(c.windowStart + windowSlots); err != nil {
			return router.Decision{}, err
		}
	}
	d, err := c.inner.Handle(req)
	if err != nil {
		return router.Decision{}, err
	}
	c.arrived++
	if !d.Accepted && trace.ClassifyReason(d.Reason) == "priced-out" {
		c.pricedOut++
	}
	return d, nil
}
