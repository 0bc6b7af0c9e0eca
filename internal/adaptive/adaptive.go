// Package adaptive implements the paper's §V-B practical parameter
// setting as a runnable controller: the LSN operator periodically
// re-derives the conservativeness parameters F1/F2 from observed network
// conditions, optionally guided by a traffic predictor in the style of
// the Algorithm-with-Predictions (AoP) framework the paper names as
// future work.
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
// Parameters move multiplicatively and are clamped to [MinF, MaxF], so a
// bad predictor can only degrade performance within a bounded band —
// mirroring AoP's bounded-robustness property.
package adaptive

import (
	"fmt"

	"spacebooking/internal/core"
	"spacebooking/internal/netstate"
	"spacebooking/internal/obs"
	"spacebooking/internal/pricing"
	"spacebooking/internal/router"
	"spacebooking/internal/workload"
)

// Predictor forecasts the offered load (requests per slot) of the next
// adjustment window. Implementations may use any signal; the controller
// treats the forecast as advisory.
type Predictor interface {
	// PredictLoad returns the expected requests/slot for the window
	// starting at the given slot.
	PredictLoad(windowStart int) float64
}

// MovingAverage is the simplest useful Predictor: the mean observed
// arrival rate over the last k windows.
type MovingAverage struct {
	k       int
	history []float64
}

// NewMovingAverage builds a k-window moving-average predictor.
func NewMovingAverage(k int) (*MovingAverage, error) {
	if k <= 0 {
		return nil, fmt.Errorf("adaptive: window count must be positive, got %d", k)
	}
	return &MovingAverage{k: k}, nil
}

// Observe records a completed window's realised requests/slot.
func (m *MovingAverage) Observe(ratePerSlot float64) {
	m.history = append(m.history, ratePerSlot)
	if len(m.history) > m.k {
		m.history = m.history[len(m.history)-m.k:]
	}
}

// PredictLoad implements Predictor.
func (m *MovingAverage) PredictLoad(int) float64 {
	if len(m.history) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range m.history {
		sum += v
	}
	return sum / float64(len(m.history))
}

// Config parameterises the controller.
type Config struct {
	// WindowSlots is the adjustment period (how often F1/F2 are
	// re-derived).
	WindowSlots int
	// InitialF1 and InitialF2 seed the parameters (paper default: 1).
	InitialF1 float64
	InitialF2 float64
	// MinF and MaxF clamp both parameters.
	MinF float64
	MaxF float64
	// Step is the multiplicative adjustment per trigger (e.g. 1.5).
	Step float64
	// PricedOutTarget is the tolerated fraction of priced-out rejections
	// per window before pricing is relaxed.
	PricedOutTarget float64
	// DepletionTargetFrac is the tolerated fraction of depleted
	// satellites (battery < 20%) before energy pricing is tightened.
	DepletionTargetFrac float64
	// NominalRatePerSlot anchors the predictor scaling; a prediction of
	// exactly this load leaves the parameters unchanged.
	NominalRatePerSlot float64
	// PruneBudget and Scratch are forwarded to the inner CEAR's routing
	// options (see core.Options). One Scratch is shared by every rebuilt
	// inner instance, so re-derivations keep the warm search arrays.
	PruneBudget bool
	Scratch     *netstate.SearchScratch
	// Predictor is optional; nil disables the AoP term.
	Predictor Predictor
	// Obs is forwarded to the inner CEAR (nil disables instrumentation).
	Obs *obs.Registry
}

// DefaultConfig returns a reasonable controller setup for the paper's
// workloads.
func DefaultConfig(nominalRate float64) Config {
	return Config{
		WindowSlots:         16,
		InitialF1:           1,
		InitialF2:           1,
		MinF:                0.25,
		MaxF:                16,
		Step:                1.5,
		PricedOutTarget:     0.3,
		DepletionTargetFrac: 0.1,
		NominalRatePerSlot:  nominalRate,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.WindowSlots <= 0:
		return fmt.Errorf("adaptive: window must be positive, got %d", c.WindowSlots)
	case c.InitialF1 <= 0 || c.InitialF2 <= 0:
		return fmt.Errorf("adaptive: initial F must be positive (%v, %v)", c.InitialF1, c.InitialF2)
	case c.MinF <= 0 || c.MaxF < c.MinF:
		return fmt.Errorf("adaptive: bad F band [%v, %v]", c.MinF, c.MaxF)
	case c.Step <= 1:
		return fmt.Errorf("adaptive: step must exceed 1, got %v", c.Step)
	case c.PricedOutTarget < 0 || c.PricedOutTarget > 1:
		return fmt.Errorf("adaptive: priced-out target %v outside [0,1]", c.PricedOutTarget)
	case c.DepletionTargetFrac < 0 || c.DepletionTargetFrac > 1:
		return fmt.Errorf("adaptive: depletion target %v outside [0,1]", c.DepletionTargetFrac)
	case c.NominalRatePerSlot < 0:
		return fmt.Errorf("adaptive: negative nominal rate %v", c.NominalRatePerSlot)
	}
	return nil
}

// Controller wraps CEAR with periodic F1/F2 re-derivation. It implements
// router.Algorithm and owns the same resource state across re-derivations
// (only the pricing parameters change).
type Controller struct {
	state *netstate.State
	cfg   Config
	inner *core.CEAR

	f1, f2      float64
	windowStart int

	// Window statistics.
	arrived   int
	pricedOut int
}

var _ router.Algorithm = (*Controller)(nil)

// New builds the controller over a strict-battery state.
func New(state *netstate.State, cfg Config) (*Controller, error) {
	if state == nil {
		return nil, fmt.Errorf("adaptive: nil state")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Controller{state: state, cfg: cfg, f1: cfg.InitialF1, f2: cfg.InitialF2}
	if c.cfg.Scratch == nil {
		// Pin one scratch now so every rebuilt inner CEAR reuses the
		// same warm search arrays across re-derivations.
		c.cfg.Scratch = netstate.NewSearchScratch()
	}
	if err := c.rebuild(); err != nil {
		return nil, err
	}
	return c, nil
}

// Name implements router.Algorithm.
func (c *Controller) Name() string { return "CEAR-AD" }

// rebuild re-derives μ1/μ2 from the current F1/F2 and swaps the inner
// CEAR (sharing the same resource state).
func (c *Controller) rebuild() error {
	params, err := pricing.Derive(c.f1, c.f2, 20, 10)
	if err != nil {
		return err
	}
	inner, err := core.New(c.state, core.Options{
		Pricing:     params,
		PruneBudget: c.cfg.PruneBudget,
		Scratch:     c.cfg.Scratch,
		Obs:         c.cfg.Obs,
	})
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

// adapt closes one window and re-derives the parameters.
func (c *Controller) adapt(nowSlot int) error {
	changed := false

	// Relax pricing if it rejected too aggressively.
	if c.arrived > 0 {
		frac := float64(c.pricedOut) / float64(c.arrived)
		if frac > c.cfg.PricedOutTarget {
			c.f1 /= c.cfg.Step
			c.f2 /= c.cfg.Step
			changed = true
		}
	}

	// Tighten energy pricing if the fleet is draining.
	prevSlot := nowSlot - 1
	if prevSlot >= 0 && prevSlot < c.state.Provider().Horizon() {
		depleted := c.state.DepletedSatCount(prevSlot, 0.2)
		fracDepleted := float64(depleted) / float64(c.state.Provider().NumSats())
		if fracDepleted > c.cfg.DepletionTargetFrac {
			c.f2 *= c.cfg.Step
			changed = true
		}
	}

	// AoP term: scale toward the predicted load.
	if c.cfg.Predictor != nil && c.cfg.NominalRatePerSlot > 0 {
		if ma, ok := c.cfg.Predictor.(*MovingAverage); ok {
			ma.Observe(float64(c.arrived) / float64(c.cfg.WindowSlots))
		}
		predicted := c.cfg.Predictor.PredictLoad(nowSlot)
		if predicted > 0 {
			scale := predicted / c.cfg.NominalRatePerSlot
			switch {
			case scale > 1.25:
				c.f1 *= c.cfg.Step
				c.f2 *= c.cfg.Step
				changed = true
			case scale < 0.75:
				c.f1 /= c.cfg.Step
				c.f2 /= c.cfg.Step
				changed = true
			}
		}
	}

	c.f1 = clampF(c.f1, c.cfg.MinF, c.cfg.MaxF)
	c.f2 = clampF(c.f2, c.cfg.MinF, c.cfg.MaxF)
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
	for req.ArrivalSlot >= c.windowStart+c.cfg.WindowSlots {
		if err := c.adapt(c.windowStart + c.cfg.WindowSlots); err != nil {
			return router.Decision{}, err
		}
	}
	d, err := c.inner.Handle(req)
	if err != nil {
		return router.Decision{}, err
	}
	c.arrived++
	if !d.Accepted && isPricedOut(d.Reason) {
		c.pricedOut++
	}
	return d, nil
}

func isPricedOut(reason string) bool {
	return len(reason) >= 10 && reason[:10] == "plan price"
}
