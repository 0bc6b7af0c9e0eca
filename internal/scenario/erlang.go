package scenario

import (
	"container/heap"
	"fmt"
	"math"
)

// ErlangB returns the Erlang-B blocking probability B(m, E) of an
// M/G/m/m loss system offered E erlangs: the probability an arrival
// finds all m servers busy. Computed in log space —
// m·ln E − ln m!  minus the logsumexp of the denominator series — so it
// stays finite for hundreds of servers where E^m and m! overflow.
//
// By M/G/m/m insensitivity the result depends on the holding-time
// distribution only through its mean, which is what lets the validation
// harness use the generator's uniform integer durations directly.
func ErlangB(servers int, erlangs float64) float64 {
	if servers <= 0 {
		return 1
	}
	if erlangs <= 0 {
		return 0
	}
	logE := math.Log(erlangs)
	terms := make([]float64, servers+1)
	maxT := math.Inf(-1)
	for k := 0; k <= servers; k++ {
		lg, _ := math.Lgamma(float64(k + 1))
		terms[k] = float64(k)*logE - lg
		if terms[k] > maxT {
			maxT = terms[k]
		}
	}
	sum := 0.0
	for _, t := range terms {
		sum += math.Exp(t - maxT)
	}
	return math.Exp(terms[servers] - (maxT + math.Log(sum)))
}

// ErlangBReport is the outcome of validating the generator's measured
// blocking against the Erlang-B prediction on a single-bottleneck
// scenario.
type ErlangBReport struct {
	Servers        int     `json:"servers"`
	LambdaPerSlot  float64 `json:"lambda_per_slot"`
	MeanHoldSlots  float64 `json:"mean_hold_slots"`
	OfferedErlangs float64 `json:"offered_erlangs"`
	// Analytic is B(m, E).
	Analytic float64 `json:"analytic"`
	// Arrivals and Blocked count post-warmup arrivals in the loss
	// simulation; Measured = Blocked/Arrivals.
	Arrivals int     `json:"arrivals"`
	Blocked  int     `json:"blocked"`
	Measured float64 `json:"measured"`
	// Tolerance is the acceptance band: max(0.015, 4·stderr) with
	// stderr the binomial standard error at the analytic rate. The
	// absolute floor absorbs the residual bias of a finite, initially
	// empty system; the stderr term scales the band to the sample size.
	Tolerance float64 `json:"tolerance"`
	Pass      bool    `json:"pass"`
}

func (r ErlangBReport) String() string {
	verdict := "FAIL"
	if r.Pass {
		verdict = "PASS"
	}
	return fmt.Sprintf("erlang_b servers=%d offered=%.3fE analytic=%.4f measured=%.4f (n=%d) tol=%.4f %s",
		r.Servers, r.OfferedErlangs, r.Analytic, r.Measured, r.Arrivals, r.Tolerance, verdict)
}

// ValidateErlangB runs the spec's arrival stream through an exact
// continuous-time m-server loss simulation and compares the measured
// blocking probability against the Erlang-B closed form. It is the
// correctness evidence no seed sweep gives: an agreeing pair means the
// generator's arrival process really is the Poisson process the spec
// declares, at the declared rate, with the declared holding times.
//
// The formula requires stationary Poisson arrivals, so the spec must
// use only poisson classes and no diurnal cycles or events; anything
// else is rejected. The first 10% of the horizon is treated as warmup:
// those arrivals occupy servers but are not scored, removing the
// empty-system transient.
func ValidateErlangB(spec Spec, b Binding, servers int) (ErlangBReport, error) {
	if servers <= 0 {
		return ErlangBReport{}, fmt.Errorf("scenario: erlang-b servers must be positive, got %d", servers)
	}
	lambda := 0.0
	weightedHold := 0.0
	for _, c := range spec.Classes {
		if c.Arrival.Process != ProcessPoisson {
			return ErlangBReport{}, fmt.Errorf("scenario: erlang-b validation requires poisson arrivals, class %q uses %s",
				c.Name, c.Arrival.Process)
		}
		if c.Diurnal != nil {
			return ErlangBReport{}, fmt.Errorf("scenario: erlang-b validation requires a stationary rate, class %q has a diurnal cycle", c.Name)
		}
		lambda += c.Arrival.RatePerSlot
		weightedHold += c.Arrival.RatePerSlot *
			(float64(c.Mix.MinDurationSlots+c.Mix.MaxDurationSlots) / 2)
	}
	if len(spec.Events) > 0 {
		return ErlangBReport{}, fmt.Errorf("scenario: erlang-b validation requires a stationary rate, spec has %d events", len(spec.Events))
	}
	seq, horizon, err := arrivals(spec, b)
	if err != nil {
		return ErlangBReport{}, err
	}
	meanHold := weightedHold / lambda
	offered := lambda * meanHold
	analytic := ErlangB(servers, offered)

	warmupT := float64(horizon) / 10
	busy := &busyHeap{}
	counted, blocked := 0, 0
	for _, a := range seq {
		for busy.Len() > 0 && (*busy)[0] <= a.Time {
			heap.Pop(busy)
		}
		scored := a.Time >= warmupT
		if scored {
			counted++
		}
		if busy.Len() < servers {
			heap.Push(busy, a.Time+a.HoldSlots)
		} else if scored {
			blocked++
		}
	}
	if counted == 0 {
		return ErlangBReport{}, fmt.Errorf("scenario: erlang-b validation saw no post-warmup arrivals (horizon %d too short?)", horizon)
	}
	measured := float64(blocked) / float64(counted)
	stderr := math.Sqrt(analytic * (1 - analytic) / float64(counted))
	tol := math.Max(0.015, 4*stderr)
	return ErlangBReport{
		Servers:        servers,
		LambdaPerSlot:  lambda,
		MeanHoldSlots:  meanHold,
		OfferedErlangs: offered,
		Analytic:       analytic,
		Arrivals:       counted,
		Blocked:        blocked,
		Measured:       measured,
		Tolerance:      tol,
		Pass:           math.Abs(measured-analytic) <= tol,
	}, nil
}

// busyHeap is a min-heap of departure times for the loss simulation.
type busyHeap []float64

func (h busyHeap) Len() int           { return len(h) }
func (h busyHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h busyHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *busyHeap) Push(x any)        { *h = append(*h, x.(float64)) }
func (h *busyHeap) Pop() any          { x := (*h)[len(*h)-1]; *h = (*h)[:len(*h)-1]; return x }
