package energy

import "spacebooking/internal/obs"

// Instruments holds the package's observability counters. There is no
// package-global attachment point: netstate attaches one handle per
// State (to every battery it builds), so concurrent runs count into
// their own registries.
type Instruments struct {
	// DeficitWalks counts deficit walks: each run of walk — the kernel
	// behind CEAR's deficit pricing and every feasibility check — each
	// constant run or capacity proof that stands in for one, and each
	// VisitDeficit call.
	DeficitWalks *obs.Counter
	// Consumptions counts committed Consume calls across all batteries.
	Consumptions *obs.Counter
}

// countDeficitWalk counts one deficit walk; a single branch when the
// battery carries no instruments.
func (in *Instruments) countDeficitWalk() {
	if in == nil {
		return
	}
	in.DeficitWalks.Inc()
}

// countConsume counts one committed consumption.
func (in *Instruments) countConsume() {
	if in == nil {
		return
	}
	in.Consumptions.Inc()
}
