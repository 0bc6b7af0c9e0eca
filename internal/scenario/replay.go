package scenario

import (
	"cmp"
	"fmt"
	"slices"

	"spacebooking/internal/topology"
	"spacebooking/internal/trace"
	"spacebooking/internal/workload"
)

// RequestsFromTrace reconstructs the exact request stream a recorded
// run admitted from its decision records that carry a seq, in seq order,
// so a `spacebench run -trace` file and a `spaced -audit-log` (written in
// the order handlers finish) replay alike. The seqs must run 1, 2, …: a
// gap is a decision the audit ring dropped, which no replay can
// reproduce. Through sim.Run or the serving path the stream reproduces
// every decision, price and Result byte-identically, since the records
// keep the engine's inputs exactly (Go marshals the shortest float that
// parses back to the same bits). The second return is the spec name of
// the run_info line (empty for the flat workload and audit logs), which a
// replay echoes so recorded and replayed traces stay byte-identical.
func RequestsFromTrace(records []trace.Record) ([]workload.Request, string, error) {
	var decided []*trace.Record
	specName := ""
	for i := range records {
		switch r := &records[i]; {
		case r.Kind == trace.KindRunInfo:
			specName = r.Spec
		case r.Kind == trace.KindDecision && r.Seq != 0:
			decided = append(decided, r)
		}
	}
	if len(decided) == 0 {
		return nil, "", fmt.Errorf("scenario: trace has no decision records with a seq")
	}
	slices.SortFunc(decided, func(a, b *trace.Record) int { return cmp.Compare(a.Seq, b.Seq) })
	reqs := make([]workload.Request, len(decided))
	for i, r := range decided {
		if r.Seq != i+1 {
			return nil, "", fmt.Errorf("scenario: decision seq %d where %d was due (a record is missing or repeated)", r.Seq, i+1)
		}
		src, err := endpointFromTrace(r.SrcKind, r.SrcIndex)
		if err != nil {
			return nil, "", fmt.Errorf("scenario: decision seq %d src: %w", r.Seq, err)
		}
		dst, err := endpointFromTrace(r.DstKind, r.DstIndex)
		if err != nil {
			return nil, "", fmt.Errorf("scenario: decision seq %d dst: %w", r.Seq, err)
		}
		reqs[i] = workload.Request{
			ID:          r.RequestID,
			Src:         src,
			Dst:         dst,
			ArrivalSlot: r.Arrival,
			StartSlot:   r.Start,
			EndSlot:     r.End,
			RateMbps:    r.RateMbps,
			Valuation:   r.Valuation,
			Class:       r.Class,
		}
	}
	return reqs, specName, nil
}

// endpointFromTrace inverts sim.DecisionRecord's endpoint naming.
func endpointFromTrace(kind string, index int) (topology.Endpoint, error) {
	k, err := topology.ParseEndpointKind(kind)
	if err == nil && index < 0 {
		err = fmt.Errorf("negative endpoint index %d", index)
	}
	return topology.Endpoint{Kind: k, Index: index}, err
}
