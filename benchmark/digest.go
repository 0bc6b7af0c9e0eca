package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"spacebooking/internal/router"
	"spacebooking/internal/server"
)

// decision is the comparable part of one admission outcome, in the form
// both the direct engine and the serving layer can produce: a rejection
// carries no price and no hops (the wire reservation drops them), and the
// free-text reason is reduced to its class.
type decision struct {
	Accepted bool
	Price    float64
	Hops     int
	Reason   string
}

// reasonClass maps a rejection reason to a stable category, following
// sim's own classification plus the serving layer's two reasons.
func reasonClass(reason string) string {
	switch {
	case reason == "":
		return ""
	case strings.Contains(reason, "no feasible path"):
		return "no-path"
	case strings.Contains(reason, "exceeds valuation"):
		return "priced-out"
	case strings.Contains(reason, "energy infeasible"):
		return "energy-infeasible"
	case reason == server.ReasonExpired, reason == server.ReasonHorizonExhausted:
		return reason
	default:
		return "other"
	}
}

func decisionOf(d router.Decision) decision {
	if d.Accepted {
		return decision{Accepted: true, Price: d.Price, Hops: d.Plan.TotalHops()}
	}
	return decision{Reason: reasonClass(d.Reason)}
}

func decisionOfReservation(r *server.Reservation) decision {
	if r.Status == server.StatusAccepted {
		return decision{Accepted: true, Price: r.Price, Hops: r.TotalHops}
	}
	return decision{Reason: reasonClass(r.Reason)}
}

// digest is SHA-256 over (index, accepted, price bits, hops, reason
// class) of every decision in order.
func digest(ds []decision) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for i, d := range ds {
		put(uint64(i))
		if d.Accepted {
			put(1)
		} else {
			put(0)
		}
		put(math.Float64bits(d.Price))
		put(uint64(d.Hops))
		h.Write([]byte(d.Reason))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

//go:embed golden.json
var goldenJSON []byte

// goldenKey identifies one pinned decision stream: floating-point
// contraction differs between architectures, so GOARCH is part of it.
func goldenKey(workload string, seed int64, requests int) string {
	return fmt.Sprintf("%s/seed=%d/n=%d/%s", workload, seed, requests, runtime.GOARCH)
}

func loadGolden() (map[string]string, error) {
	g := map[string]string{}
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// goldenPath is golden.json beside this source file: -update-golden
// rewrites the committed copy, and the next build embeds it.
func goldenPath() string {
	_, file, _, _ := runtime.Caller(0)
	return filepath.Join(filepath.Dir(file), "golden.json")
}

// updateGolden merges entries into the committed golden.json. It reads
// the file, not the embedded copy: several -update-golden runs may precede
// the next build.
func updateGolden(entries map[string]string) error {
	b, err := os.ReadFile(goldenPath())
	if err != nil {
		return fmt.Errorf("golden.json: %w", err)
	}
	g := map[string]string{}
	if err := json.Unmarshal(b, &g); err != nil {
		return fmt.Errorf("golden.json: %w", err)
	}
	for k, v := range entries {
		g[k] = v
	}
	if b, err = json.MarshalIndent(g, "", "  "); err != nil {
		return err
	}
	return os.WriteFile(goldenPath(), append(b, '\n'), 0o644)
}
