package spacebooking_test

import (
	"math"
	"slices"
	"testing"

	"spacebooking"
	"spacebooking/internal/geo"
	"spacebooking/internal/topology"
)

// unprunedScan is the visibility scan as it was before planes were
// pruned: every satellite's position checked against the range limit,
// then for elevation (ground) or line of sight (space).
type unprunedScan struct {
	prov       *topology.Provider
	maxSlantKm float64
	row        []geo.Vec3
}

func newUnprunedScan(prov *topology.Provider) *unprunedScan {
	cfg := prov.Config()
	maxAlt := cfg.Walker.AltitudeKm
	for _, shell := range cfg.ExtraShells {
		maxAlt = math.Max(maxAlt, shell.AltitudeKm)
	}
	re, sinEl := geo.EarthRadiusKm, math.Sin(geo.DegToRad(cfg.MinElevationDeg))
	return &unprunedScan{
		prov:       prov,
		maxSlantKm: -re*sinEl + math.Sqrt(re*re*sinEl*sinEl+2*re*maxAlt+maxAlt*maxAlt),
		row:        make([]geo.Vec3, prov.NumSats()),
	}
}

// slot loads the slot's satellite positions.
func (u *unprunedScan) slot(slot int) {
	for sat := range u.row {
		u.row[sat] = u.prov.SatPosECEF(slot, sat)
	}
}

// visible scans the loaded slot for e.
func (u *unprunedScan) visible(t *testing.T, e topology.Endpoint, slot int) []int {
	obs, err := u.prov.EndpointECEF(e, slot)
	if err != nil {
		t.Fatal(err)
	}
	cfg := u.prov.Config()
	reach := cfg.MaxEORangeKm
	if e.Kind == topology.EndpointGround {
		reach = u.maxSlantKm
	}
	var vis []int
	for sat, pos := range u.row {
		if pos.Sub(obs).NormSq() > reach*reach {
			continue
		}
		if e.Kind == topology.EndpointGround && geo.ElevationDeg(obs, pos) >= cfg.MinElevationDeg ||
			e.Kind == topology.EndpointSpace && geo.LineOfSightClear(obs, pos, 0) {
			vis = append(vis, sat)
		}
	}
	return vis
}

// TestVisibilityMatchesUnprunedScan: the plane-pruned scan lists, element
// for element, the satellites the unpruned scan finds — in every slot,
// for the frozen pair endpoints and, through the lazy path, every ground
// site and EO satellite at the small and medium presets, and for the
// pair endpoints at the paper-scale preset.
func TestVisibilityMatchesUnprunedScan(t *testing.T) {
	for _, scale := range []spacebooking.Scale{spacebooking.ScaleSmall, spacebooking.ScaleMedium, spacebooking.ScaleFull} {
		if scale == spacebooking.ScaleFull && testing.Short() {
			t.Skip("paper-scale environment in -short mode")
		}
		env, err := spacebooking.NewEnvironment(spacebooking.EnvConfig{Scale: scale, IncludeEOFleet: true})
		if err != nil {
			t.Fatal(err)
		}
		prov := env.Provider
		var frozen, lazy []topology.Endpoint
		for _, p := range env.Pairs {
			frozen = append(frozen, p.Src, p.Dst)
		}
		if scale != spacebooking.ScaleFull {
			for i := range prov.NumSites() {
				lazy = append(lazy, topology.Endpoint{Kind: topology.EndpointGround, Index: i})
			}
			for i := range prov.NumEO() {
				lazy = append(lazy, topology.Endpoint{Kind: topology.EndpointSpace, Index: i})
			}
		}
		scan := newUnprunedScan(prov)
		for slot := range prov.Horizon() {
			scan.slot(slot)
			for _, e := range slices.Concat(frozen, lazy) {
				got, err := prov.VisibleSats(e, slot)
				if err != nil {
					t.Fatal(err)
				}
				if want := scan.visible(t, e, slot); !slices.Equal(got, want) {
					t.Fatalf("%v, endpoint %+v (frozen %v), slot %d: provider sees %v, unpruned scan %v",
						scale, e, slices.Contains(frozen, e), slot, got, want)
				}
			}
		}
	}
}
