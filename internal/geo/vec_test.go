package geo

import (
	"math"
	"testing"
	"testing/quick"
)

const floatTol = 1e-9

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func vecAlmostEqual(a, b Vec3, tol float64) bool {
	return almostEqual(a.X, b.X, tol) && almostEqual(a.Y, b.Y, tol) && almostEqual(a.Z, b.Z, tol)
}

func TestVecAddSub(t *testing.T) {
	tests := []struct {
		name string
		a, b Vec3
		sum  Vec3
		diff Vec3
	}{
		{"zeros", Vec3{}, Vec3{}, Vec3{}, Vec3{}},
		{"axes", Vec3{1, 0, 0}, Vec3{0, 1, 0}, Vec3{1, 1, 0}, Vec3{1, -1, 0}},
		{"negatives", Vec3{-1, 2, -3}, Vec3{4, -5, 6}, Vec3{3, -3, 3}, Vec3{-5, 7, -9}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.Add(tt.b); got != tt.sum {
				t.Errorf("Add = %v, want %v", got, tt.sum)
			}
			if got := tt.a.Sub(tt.b); got != tt.diff {
				t.Errorf("Sub = %v, want %v", got, tt.diff)
			}
		})
	}
}

func TestVecDotCross(t *testing.T) {
	x := Vec3{1, 0, 0}
	y := Vec3{0, 1, 0}
	z := Vec3{0, 0, 1}

	if got := x.Cross(y); got != z {
		t.Errorf("x cross y = %v, want %v", got, z)
	}
	if got := y.Cross(x); got != z.Scale(-1) {
		t.Errorf("y cross x = %v, want %v", got, z.Scale(-1))
	}
	if got := x.Dot(y); got != 0 {
		t.Errorf("x dot y = %v, want 0", got)
	}
	if got := (Vec3{1, 2, 3}).Dot(Vec3{4, 5, 6}); got != 32 {
		t.Errorf("dot = %v, want 32", got)
	}
}

func TestVecNormUnit(t *testing.T) {
	v := Vec3{3, 4, 0}
	if got := v.Norm(); got != 5 {
		t.Errorf("Norm = %v, want 5", got)
	}
	if got := v.NormSq(); got != 25 {
		t.Errorf("NormSq = %v, want 25", got)
	}
	u := v.Unit()
	if !almostEqual(u.Norm(), 1, floatTol) {
		t.Errorf("Unit().Norm() = %v, want 1", u.Norm())
	}
	if got := (Vec3{}).Unit(); got != (Vec3{}) {
		t.Errorf("zero Unit = %v, want zero vector", got)
	}
}

func TestVecAngleTo(t *testing.T) {
	tests := []struct {
		name string
		a, b Vec3
		want float64
	}{
		{"orthogonal", Vec3{1, 0, 0}, Vec3{0, 1, 0}, math.Pi / 2},
		{"parallel", Vec3{1, 2, 3}, Vec3{2, 4, 6}, 0},
		{"antiparallel", Vec3{1, 0, 0}, Vec3{-1, 0, 0}, math.Pi},
		{"45deg", Vec3{1, 0, 0}, Vec3{1, 1, 0}, math.Pi / 4},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.AngleTo(tt.b); !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("AngleTo = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestVecRotateZ(t *testing.T) {
	v := Vec3{1, 0, 0}
	got := NewRotation(math.Pi / 2).Z(v)
	if !vecAlmostEqual(got, Vec3{0, 1, 0}, floatTol) {
		t.Errorf("RotateZ(π/2) = %v, want (0,1,0)", got)
	}
	// Z component is invariant.
	w := NewRotation(1.234).Z(Vec3{1, 2, 3})
	if w.Z != 3 {
		t.Errorf("RotateZ changed Z: %v", w.Z)
	}
}

func TestVecRotateX(t *testing.T) {
	v := Vec3{0, 1, 0}
	got := NewRotation(math.Pi / 2).X(v)
	if !vecAlmostEqual(got, Vec3{0, 0, 1}, floatTol) {
		t.Errorf("RotateX(π/2) = %v, want (0,0,1)", got)
	}
}

// Property: rotation preserves vector length.
func TestVecRotationPreservesNorm(t *testing.T) {
	f := func(x, y, z, angle float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) || math.IsNaN(z) || math.IsNaN(angle) {
			return true
		}
		// Clamp to a sane numeric range; quick can generate huge values
		// where float rounding dominates.
		clamp := func(v float64) float64 { return math.Mod(v, 1e6) }
		v := Vec3{clamp(x), clamp(y), clamp(z)}
		a := math.Mod(angle, 2*math.Pi)
		r := NewRotation(a).Z(v)
		return almostEqual(v.Norm(), r.Norm(), 1e-6*(1+v.Norm()))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the cross product is orthogonal to both operands.
func TestVecCrossOrthogonal(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float64) bool {
		clamp := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 1
			}
			return math.Mod(v, 1e3)
		}
		a := Vec3{clamp(ax), clamp(ay), clamp(az)}
		b := Vec3{clamp(bx), clamp(by), clamp(bz)}
		c := a.Cross(b)
		scale := (1 + a.Norm()) * (1 + b.Norm())
		return math.Abs(c.Dot(a)) <= 1e-6*scale && math.Abs(c.Dot(b)) <= 1e-6*scale
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVecDistanceTo(t *testing.T) {
	a := Vec3{1, 2, 3}
	b := Vec3{4, 6, 3}
	if got := a.DistanceTo(b); got != 5 {
		t.Errorf("DistanceTo = %v, want 5", got)
	}
}
