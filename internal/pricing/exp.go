// Copyright 2010 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the GO_LICENSE file.

package pricing

import "math"

// Exp is e^x computed the way the Go standard library's amd64 math.Exp
// computes it on a CPU with AVX and FMA: the avxfma lane of
// src/math/exp_amd64.s (Go 1.24), ported to Go. That assembly picks its
// lane by CPU feature, so math.Exp returns different bits on an amd64
// host without FMA (or under GODEBUG=cpu.fma=off), and the price tables,
// GDP site weights and workload samples computed with it moved with the
// host. Here math.FMA rounds once on every host, and every other product
// is wrapped in float64() so that no compiler fuses it, which makes the
// result a function of x alone.
//
// The method is Naoki Shibata's ("Efficient evaluation methods of
// elementary functions suitable for SIMD computation", ISC'10); the
// constants come from his SLEEF library, which is in the public domain.
// The port keeps the assembly's operations and their order.
func Exp(x float64) float64 {
	switch {
	case math.IsNaN(x) || math.IsInf(x, 1):
		return x
	case math.IsInf(x, -1):
		return 0
	case x > expOverflow:
		return math.Inf(1)
	}
	// CVTSD2SL rounds to nearest even and answers MinInt32 for anything
	// below int32's range, which underflows to 0 below.
	r := math.RoundToEven(float64(expLog2e * x))
	if r < math.MinInt32 {
		return 0
	}
	x = math.FMA(-r, expLn2Hi, x)
	x = math.FMA(-r, expLn2Lo, x)
	x = float64(x * 0.0625)
	// e^y − 1 by its Taylor series, 1/8! down to 1/2! and then 1, in
	// Horner form; the coefficients are SLEEF's.
	p := math.FMA(x, 2.4801587301587301587e-5, 1.9841269841269841270e-4)
	p = math.FMA(x, p, 1.3888888888888888889e-3)
	p = math.FMA(x, p, 8.3333333333333333333e-3)
	p = math.FMA(x, p, 4.1666666666666666667e-2)
	p = math.FMA(x, p, 1.6666666666666666667e-1)
	p = math.FMA(x, p, 0.5)
	p = math.FMA(x, p, 1)
	x = float64(x * p)
	// Square back up the 1/16 reduction: (e^y − 1)(e^y + 1) = e^2y − 1.
	for range 3 {
		x = float64(x * float64(x+2))
	}
	x = math.FMA(float64(x+2), x, 1)
	// x · 2^r, in two steps when 2^r lies below the normal range.
	e := int(r) + 0x3FF
	switch {
	case e >= 0x7FF:
		return math.Inf(1)
	case e > 0:
		return float64(x * math.Float64frombits(uint64(e)<<52))
	case e < -52:
		return 0
	}
	x = float64(x * math.Float64frombits(uint64(e+0x3FE)<<52))
	return float64(x * math.Float64frombits(1<<52))
}

const (
	expLog2e    = 1.4426950408889634073599246810018920                  // 1/ln 2
	expLn2Hi    = 0.69314718055966295651160180568695068359375           // ln 2, upper half
	expLn2Lo    = 0.28235290563031577122588448175013436025525412068e-12 // ln 2 − expLn2Hi
	expOverflow = 7.09782712893384e+02
)
