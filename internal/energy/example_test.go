package energy_test

import (
	"fmt"

	"spacebooking/internal/energy"
)

// A satellite with a 100 J battery harvests 10 J per slot. Serving a
// request that costs 35 J in slot 0 drains the slot's solar first; the
// 25 J remainder becomes a battery deficit that later slots' solar pays
// back — Eq. (2) of the paper.
func ExampleBattery_Consume() {
	solar := []float64{10, 10, 10, 10, 10}
	battery, err := energy.NewBattery(100, solar)
	if err != nil {
		panic(err)
	}
	if err := battery.Consume(0, 35); err != nil {
		panic(err)
	}
	for t := 0; t < 5; t++ {
		fmt.Printf("slot %d: deficit %.0f J, level %.0f J\n",
			t, battery.DeficitAt(t), battery.LevelAt(t))
	}
	// Output:
	// slot 0: deficit 25 J, level 75 J
	// slot 1: deficit 15 J, level 85 J
	// slot 2: deficit 5 J, level 95 J
	// slot 3: deficit 0 J, level 100 J
	// slot 4: deficit 0 J, level 100 J
}

// VisitDeficit walks the same profile without mutating the ledger — the
// primitive behind CEAR's energy pricing.
func ExampleBattery_VisitDeficit() {
	solar := []float64{0, 20, 20}
	battery, err := energy.NewBattery(100, solar)
	if err != nil {
		panic(err)
	}
	battery.VisitDeficit(0, 30, func(t int, outstanding float64) bool {
		fmt.Printf("slot %d: would owe %.0f J\n", t, outstanding)
		return true
	})
	fmt.Printf("ledger untouched: deficit %.0f J\n", battery.DeficitAt(0))
	// Output:
	// slot 0: would owe 30 J
	// slot 1: would owe 10 J
	// ledger untouched: deficit 0 J
}
