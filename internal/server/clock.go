package server

import (
	"sync/atomic"
	"time"
)

// slotClock maps wall-clock time to simulated slots.
//
// Two modes:
//
//   - Real time (perSlot > 0): slot = elapsed/perSlot since Start. One
//     paper slot is one simulated minute; a clock rate of R slots/second
//     compresses a minute of simulated time into 1/R seconds of wall
//     time. The clock never goes backwards and keeps counting past the
//     horizon (callers decide what an out-of-horizon slot means).
//
//   - As fast as possible (perSlot == 0): the clock is arrival-driven.
//     It stays at the high-water arrival slot observed so far, so a
//     replayed request stream runs at whatever speed the engine can
//     sustain while slots still advance monotonically. This is the
//     benchmarking mode, and the mode under which a served request
//     stream is bit-identical to a batch sim.Run of the same stream.
type slotClock struct {
	perSlot time.Duration // 0 = arrival-driven
	start   time.Time
	high    atomic.Int64 // arrival-driven high-water slot
}

// newSlotClock builds a clock advancing at rate simulated slots per
// wall second; rate 0 selects the arrival-driven mode.
func newSlotClock(rate float64, now time.Time) *slotClock {
	c := &slotClock{start: now}
	if rate > 0 {
		c.perSlot = time.Duration(float64(time.Second) / rate)
	}
	return c
}

// realtime reports whether the clock advances with wall time.
func (c *slotClock) realtime() bool { return c.perSlot > 0 }

// now returns the current simulated slot.
func (c *slotClock) now(t time.Time) int {
	if c.perSlot == 0 {
		return int(c.high.Load())
	}
	elapsed := t.Sub(c.start)
	if elapsed < 0 {
		return 0
	}
	return int(elapsed / c.perSlot)
}

// observe ratchets an arrival-driven clock up to slot; no-op in real
// time mode (wall time is the only authority there).
func (c *slotClock) observe(slot int) {
	if c.perSlot != 0 {
		return
	}
	for {
		cur := c.high.Load()
		if int64(slot) <= cur || c.high.CompareAndSwap(cur, int64(slot)) {
			return
		}
	}
}
