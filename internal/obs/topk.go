package obs

import (
	"sort"
	"sync"
)

// TopKMode selects how a TopK combines repeated observations of the
// same key.
type TopKMode uint8

const (
	// TopKSum accumulates per-key sums with the space-saving sketch:
	// when the tracker is full, the minimum entry is evicted and the
	// incoming key inherits its count. Individual entries can therefore
	// overestimate, but the total across all entries is exactly the sum
	// of every Add — eviction transfers mass, it never duplicates or
	// drops it. That invariant is what lets per-entity rejection counts
	// reconcile exactly against the aggregate rejection counters.
	TopKSum TopKMode = iota
	// TopKMax keeps the per-key maximum and evicts the smallest entry
	// when full. Approximate (an evicted key's history is forgotten),
	// intended for level-style heat such as link utilization or battery
	// depth-of-discharge.
	TopKMax
)

func (m TopKMode) String() string {
	if m == TopKMax {
		return "max"
	}
	return "sum"
}

type topkEntry struct {
	key uint64
	val float64
}

// TopK is a bounded-cardinality heavy-hitter tracker: a fixed-capacity
// set of (key, value) pairs updated by linear scan. No map, no
// per-update allocation — the entry array is allocated once at
// construction, so the hot path is allocation-free regardless of key
// churn. With K around 32 the scan is a few cache lines, negligible
// next to a routing search.
//
// A nil *TopK is a valid no-op instrument, matching the other obs
// handles. Updates and snapshots are mutex-guarded; the engine's one
// writer at a time is the only updater in practice, with HTTP snapshot
// readers on the other side of the lock.
type TopK struct {
	mu      sync.Mutex
	mode    TopKMode
	total   float64
	entries []topkEntry // unsorted; len grows to cap, never beyond
	label   func(key uint64) string
}

// NewTopK creates a tracker holding at most k entries. k < 1 is
// clamped to 1.
func NewTopK(k int, mode TopKMode) *TopK {
	if k < 1 {
		k = 1
	}
	return &TopK{mode: mode, entries: make([]topkEntry, 0, k)}
}

// SetLabeler installs a key-to-label function used when snapshotting
// (e.g. rendering a packed link key as "12->13"). No-op on nil.
func (t *TopK) SetLabeler(f func(key uint64) string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.label = f
	t.mu.Unlock()
}

// Add accumulates delta onto key (sum mode). On a full tracker the
// minimum entry is evicted and key inherits its count plus delta, so
// the sum over all entries always equals the sum of all Adds. No-op on
// nil or in max mode.
func (t *TopK) Add(key uint64, delta float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.mode == TopKSum {
		t.total += delta
		if i := t.find(key); i >= 0 {
			t.entries[i].val += delta
		} else if len(t.entries) < cap(t.entries) {
			t.entries = append(t.entries, topkEntry{key: key, val: delta})
		} else {
			m := t.minIndex()
			t.entries[m] = topkEntry{key: key, val: t.entries[m].val + delta}
		}
	}
	t.mu.Unlock()
}

// Observe records a level observation for key (max mode): the entry
// keeps the largest value seen. On a full tracker the smallest entry
// is evicted only if v beats it. No-op on nil or in sum mode.
func (t *TopK) Observe(key uint64, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.mode == TopKMax {
		t.total++
		if i := t.find(key); i >= 0 {
			if v > t.entries[i].val {
				t.entries[i].val = v
			}
		} else if len(t.entries) < cap(t.entries) {
			t.entries = append(t.entries, topkEntry{key: key, val: v})
		} else if m := t.minIndex(); v > t.entries[m].val {
			t.entries[m] = topkEntry{key: key, val: v}
		}
	}
	t.mu.Unlock()
}

// find returns the index of key, or -1. Caller holds t.mu.
func (t *TopK) find(key uint64) int {
	for i := range t.entries {
		if t.entries[i].key == key {
			return i
		}
	}
	return -1
}

// minIndex returns the index of the smallest entry. Caller holds t.mu
// and guarantees len(t.entries) > 0.
func (t *TopK) minIndex() int {
	m := 0
	for i := 1; i < len(t.entries); i++ {
		if t.entries[i].val < t.entries[m].val {
			m = i
		}
	}
	return m
}

// TopKEntry is one ranked entry in a TopKSnapshot.
type TopKEntry struct {
	Key   uint64  `json:"key"`
	Label string  `json:"label,omitempty"`
	Value float64 `json:"value"`
}

// TopKSnapshot is a point-in-time ranking, entries sorted by value
// descending (ties broken by key for determinism).
type TopKSnapshot struct {
	K       int         `json:"k"`
	Mode    string      `json:"mode"`
	Total   float64     `json:"total"`
	Entries []TopKEntry `json:"entries,omitempty"`
}

// Snapshot returns the current ranking. The zero snapshot on nil.
func (t *TopK) Snapshot() TopKSnapshot {
	if t == nil {
		return TopKSnapshot{}
	}
	t.mu.Lock()
	snap := TopKSnapshot{K: cap(t.entries), Mode: t.mode.String(), Total: t.total}
	if len(t.entries) > 0 {
		snap.Entries = make([]TopKEntry, len(t.entries))
		for i, e := range t.entries {
			snap.Entries[i] = TopKEntry{Key: e.key, Value: e.val}
			if t.label != nil {
				snap.Entries[i].Label = t.label(e.key)
			}
		}
	}
	t.mu.Unlock()
	sort.Slice(snap.Entries, func(i, j int) bool {
		if snap.Entries[i].Value != snap.Entries[j].Value {
			return snap.Entries[i].Value > snap.Entries[j].Value
		}
		return snap.Entries[i].Key < snap.Entries[j].Key
	})
	return snap
}

// TopK returns the named tracker, creating it with the given capacity
// and mode on first use (later calls reuse the existing tracker and
// ignore the arguments). Returns nil (a no-op tracker) on a nil
// registry.
func (r *Registry) TopK(name string, k int, mode TopKMode) *TopK {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.topks[name]
	if !ok {
		t = NewTopK(k, mode)
		r.topks[name] = t
	}
	return t
}
