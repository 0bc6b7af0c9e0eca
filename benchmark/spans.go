package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// span is one interval recorded at a layer boundary. Times are
// nanoseconds since the run's epoch. Parent is the id of the span that
// caused this one (-1 for a root); spans of one request share Req (-1
// for spans outside any request, such as set-up).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Req     int    `json:"req"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

func (s span) dur() int64 {
	if s.EndNs < s.StartNs {
		return 0
	}
	return s.EndNs - s.StartNs
}

// spanLog keeps a traced run's spans in memory; they are written out
// only when the run has ended (-trace-out).
type spanLog struct {
	spans []span
}

// add records one closed span and returns its id. A nil log records
// nothing, so untraced runs share the call sites.
func (l *spanLog) add(parent int, name string, req int, startNs, endNs int64) int {
	if l == nil {
		return -1
	}
	id := len(l.spans)
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Req: req, StartNs: startNs, EndNs: endNs})
	return id
}

// selfTimes returns, per span (indexed by id), the span's duration minus
// the part of its interval its direct children cover. Overlapping
// children are counted once and children are clipped to the parent, so
// self time is never negative.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for _, p := range spans {
		kids := children[p.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		covered, cursor := int64(0), p.StartNs
		for _, k := range kids {
			start, end := k.StartNs, k.EndNs
			if start < cursor {
				start = cursor
			}
			if end > p.EndNs {
				end = p.EndNs
			}
			if end > start {
				covered += end - start
				cursor = end
			}
		}
		self[p.ID] = p.dur() - covered
	}
	return self
}

// spanStat is one span name's line of a traced run's summary.
type spanStat struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	MeanUs float64 `json:"mean_us"`
	SelfUs float64 `json:"self_us"`
}

// summary returns, per span name in order of first appearance, how many
// spans there were and their mean duration and mean self time in
// microseconds.
func (l *spanLog) summary() []spanStat {
	self := selfTimes(l.spans)
	index := map[string]int{}
	var out []spanStat
	for _, s := range l.spans {
		i, ok := index[s.Name]
		if !ok {
			i = len(out)
			index[s.Name] = i
			out = append(out, spanStat{Name: s.Name})
		}
		out[i].Count++
		out[i].MeanUs += float64(s.dur()) / 1e3
		out[i].SelfUs += float64(self[s.ID]) / 1e3
	}
	for i := range out {
		out[i].MeanUs /= float64(out[i].Count)
		out[i].SelfUs /= float64(out[i].Count)
	}
	return out
}

// writeJSONL writes one span per line.
func (l *spanLog) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace-out: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("trace-out: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace-out: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace-out: %w", err)
	}
	return nil
}
