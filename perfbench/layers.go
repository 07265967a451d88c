package main

import (
	"time"

	"repro/internal/obs"
)

// node is a span as the benchmark folds it: a name, a duration and
// children. Trees come from the fleet's trace sink (fromSpan) or are
// built by hand in tests.
type node struct {
	name     string
	dur      time.Duration
	children []*node
}

func fromSpan(s *obs.Span) *node {
	n := &node{name: s.Name, dur: s.Duration()}
	for _, c := range s.Children() {
		n.children = append(n.children, fromSpan(c))
	}
	return n
}

// spanTimes is a folded span tree: per span name, the summed self time
// (a span's duration minus the part its children cover) and the summed
// full duration.
type spanTimes struct {
	self, total map[string]time.Duration
}

func newSpanTimes() *spanTimes {
	return &spanTimes{self: map[string]time.Duration{}, total: map[string]time.Duration{}}
}

// queued names the spans whose interval includes waiting for a worker:
// the fleet opens every cell span before its worker pool starts, so a
// cell's duration counts the cells run before it. Such a span covers
// only what its children cover; its children are folded as children of
// its parent, and its total is their summed duration.
var queued = map[string]bool{"cell": true}

// fold adds the tree rooted at n. Spans carry durations, not start
// times, so the part of a span its children cover is their summed
// duration, capped at the span's own: exact when children run one after
// another, as they do at Parallelism 1, which is how the benchmark runs.
func (st *spanTimes) fold(n *node) {
	var covered time.Duration
	for _, c := range st.work(n) {
		covered += c.dur
		st.fold(c)
	}
	if covered > n.dur {
		covered = n.dur
	}
	st.self[n.name] += n.dur - covered
	st.total[n.name] += n.dur
}

// work lists the spans that did n's children's work: each child, or, for
// a queued child, its own children in its place.
func (st *spanTimes) work(n *node) []*node {
	var out []*node
	for _, c := range n.children {
		if !queued[c.name] {
			out = append(out, c)
			continue
		}
		for _, g := range c.children {
			st.total[c.name] += g.dur
		}
		out = append(out, st.work(c)...)
	}
	return out
}

// counters reads the fleet's obs registry counters by family name.
type counters map[string]float64

// counterNames are the registry families the traced run reads.
var counterNames = []string{
	"vdesign_score_cache_hits_total",
	"vdesign_score_cache_misses_total",
	"vdesign_score_advisor_runs_total",
	"vdesign_estimate_cache_hits_total",
	"vdesign_estimate_cache_misses_total",
	"vdesign_dynmgmt_rebuilds_total",
	"vdesign_dynmgmt_refinements_total",
	"vdesign_dynmgmt_convergences_total",
	"vdesign_placement_greedy_steps_total",
	"vdesign_placement_cell_fallthroughs_total",
}

func readCounters(r *obs.Registry) counters {
	c := counters{}
	for _, name := range counterNames {
		c[name] = float64(r.Counter(name, "").Value())
	}
	return c
}

// minus returns the per-counter difference c - base.
func (c counters) minus(base counters) counters {
	d := counters{}
	for k, v := range c {
		d[k] = v - base[k]
	}
	return d
}

// ratio is hits over lookups, 0 when there were none.
func ratio(hits, misses float64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return hits / (hits + misses)
}
