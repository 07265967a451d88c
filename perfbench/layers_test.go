package main

import (
	"testing"
	"time"
)

func span(name string, ms int, children ...*node) *node {
	return &node{name: name, dur: time.Duration(ms) * time.Millisecond, children: children}
}

func TestFoldSelfTimes(t *testing.T) {
	// period 100ms: two cells (queued, opened together, so the second
	// one's 70ms includes 30ms spent waiting for the first), then a
	// 5ms rebalance. The cells' work is greedy 10 + advisor 20 and
	// greedy 15 + stay-put 25 (whose own greedy takes 5).
	root := span("period", 100,
		span("cell", 30, span("greedy", 10), span("advisor", 20)),
		span("cell", 70, span("greedy", 15), span("stay-put", 25, span("greedy", 5))),
		span("rebalance", 5),
	)
	st := newSpanTimes()
	st.fold(root)
	want := map[string]time.Duration{
		"period":    100 - (10 + 20 + 15 + 25 + 5),
		"greedy":    10 + 15 + 5,
		"advisor":   20,
		"stay-put":  25 - 5,
		"rebalance": 5,
	}
	for name, ms := range want {
		if got := st.self[name]; got != ms*time.Millisecond {
			t.Errorf("self[%s] = %v, want %v", name, got, ms*time.Millisecond)
		}
	}
	if got := st.total["cell"]; got != 70*time.Millisecond {
		t.Errorf("total[cell] = %v, want the cells' work, 70ms", got)
	}
	if got := st.self["cell"]; got != 0 {
		t.Errorf("self[cell] = %v, want 0: a queued span has no time of its own", got)
	}
}

func TestFoldCapsChildrenAtParent(t *testing.T) {
	// Overlapping children (never the case at Parallelism 1) cannot make
	// a self time negative.
	st := newSpanTimes()
	st.fold(span("stay-put", 10, span("greedy", 8), span("greedy", 8)))
	if got := st.self["stay-put"]; got != 0 {
		t.Errorf("self = %v, want 0", got)
	}
	if got := st.self["greedy"]; got != 16*time.Millisecond {
		t.Errorf("greedy self = %v", got)
	}
}
