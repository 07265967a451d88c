package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

type declared struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

var (
	validName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	validUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestPrintedNamesAreDeclared keeps the metric names the benchmark
// prints, its workload names and BENCHMARK.json in step.
func TestPrintedNamesAreDeclared(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, printed []string, decl []declared) {
		if len(printed) != len(decl) {
			t.Errorf("%s: %d printed, %d declared", kind, len(printed), len(decl))
		}
		byName := map[string]declared{}
		for _, d := range decl {
			byName[d.Name] = d
		}
		for _, name := range printed {
			d, ok := byName[name]
			if !ok {
				t.Errorf("%s: %s is printed but not declared", kind, name)
				continue
			}
			if !validName.MatchString(name) {
				t.Errorf("%s: invalid name %q", kind, name)
			}
			if !validUnit.MatchString(units[name]) || units[name] != d.Unit {
				t.Errorf("%s: %s prints unit %q, declares %q", kind, name, units[name], d.Unit)
			}
		}
	}
	check("end_to_end", endToEnd, bf.EndToEnd)
	check("per_layer", perLayer, bf.PerLayer)
	if len(units) != len(endToEnd)+len(perLayer) {
		t.Errorf("%d units for %d metrics", len(units), len(endToEnd)+len(perLayer))
	}
	for _, d := range bf.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v", d.Name, d.Bound)
		}
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d runnable", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: declared %q, runnable %q", i, w.Name, workloads[i])
		}
	}
}

func TestCompleteRejectsMissingAndExtraMetrics(t *testing.T) {
	m := metrics{}
	for _, name := range endToEnd {
		m.set(name, 1)
	}
	if err := m.complete(endToEnd); err != nil {
		t.Fatal(err)
	}
	delete(m, "heap_mb")
	if m.complete(endToEnd) == nil {
		t.Fatal("missing metric not caught")
	}
	m.set("heap_mb", 1)
	m.set("fleet.self_ms", 1)
	if m.complete(endToEnd) == nil {
		t.Fatal("extra metric not caught")
	}
}
