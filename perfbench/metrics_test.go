package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
)

func TestValidateDefs(t *testing.T) {
	good := []metricDef{{"sim.events", "count"}, {"p2p.class.NewBlock.messages", "count"},
		{"1x_y-z", "1/s"}, {strings.Repeat("a", 64), "%"}}
	if err := validateDefs(good); err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]metricDef{
		{{"_lead", "s"}},
		{{".lead", "s"}},
		{{"has space", "s"}},
		{{"slash/name", "s"}},
		{{strings.Repeat("a", 65), "s"}},
		{{"", "s"}},
		{{"ok", ""}},
		{{"ok", "unit with space"}},
		{{"ok", strings.Repeat("u", 17)}},
		{{"twice", "s"}, {"twice", "s"}},
	} {
		if err := validateDefs(bad); err == nil {
			t.Errorf("%v accepted", bad)
		}
	}
	if err := validateDefs(append(append([]metricDef{}, endToEnd...), perLayer...)); err != nil {
		t.Fatal(err)
	}
}

func TestRenderRequiresEveryMetric(t *testing.T) {
	defs := []metricDef{{"a", "s"}, {"b", "count"}}
	if _, err := render(defs, map[string]float64{"a": 1}, 1, 0); err == nil {
		t.Error("missing metric accepted")
	}
	if _, err := render(defs, map[string]float64{"a": 1, "b": math.NaN()}, 1, 0); err == nil {
		t.Error("NaN accepted")
	}
	r, err := render(defs, map[string]float64{"a": 1.5, "b": 2, "extra": 3}, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Correct || r.Attempted != 4 || r.Failed != 1 || len(r.Metrics) != 2 {
		t.Fatalf("render = %+v", r)
	}
	var back map[string]any
	if err := json.Unmarshal([]byte(r.line()), &back); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(back))
	for k := range back {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if strings.Join(keys, ",") != "attempted,correct,failed,metrics" {
		t.Fatalf("result keys %v", keys)
	}
}

// TestBenchmarkFileMatches keeps BENCHMARK.json and the code's metric
// and workload lists in step.
func TestBenchmarkFileMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(label string, file []struct{ Name, Unit string }, code []metricDef) {
		if len(file) != len(code) {
			t.Errorf("%s: file lists %d metrics, code %d", label, len(file), len(code))
			return
		}
		for i := range code {
			if file[i].Name != code[i].name || file[i].Unit != code[i].unit {
				t.Errorf("%s[%d]: file %s (%s), code %s (%s)", label, i, file[i].Name, file[i].Unit, code[i].name, code[i].unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
	ws := workloads()
	if len(doc.Workloads) != len(ws) {
		t.Errorf("file lists %d workloads, code %d", len(doc.Workloads), len(ws))
	}
	for _, w := range doc.Workloads {
		if _, ok := ws[w.Name]; !ok {
			t.Errorf("workload %s is not in the code", w.Name)
		}
	}
}
