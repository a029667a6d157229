package main

import (
	"strings"
	"testing"

	"condmon/internal/obs"
)

func TestRunSelectedTable(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-trials", "25", "table1"}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	got := out.String()
	for _, want := range []string{"Table 1", "Lossless", "match"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "Table 2") {
		t.Error("unselected experiments must not run")
	}
}

func TestRunMultipleExperiments(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-trials", "25", "domination", "tradeoff"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	got := out.String()
	if !strings.Contains(got, "Domination") || !strings.Contains(got, "tradeoff") {
		t.Errorf("expected both experiments in output:\n%s", got)
	}
}

func TestRunRejectsUnknownExperiment(t *testing.T) {
	var out strings.Builder
	err := run([]string{"nosuch"}, &out)
	if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Errorf("err = %v, want unknown experiment", err)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-trials", "0", "table1"}, &out); err == nil {
		t.Error("trials=0 should fail")
	}
	if err := run([]string{"-loss", "2", "table1"}, &out); err == nil {
		t.Error("loss=2 should fail")
	}
	if err := run([]string{"-len", "99", "table1"}, &out); err == nil {
		t.Error("len=99 should fail")
	}
}

func TestRunMetricsRequiresPerf(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-metrics", "127.0.0.1:0", "table1"}, &out); err == nil {
		t.Error("-metrics without -perf should fail")
	}
}

func TestRunScenarioRequiresPerf(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-scenario", "Filters", "table1"}, &out); err == nil {
		t.Error("-scenario without -perf should fail")
	}
}

func TestParseScenarios(t *testing.T) {
	def, err := parseScenarios("")
	if err != nil {
		t.Fatalf("default spec: %v", err)
	}
	if def["millionconditions"] {
		t.Error("default selection must exclude MillionConditions")
	}
	for _, want := range []string{"cefeed", "dsleval", "filters", "multisystem", "ingestthroughput"} {
		if !def[want] {
			t.Errorf("default selection missing %s", want)
		}
	}
	all, err := parseScenarios("all")
	if err != nil {
		t.Fatalf("all: %v", err)
	}
	if !all["millionconditions"] {
		t.Error("\"all\" must include MillionConditions")
	}
	sub, err := parseScenarios("Filters, millionconditions")
	if err != nil {
		t.Fatalf("subset spec: %v", err)
	}
	if len(sub) != 2 || !sub["filters"] || !sub["millionconditions"] {
		t.Errorf("subset selection = %v, want filters+millionconditions", sub)
	}
	if _, err := parseScenarios("Filters,nosuch"); err == nil ||
		!strings.Contains(err.Error(), "unknown scenario") ||
		!strings.Contains(err.Error(), "MillionConditions") {
		t.Errorf("unknown name: err = %v, want unknown-scenario error listing scenarios", err)
	}
	if _, err := parseScenarios(" , "); err == nil {
		t.Error("blank list should fail")
	}
}

// A scaled-down MillionConditions run must produce internally consistent
// numbers: positive rates, a baseline no larger than the scale, and a
// spike that fired the low end of the threshold index (at scale 200 with
// 8 variables, conditions 0,8,...,192 watch m0 and all sit below the
// spike value — 25 displayed alerts).
func TestMillionRunScaledDown(t *testing.T) {
	res, err := millionRun(200, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Conditions != 200 || res.BaselineConditions != 200 {
		t.Errorf("conditions = %d/%d, want 200/200", res.Conditions, res.BaselineConditions)
	}
	if res.RegisterPerSec <= 0 || res.ChurnOpsPerSec <= 0 {
		t.Errorf("non-positive rates: register %v, churn %v", res.RegisterPerSec, res.ChurnOpsPerSec)
	}
	if res.NsPerUpdate <= 0 || res.BaselineNsPerUpdate <= 0 {
		t.Errorf("non-positive latency: %v vs %v", res.NsPerUpdate, res.BaselineNsPerUpdate)
	}
	if res.SpikeDisplayed != 25 {
		t.Errorf("SpikeDisplayed = %d, want 25", res.SpikeDisplayed)
	}
}

func TestMillionRunRejectsBadScale(t *testing.T) {
	if _, err := millionRun(0, nil); err == nil {
		t.Error("scale 0 should fail")
	}
}

// A metered throughput run must leave reconciled counters behind: what the
// DMs emitted either crossed each front link or was dropped on it.
func TestMultiThroughputWithMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	res, err := multiThroughput(16, 40, 800, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Updates != 800 {
		t.Fatalf("res.Updates = %d, want 800", res.Updates)
	}
	get := func(name string) int64 {
		p, ok := reg.Get(name)
		if !ok {
			t.Fatalf("metric %q not registered", name)
		}
		return p.Value
	}
	emitted := get("multi.emitted")
	if emitted != 800 {
		t.Errorf("multi.emitted = %d, want 800", emitted)
	}
	// 40 conditions over 8 vars → 5 conditions per var × 2 replicas = 10
	// stations per variable's 100 updates.
	if del, lost := get("multi.delivered"), get("multi.lost"); del+lost != 8000 {
		t.Errorf("delivered(%d) + lost(%d) = %d, want 8000 traversals", del, lost, del+lost)
	}
}

func TestRunCSVMode(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-trials", "20", "-csv", "benefit"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.HasPrefix(out.String(), "loss_p,recall_1ce") {
		t.Errorf("CSV output missing header:\n%s", out.String())
	}
}
