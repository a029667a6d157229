//go:build linux

package main

import (
	"bufio"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json compare needs: each
// end-to-end metric's direction and the share of the old median by which
// it may worsen.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// contractFile is contract.json: what the issue wants recorded beside the
// bounds and BENCHMARK.json's fixed schema has no field for. compare needs
// the workloads each end-to-end metric is gated on and its absolute floor.
type contractFile struct {
	Workloads map[string]struct {
		Loop            string `json:"loop"`
		RatePerS        int    `json:"rate_per_s"`
		LatencyRatePerS int    `json:"latency_phase_rate_per_s"`
		PerDatagram     int    `json:"updates_per_datagram"`
		UpdatesInFlight int64  `json:"updates_in_flight"`
		AlertsInFlight  int64  `json:"alerts_in_flight"`
	} `json:"workloads"`
	EndToEnd map[string]struct {
		GatedOn []string `json:"gated_on"`
		Bound   float64  `json:"bound"` // the issue's bound on the gated workloads
		Floor   float64  `json:"floor"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Metrics    []string `json:"metrics"`
		ShouldMove []struct {
			Metric   string `json:"metric"`
			Workload string `json:"workload"`
		} `json:"should_move"`
		NoChangeOn []string `json:"no_change_on"`
	} `json:"per_layer"`
}

//go:embed contract.json
var contractJSON []byte

func readContract() (*contractFile, error) {
	var c contractFile
	if err := json.Unmarshal(contractJSON, &c); err != nil {
		return nil, fmt.Errorf("contract.json: %w", err)
	}
	return &c, nil
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// readRecords loads the untraced runs of a -json file, grouped by workload.
func readRecords(path string) (map[string][]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string][]runRecord)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec runRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		if rec.Trace == 0 {
			out[rec.Workload] = append(out[rec.Workload], rec)
		}
	}
	return out, sc.Err()
}

// Verdicts of one workload × metric row.
const (
	verdictWithin     = "within bound"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
	verdictNotGated   = "not gated"
)

// judge compares two sets of runs of one metric. The new median may be
// worse than the old by at most bound × the old median, or by the absolute
// floor where that is more (set-up times of a few milliseconds, allocation
// counts near zero). A row that is not worse is still unresolved when
// either set's spread (distance between its quartiles over its median) is
// wider than the bound — unless every new run reads better than every old
// one. change is relative to the old median; from an old median of 0 any
// move is infinite, so a metric cannot leave 0 for the worse unseen.
func judge(old, new []float64, higherBetter bool, bound, floor float64) (verdict string, change, spread float64) {
	_, mo, _ := quartiles(old)
	_, mn, _ := quartiles(new)
	switch {
	case mo != 0:
		change = (mn - mo) / math.Abs(mo)
	case mn != 0:
		change = math.Inf(int(math.Copysign(1, mn)))
	}
	worsening := mn - mo
	if higherBetter {
		worsening = -worsening
	}
	allowed := bound * math.Abs(mo)
	if floor > allowed {
		allowed = floor
	}
	spread = relSpread(old)
	if s := relSpread(new); s > spread {
		spread = s
	}
	switch {
	case worsening > allowed:
		return verdictWorse, change, spread
	case spread > bound && !allBetter(old, new, higherBetter):
		return verdictUnresolved, change, spread
	}
	return verdictWithin, change, spread
}

func relSpread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	s := (q3 - q1) / q2
	if s < 0 {
		s = -s
	}
	return s
}

func allBetter(old, new []float64, higherBetter bool) bool {
	for _, n := range new {
		for _, o := range old {
			if (higherBetter && n <= o) || (!higherBetter && n >= o) {
				return false
			}
		}
	}
	return true
}

// compare implements `bench compare old.jsonl new.jsonl`: one row per
// workload × end-to-end metric under the bounds BENCHMARK.json stores, on
// the workloads contract.json gates the metric on, and an error — so a
// non-zero exit — on any row that is worse, any workload whose failed share
// rose and any workload one of the files has no runs of.
func compare(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench compare", flag.ContinueOnError)
	bmPath := fs.String("benchmark", "BENCHMARK.json", "the BENCHMARK.json whose bounds apply")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: bench compare [-benchmark BENCHMARK.json] old.jsonl new.jsonl")
	}
	bf, err := readBenchmarkFile(*bmPath)
	if err != nil {
		return err
	}
	contract, err := readContract()
	if err != nil {
		return err
	}
	old, err := readRecords(fs.Arg(0))
	if err != nil {
		return err
	}
	new, err := readRecords(fs.Arg(1))
	if err != nil {
		return err
	}

	values := func(recs []runRecord, metric string) []float64 {
		out := make([]float64, 0, len(recs))
		for _, r := range recs {
			out = append(out, r.Metrics[metric].Value)
		}
		return out
	}
	var worse, unresolved, failedRose, missing int
	fmt.Fprintf(stdout, "%-14s %-22s %14s %14s %8s %7s %7s  %s\n",
		"workload", "metric", "old median", "new median", "change", "bound", "spread", "verdict")
	for _, w := range bf.Workloads {
		o, n := old[w.Name], new[w.Name]
		if len(o) == 0 || len(n) == 0 {
			fmt.Fprintf(stdout, "%-14s no runs on both sides (old %d, new %d)\n", w.Name, len(o), len(n))
			missing++
			continue
		}
		for _, m := range bf.EndToEnd {
			ov, nv := values(o, m.Name), values(n, m.Name)
			gate := contract.EndToEnd[m.Name]
			bound := m.Bound
			if gated := contains(gate.GatedOn, w.Name); gated && gate.Bound < bound {
				bound = gate.Bound // BENCHMARK.json's covers workloads the issue does not gate the metric on
			}
			verdict, change, spread := judge(ov, nv, m.Better == "higher", bound, gate.Floor)
			if m.Name == "setup_s" && verdict == verdictUnresolved {
				verdict = verdictWithin // set-up time's spread is not gated, only its median
			}
			if !contains(gate.GatedOn, w.Name) {
				verdict = verdictNotGated
			}
			switch verdict {
			case verdictWorse:
				worse++
			case verdictUnresolved:
				unresolved++
			}
			_, mo, _ := quartiles(ov)
			_, mn, _ := quartiles(nv)
			fmt.Fprintf(stdout, "%-14s %-22s %14.4f %14.4f %+7.1f%% %6.1f%% %6.1f%%  %s\n",
				w.Name, m.Name, mo, mn, 100*change, 100*bound, 100*spread, verdict)
		}
		share := func(recs []runRecord) (worst float64) {
			for _, r := range recs {
				if r.FailedShare > worst {
					worst = r.FailedShare
				}
			}
			return worst
		}
		so, sn := share(o), share(n)
		verdict := "no rise"
		if sn > so {
			verdict = "ROSE"
			failedRose++
		}
		fmt.Fprintf(stdout, "%-14s %-22s %14g %14g %37s\n", w.Name, "failed_share", so, sn, verdict)
		if do, dn := discards(o), discards(n); do+dn > 0 {
			fmt.Fprintf(stdout, "%-14s %-22s %14d %14d %37s\n", w.Name, "attempts discarded", do, dn, "void and failed, repeated: see the records")
		}
	}
	fmt.Fprintf(stdout, "%d worse, %d unresolved, %d workloads with a higher failed share, %d workloads missing from one side\n", worse, unresolved, failedRose, missing)
	if worse > 0 || failedRose > 0 || missing > 0 {
		return fmt.Errorf("compare: %d rows worse, %d workloads with a higher failed share, %d workloads missing from one side", worse, failedRose, missing)
	}
	return nil
}

func contains(names []string, name string) bool {
	for _, n := range names {
		if n == name {
			return true
		}
	}
	return false
}

// discards counts the attempts the runs of a set repeated away.
func discards(recs []runRecord) (n int) {
	for _, r := range recs {
		n += len(r.Discarded)
	}
	return n
}
