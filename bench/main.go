//go:build linux

// Command bench is the repository's end-to-end benchmark: an in-process
// loopback fleet — one publisher, real UDP and TCP sockets on 127.0.0.1,
// two CE replicas, one AD — driven through six workloads, with a
// correctness oracle on every run and a traced run that splits the
// end-to-end numbers into per-layer ones. README.md in this directory says
// why each workload exists and how to read the output; BENCHMARK.json at
// the repository root declares the metrics and their bounds.
//
// Usage (from the repository root):
//
//	bash bench/run.sh --workload alert-storm --seed 1 --seconds 16 --trace 0
//	bash bench/run.sh --workload all --json runs.jsonl      # every workload, untraced then traced
//	bash bench/run.sh compare old.jsonl new.jsonl
//
// The last line of standard output of every run is one JSON object with the
// keys correct, attempted, failed and metrics; everything else goes to
// standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

func main() {
	if err := pinToOneCPU(); err != nil {
		fmt.Fprintln(os.Stderr, "bench: not pinned to one CPU, the numbers will be noisier:", err)
	}
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runLine is the result line of one run, in the shape the benchmark
// contract fixes.
type runLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runRecord is one line of the -json file: the result line plus what it
// was measured on, for compare and for the baseline kept beside the code.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	runLine
	FailedShare float64     `json:"failed_share"`
	Raw         rawNumbers  `json:"raw"`
	Notes       []string    `json:"notes,omitempty"`
	Void        []string    `json:"void,omitempty"`
	Discarded   []attempt   `json:"discarded,omitempty"`
	Env         environment `json:"env"`
}

// attempt is a run runValid repeated because the host spoiled it: what it
// would have reported, kept so that a repeat never hides a finding.
type attempt struct {
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Notes     []string `json:"notes"`
	Void      []string `json:"void"`
}

// rawNumbers are the medians before scaling to the nominal host speed, and
// the speed index they were scaled by.
type rawNumbers struct {
	SpeedIndex float64 `json:"speed_index"`
	UpdatesPS  float64 `json:"updates_per_s"`
	CPUUs      float64 `json:"cpu_us_per_update"`
	SetupS     float64 `json:"setup_s"`
	LatP50Ms   float64 `json:"alert_latency_p50_ms"`
	LatP99Ms   float64 `json:"alert_latency_p99_ms"`
}

// environment records where and how a run was measured.
type environment struct {
	NProc        int     `json:"nproc"`
	PinnedCPU    int     `json:"pinned_cpu"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go_version"`
	RmemMax      string  `json:"rmem_max"`
	Link         string  `json:"link"`
	WarmupS      float64 `json:"warmup_s"`
	WindowS      float64 `json:"window_s"`
	Loop         string  `json:"loop"`
	AchievedRate float64 `json:"achieved_rate_per_s"`
	LatencyCount int     `json:"latency_samples"`
	HostStalls   int     `json:"host_stalls"`
	LatencyS     float64 `json:"latency_window_s"`
	VoidS        float64 `json:"latency_window_void_s"`
}

func run(args []string, stdout, stderr io.Writer) error {
	if len(args) > 0 && args[0] == "compare" {
		return compare(args[1:], stdout)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "all", "workload to run, or all")
		seed     = fs.Int64("seed", 1, "seed the inputs are generated from")
		seconds  = fs.Float64("seconds", 16, "length of the timed window (a traced run splits it: half untraced for reference, half traced)")
		trace    = fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		smoke    = fs.Bool("smoke", false, "0.5 s windows and 0.2 s warm-ups: exercises the whole harness, measures nothing")
		negative = fs.String("negative", "", "negative control: dedup (filter wrapper that defeats suppression) or drop (one displayed alert lost)")
		out      = fs.String("out", "", "directory the traced run's span files are kept in (default: a temp dir, removed on exit)")
		jsonPath = fs.String("json", "", "append one record per run to this JSON-lines file (input of compare)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	switch *negative {
	case "", "dedup", "drop":
	default:
		return fmt.Errorf("unknown -negative %q (want dedup or drop)", *negative)
	}
	if *negative != "" && (*workload == "all" || *workload == "engine-fanout") {
		return fmt.Errorf("-negative needs one fleet workload: engine-fanout filters inside the engine, where the harness has no display to break")
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	warmup := 2 * time.Second
	if *smoke {
		*seconds, warmup = 0.5, 200*time.Millisecond
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}

	var todo []*spec
	if *workload == "all" {
		todo = specs
	} else {
		sp, err := specByName(*workload)
		if err != nil {
			return err
		}
		todo = []*spec{sp}
	}

	outDir := *out
	if outDir == "" {
		dir, err := os.MkdirTemp("", "condmon-bench-spans-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		outDir = dir
	} else if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}

	cfg := runConfig{
		seed: *seed, neg: *negative, smoke: *smoke, outDir: outDir,
		warmup: warmup,
		window: time.Duration(*seconds * float64(time.Second)),
	}
	// One workload and one mode per invocation is the contract's shape; all
	// runs every workload untraced and then traced, as a person wants it.
	modes := []int{*trace}
	if *workload == "all" {
		modes = []int{0, 1}
	}
	for _, sp := range todo {
		for _, mode := range modes {
			cfg.sp = sp
			rec, err := measure(cfg, mode == 1, stderr)
			if err != nil {
				return err
			}
			if *jsonPath != "" {
				if err := appendRecord(*jsonPath, rec); err != nil {
					return err
				}
			}
			line, err := json.Marshal(rec.runLine)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "%s\n", line)
		}
	}
	return nil
}

// measure performs one run, prints the human-readable report to stderr and
// returns the record. A traced run splits its window in two: the first half
// is measured untraced, on a fleet of its own, so trace.overhead_share has
// a base; the second is the traced run proper. The halves are equal because
// the storms' cost per update grows through a run: a base measured over a
// shorter window would be a cheaper one.
func measure(cfg runConfig, traced bool, stderr io.Writer) (*runRecord, error) {
	sp := cfg.sp
	var res *result
	var discarded []attempt
	var err error
	if !traced {
		cfg.setups = untracedSetups
		if res, err = runValid(cfg, &discarded, stderr); err != nil {
			return nil, err
		}
	} else {
		ref := cfg
		ref.setups, ref.window = 1, cfg.window/2
		base, err := runValid(ref, &discarded, stderr)
		if err != nil {
			return nil, err
		}
		cfg.setups, cfg.traced, cfg.window = 1, true, ref.window
		if res, err = runValid(cfg, &discarded, stderr); err != nil {
			return nil, err
		}
		if cpu := base.cpuUs(); cpu > 0 {
			res.layer["trace.overhead_share"] = res.cpuUs()/cpu - 1
		}
		res.attempted += base.attempted
		res.failed += base.failed
		res.notes = append(res.notes, base.notes...)
	}

	rawP50, _ := res.latencyMs(0.50)
	rawP99, _ := res.latencyMs(0.99)
	rec := &runRecord{
		Workload: sp.name, Seed: cfg.seed,
		runLine: runLine{
			Correct:   res.failed == 0,
			Attempted: res.attempted,
			Failed:    res.failed,
		},
		FailedShare: float64(res.failed) / float64(res.attempted),
		Raw:         rawNumbers{SpeedIndex: res.speed(), UpdatesPS: res.rawRate(), CPUUs: res.rawCPUUs(), SetupS: median(res.setupRaw), LatP50Ms: rawP50, LatP99Ms: rawP99},
		Notes:       res.notes,
		Void:        res.void,
		Discarded:   discarded,
		Env: environment{
			NProc: hostCPUs, PinnedCPU: pinnedCPU, GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			RmemMax: rmemMax(), Link: "loopback",
			WarmupS: cfg.warmup.Seconds(), WindowS: float64(res.windowNs) / 1e9,
			Loop: "closed", AchievedRate: res.achieved, LatencyCount: len(res.latPool),
			HostStalls: res.stalls, LatencyS: float64(res.latNs) / 1e9, VoidS: float64(res.voidNs) / 1e9,
		},
	}
	if sp.open() {
		rec.Env.Loop = "open"
	}
	defs, vals := endToEnd, res.endToEnd()
	if traced {
		rec.Trace = 1
		defs, vals = perLayer, res.layer
	}
	rec.Metrics = render(defs, vals)
	report(stderr, rec, defs, res)
	return rec, nil
}

// untracedSetups is how often an untraced run builds the fleet; setup_s is
// the median.
const untracedSetups = 7

// maxAttempts bounds how often runValid repeats a run the host spoiled.
const maxAttempts = 3

// runValid is runOnce, repeated while the attempt is both void and failed:
// the open-loop generator ran late (the host froze the VM, or one vCPU of
// it) and updates were lost. A vCPU frozen for more than 51 ms overruns the
// channel-mode receiver's 1024-slot buffer at 20000 updates/s; the
// receiver counts that as front-link loss, correctly, and the oracle as
// failed deliveries, correctly — but it is the host's doing, not the
// fleet's. A void attempt without failures is kept, with its note; a failed
// attempt that is not void is a finding and is kept too. What a discarded
// attempt would have reported goes into the record and the report, so a
// change that makes the publisher late and the receiver overrun — the same
// signature — cannot be repeated away unseen.
func runValid(cfg runConfig, discarded *[]attempt, stderr io.Writer) (*result, error) {
	for n := 1; ; n++ {
		res, err := runOnce(cfg)
		if err != nil {
			return nil, err
		}
		if n == maxAttempts || len(res.void) == 0 || res.failed == 0 {
			return res, nil
		}
		*discarded = append(*discarded, attempt{Attempted: res.attempted, Failed: res.failed, Notes: res.notes, Void: res.void})
		fmt.Fprintf(stderr, "== %s attempt %d discarded and repeated: void (%s) with %d of %d operations failed (%s)\n",
			cfg.sp.name, n, strings.Join(res.void, "; "), res.failed, res.attempted, strings.Join(res.notes, "; "))
	}
}

// report prints one run for a person: every metric by name with its unit,
// the oracle's tally, and the environment.
func report(w io.Writer, rec *runRecord, defs []metricDef, res *result) {
	mode := "untraced"
	if rec.Trace == 1 {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s  seed %d  %s  %s loop  window %.2f s after %.1f s warm-up\n",
		rec.Workload, rec.Seed, mode, rec.Env.Loop, rec.Env.WindowS, rec.Env.WarmupS)
	for _, d := range defs {
		fmt.Fprintf(w, "   %-34s %16.4f %s\n", d.name, rec.Metrics[d.name].Value, d.unit)
	}
	fmt.Fprintf(w, "   ops_attempted %d  ops_failed %d  failed_share %g  achieved_rate %.1f/s\n",
		rec.Attempted, rec.Failed, rec.FailedShare, rec.Env.AchievedRate)
	fmt.Fprintf(w, "   latency_samples %d (%d beyond the 99th percentile)  host_stalls %d, voiding %.3f s of the latency window's %.2f s\n",
		rec.Env.LatencyCount, rec.Env.LatencyCount/100, rec.Env.HostStalls, rec.Env.VoidS, rec.Env.LatencyS)
	fmt.Fprintf(w, "   as the clock read them: updates_per_s %.1f  cpu_us_per_update %.4f  setup_s %.4f  alert_latency_p50_ms %.4f  alert_latency_p99_ms %.4f  at host speed index %.3f\n",
		rec.Raw.UpdatesPS, rec.Raw.CPUUs, rec.Raw.SetupS, rec.Raw.LatP50Ms, rec.Raw.LatP99Ms, rec.Raw.SpeedIndex)
	fmt.Fprintf(w, "   slices (updates/s, cpu us/update, probe ns):")
	for _, s := range res.slices {
		fmt.Fprintf(w, " %.0f/%.2f/%.0f", s.rate, s.cpuUs, s.probeNs)
	}
	fmt.Fprintln(w)
	for _, n := range rec.Notes {
		fmt.Fprintf(w, "   FAILED: %s\n", n)
	}
	for _, v := range rec.Void {
		fmt.Fprintf(w, "   VOID: %s\n", v)
	}
	for _, d := range rec.Discarded {
		fmt.Fprintf(w, "   DISCARDED ATTEMPT: %d of %d operations failed (%s); void (%s)\n",
			d.Failed, d.Attempted, strings.Join(d.Notes, "; "), strings.Join(d.Void, "; "))
	}
	if res.spans != "" {
		fmt.Fprintf(w, "   spans: %s\n", res.spans)
	}
	fmt.Fprintf(w, "   env: nproc %d  pinned to cpu %d  GOMAXPROCS %d  %s  rmem_max %s  link %s\n",
		rec.Env.NProc, rec.Env.PinnedCPU, rec.Env.GOMAXPROCS, rec.Env.GoVersion, rec.Env.RmemMax, rec.Env.Link)
}

// rmemMax reads the kernel's receive-buffer ceiling, which caps the 1 MB
// the receivers ask for; "unknown" where /proc is not there.
func rmemMax() string {
	b, err := os.ReadFile("/proc/sys/net/core/rmem_max")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

func appendRecord(path string, rec *runRecord) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err != nil {
		_ = f.Close()
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
