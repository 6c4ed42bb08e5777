// Command perfbench is the repository's benchmark. It generates its inputs
// from --seed, runs one workload against the library's public entry points,
// checks the outputs, and prints the metrics BENCHMARK.json names: with
// --trace 0 the end-to-end metrics of an untraced run, with --trace 1 the
// per-layer metrics of a separate traced run. The last line of standard
// output is the JSON result; the line before it records the environment
// and the sample count behind each median.
//
// Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload tlr-mle --seed 1 --seconds 20 --trace 0
//
// README.md describes the workloads and what each metric should move.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// benchN and benchNB are the workloads' problem size and tile size. They
// are fixed, not flags, so a result labelled with a workload's name always
// measures that workload; the smoke test shrinks them in options directly.
const (
	benchN  = 1600
	benchNB = 128
)

// options is one run's configuration.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	n, nb    int
	workers  int // runtime workers = HTTP connections = GOMAXPROCS
	faults   faults
}

// faults are deliberate corruptions the smoke test injects to prove that
// the correctness checks count them as failed operations. Runs from the
// command line never set them.
type faults struct {
	servedValue bool    // flip the low bit of one served mean before it is checked
	loglikScale float64 // scale the TLR log-likelihood before it is checked (0 = off)
	ladderError bool    // turn one reply on the last ladder rate into an HTTP 500
}

type envRecord struct {
	Workload    string `json:"workload"`
	Seed        uint64 `json:"seed"`
	Seconds     int    `json:"seconds"`
	Trace       bool   `json:"trace"`
	N           int    `json:"n"`
	Workers     int    `json:"workers"`
	NumCPU      int    `json:"num_cpu"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GOARCH      string `json:"goarch"`
	GoVersion   string `json:"go_version"`
	GitRevision string `json:"git_revision"`
	SourceHash  string `json:"source_sha256"`
	CPUModel    string `json:"cpu_model"`
	// CPUStealPct is the share of the machine's CPU time the hypervisor
	// gave to other guests during the run: a noisy run shows it here.
	CPUStealPct float64 `json:"cpu_steal_pct"`
}

var workloads = map[string]func(options, inputs, *result) error{
	"tlr-mle":       runMLE,
	"dense-mle":     runMLE,
	"kriging-serve": runServe,
}

func main() {
	var (
		o         options
		traceArg  int
		rev, src  string
		genFields bool
	)
	flag.StringVar(&o.workload, "workload", "", "tlr-mle, dense-mle or kriging-serve")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of the generated field and queries")
	flag.IntVar(&o.seconds, "seconds", 20, "run length the workload sizes its work to")
	flag.IntVar(&traceArg, "trace", 0, "1 runs traced and prints the per-layer metrics")
	flag.StringVar(&rev, "rev", "unknown", "git revision of the checkout, for the environment record")
	flag.StringVar(&src, "src", "unknown", "digest of the Go sources, for the environment record")
	flag.BoolVar(&genFields, "gen-fields", false, "write the seed's fields to stdout and exit (the input generator child)")
	flag.Parse()
	if genFields {
		if err := writeFields(benchN, o.seed); err != nil {
			fatal(err)
		}
		return
	}
	run, ok := workloads[o.workload]
	if !ok || o.seconds < 1 || traceArg < 0 || traceArg > 1 {
		fatal(fmt.Errorf("usage: --workload tlr-mle|dense-mle|kriging-serve --seed N --seconds S --trace 0|1"))
	}
	o.trace = traceArg == 1
	o.n, o.nb = benchN, benchNB
	o.workers = runtime.GOMAXPROCS(0)

	in, err := makeInputs(o.n, o.seed, fieldsFromChild)
	if err != nil {
		fatal(err)
	}
	steal0, total0 := cpuTimes()
	res := newResult()
	if err := run(o, in, res); err != nil {
		fatal(err)
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	for _, c := range res.checks {
		fmt.Fprintln(os.Stderr, "perfbench: failed check:", c)
	}
	env := envRecord{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace, N: o.n,
		Workers: o.workers, NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOARCH: runtime.GOARCH, GoVersion: runtime.Version(), GitRevision: rev,
		SourceHash: src, CPUModel: cpuModel(),
	}
	if steal, total := cpuTimes(); total > total0 {
		env.CPUStealPct = 100 * float64(steal-steal0) / float64(total-total0)
	}
	if err := res.write(os.Stdout, defs, env); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// procField returns the first value of a "key: value" line in a /proc file.
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

func cpuModel() string {
	if m := procField("/proc/cpuinfo", "model name"); m != "" {
		return m
	}
	return "unknown"
}

// cpuTimes returns the machine's steal and total CPU time in clock ticks
// from the first line of /proc/stat (zeros where it cannot be read).
func cpuTimes() (steal, total int64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, _ := strconv.ParseInt(f, 10, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// peakRSSMiB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMiB() (float64, error) {
	v := procField("/proc/self/status", "VmHWM")
	kb, err := strconv.ParseFloat(strings.TrimSuffix(v, " kB"), 64)
	if err != nil {
		return 0, fmt.Errorf("read VmHWM %q: %w", v, err)
	}
	return kb / 1024, nil
}
