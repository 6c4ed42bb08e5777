package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/client"
)

// tiny is a run small enough for a test: n = 200 observations in 64-point
// tiles, sized to a two-second run.
func tiny(workload string, trace bool) options {
	return options{workload: workload, seed: 7, seconds: 2, trace: trace, n: 200, nb: 64, workers: 2}
}

// runTiny runs one workload in-process and returns its parsed result line.
func runTiny(t *testing.T, o options) report {
	t.Helper()
	in, err := makeInputs(o.n, o.seed, sampleFields)
	if err != nil {
		t.Fatal(err)
	}
	res := newResult()
	if err := workloads[o.workload](o, in, res); err != nil {
		t.Fatalf("%s: %v", o.workload, err)
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	var buf bytes.Buffer
	if err := res.write(&buf, defs, envRecord{}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatalf("result line %q: %v", lines[len(lines)-1], err)
	}
	return rep
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", what, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark %s (%s)", what, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
	var names, want []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	for w := range workloads {
		want = append(want, w)
	}
	sort.Strings(names)
	sort.Strings(want)
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark %v", names, want)
	}
}

// exercised lists, per workload, the per-layer metrics that must read
// nonzero: the layers the workload runs through.
var exercised = map[string][]string{
	"tlr-mle": {"tlr.gen_compress_ms", "tlr.update_ms", "tlr.panel_ms", "tlr.mean_rank", "tlr.factor_mb",
		"tlr.compress_calls", "la.qr_calls", "la.svd_calls", "la.gemm_calls", "la.gflops", "cov.assemble_ms",
		"cov.cross_ms", "runtime.makespan_ms", "runtime.busy_ms", "runtime.critpath_ms", "runtime.tasks",
		"core.eval_ms", "core.first_eval_ms", "core.predict_ms", "core.predict_var_ms", "optimize.evals", "geom.order_ms"},
	"dense-mle": {"tile.dcmg_ms", "tile.factor_ms", "la.gemm_calls", "la.gflops", "cov.assemble_ms",
		"runtime.makespan_ms", "runtime.tasks", "core.eval_ms", "core.first_eval_ms", "core.predict_ms", "core.predict_var_ms",
		"optimize.evals", "optimize.converged", "geom.order_ms"},
	"kriging-serve": {"tlr.gen_compress_ms", "tlr.update_ms", "tlr.factor_mb", "la.qr_calls", "runtime.makespan_ms",
		"core.eval_ms", "core.first_eval_ms", "core.predict_ms", "core.predict_var_ms", "serve.solve_ms.p50", "serve.solve_ms.p99",
		"serve.wait_ms.p50", "cov.cross_ms", "geom.order_ms"},
}

func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for w := range workloads {
		for _, trace := range []bool{false, true} {
			rep := runTiny(t, tiny(w, trace))
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w, trace, rep.Correct, rep.Attempted, rep.Failed)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(rep.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, trace, len(rep.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := rep.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w, trace, d.name, m, d.unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, d.name, m.Value)
				}
			}
			if trace {
				for _, name := range exercised[w] {
					if rep.Metrics[name].Value == 0 {
						t.Errorf("%s: per-layer metric %s is 0 on a layer the workload runs", w, name)
					}
				}
			}
		}
	}
}

func TestCorruptedServedValueIsAFailedOperation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs kriging-serve")
	}
	o := tiny("kriging-serve", false)
	o.faults.servedValue = true
	if rep := runTiny(t, o); rep.Failed != 1 || rep.Correct {
		t.Errorf("one corrupted served mean: correct=%v failed=%d, want false and 1", rep.Correct, rep.Failed)
	}
}

func TestLoglikOutsideToleranceIsAFailedOperation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs tlr-mle")
	}
	o := tiny("tlr-mle", false)
	o.faults.loglikScale = 1 + 10*solverTol
	// The gate at ν = 0.5 fails, and the one at ν ≠ 0.5.
	want := mleSpecFor(o).gateFields + 1
	if rep := runTiny(t, o); rep.Failed != want || rep.Correct {
		t.Errorf("TLR log-likelihood off by 1e-5: correct=%v failed=%d, want false and %d", rep.Correct, rep.Failed, want)
	}
}

func TestLadderServerErrorIsAFailedOperation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs kriging-serve")
	}
	o := tiny("kriging-serve", false)
	o.faults.ladderError = true
	if rep := runTiny(t, o); rep.Failed != 1 || rep.Correct {
		t.Errorf("one HTTP 500 on the ladder: correct=%v failed=%d, want false and 1", rep.Correct, rep.Failed)
	}
}

// TestExcused checks which failed ladder requests count as overload: only
// a 503 or a deadline, and only on a rate the server fell behind on.
func TestExcused(t *testing.T) {
	phaseWith := func(latency time.Duration, err error) *phase {
		ph := &phase{reqs: make([]request, 200)}
		for i := range ph.reqs {
			ph.reqs[i].latency = latency
		}
		ph.reqs[0].err = err
		return ph
	}
	shed := &client.APIError{Status: http.StatusServiceUnavailable}
	internal := &client.APIError{Status: http.StatusInternalServerError}
	deadline := fmt.Errorf("predict: %w", context.DeadlineExceeded)
	for _, c := range []struct {
		name    string
		latency time.Duration
		err     error
		want    bool
	}{
		{"503 at a rate held", time.Millisecond, shed, false},
		{"503 at a rate missed", 2 * p99Limit, shed, true},
		{"deadline at a rate missed", 2 * p99Limit, deadline, true},
		{"500 at a rate missed", 2 * p99Limit, internal, false},
		{"transport error at a rate missed", 2 * p99Limit, errors.New("connection reset"), false},
	} {
		ph := phaseWith(c.latency, c.err)
		if got := excused(ph, &ph.reqs[0]); got != c.want {
			t.Errorf("%s: excused = %v, want %v", c.name, got, c.want)
		}
	}
	grown := phaseWith(time.Millisecond, shed)
	grown.backlog = [2]int64{0, 50}
	if !excused(grown, &grown.reqs[0]) {
		t.Errorf("503 at a rate whose backlog grew: not excused")
	}
}

func TestProfShares(t *testing.T) {
	top := `Showing nodes accounting for 10s, 100% of 10s total
      flat  flat%   sum%        cum   cum%
        4s 40.00% 40.00%         5s 50.00%  repro/internal/la.QRThin
        2s 20.00% 60.00%         2s 20.00%  repro/internal/bessel.K
        1s 10.00% 70.00%         1s 10.00%  repro/internal/tlr/store.(*Store).Pin
        1s 10.00% 80.00%         1s 10.00%  repro/internal/tlr.Recompress
        1s 10.00% 90.00%         1s 10.00%  runtime.mallocgc
        1s 10.00%   100%         1s 10.00%  repro/internal/runtime.(*Graph).execute.func1
`
	got := profShares(top)
	want := map[string]float64{"prof.la": 40, "prof.cov": 20, "prof.tlr": 20, "prof.runtime": 10}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
}
