package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit. The two tables below
// are the benchmark's contract and match BENCHMARK.json one to one (the
// smoke test checks that).
type metricDef struct{ name, unit string }

// endToEnd is what an untraced run (-trace 0) prints, on every workload.
var endToEnd = []metricDef{
	{"eval_s", "s"},
	{"fit_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"predict_p50_ms", "ms"},
	{"predict_p99_ms", "ms"},
	{"max_rate_rps", "req/s"},
}

// perLayer is what a traced run (-trace 1) prints, on every workload. A
// layer a workload does not exercise reads 0.
var perLayer = []metricDef{
	{"tlr.gen_compress_ms", "ms"},
	{"tlr.update_ms", "ms"},
	{"tlr.panel_ms", "ms"},
	{"tlr.mean_rank", "rank"},
	{"tlr.max_rank", "rank"},
	{"tlr.factor_mb", "MiB"},
	{"tlr.compress_calls", "count"},
	{"tlr.recompress_calls", "count"},
	{"tlr.loglik_relerr", "ratio"},
	{"la.qr_calls", "count"},
	{"la.svd_calls", "count"},
	{"la.gemm_calls", "count"},
	{"la.gflops", "GFLOP/s"},
	{"cov.assemble_ms", "ms"},
	{"cov.cross_ms", "ms"},
	{"tile.dcmg_ms", "ms"},
	{"tile.factor_ms", "ms"},
	{"runtime.makespan_ms", "ms"},
	{"runtime.busy_ms", "ms"},
	{"runtime.critpath_ms", "ms"},
	{"runtime.utilization", "ratio"},
	{"runtime.tasks", "count"},
	{"core.eval_ms", "ms"},
	{"core.first_eval_ms", "ms"},
	{"core.post_ms", "ms"},
	{"core.unattributed_ms", "ms"},
	{"core.predict_ms", "ms"},
	{"core.predict_var_ms", "ms"},
	{"core.factor_runs", "count"},
	{"optimize.evals", "count"},
	{"optimize.converged", "bool"},
	{"serve.solve_ms.p50", "ms"},
	{"serve.solve_ms.p99", "ms"},
	{"serve.wait_ms.p50", "ms"},
	{"serve.wait_ms.p99", "ms"},
	{"serve.shed", "count"},
	{"gen.late_ms", "ms"},
	{"geom.order_ms", "ms"},
	{"prof.la", "%"},
	{"prof.cov", "%"},
	{"prof.tlr", "%"},
	{"prof.runtime", "%"},
	{"trace.overhead", "%"},
}

// result collects one run's operation counts, metric values and the sample
// counts behind them.
type result struct {
	attempted int
	failed    int
	checks    []string // one line per failed check, echoed to stderr
	values    map[string]float64
	samples   map[string]int
	detail    map[string]any // extra records for the detail line
}

func newResult() *result {
	return &result{values: map[string]float64{}, samples: map[string]int{}, detail: map[string]any{}}
}

// fail counts one failed operation and records why.
func (r *result) fail(format string, args ...any) {
	r.failed++
	r.checks = append(r.checks, fmt.Sprintf(format, args...))
}

func (r *result) set(name string, v float64) { r.values[name] = v }

// setSampled records a value together with the number of samples it
// summarizes.
func (r *result) setSampled(name string, v float64, n int) {
	r.values[name] = v
	r.samples[name] = n
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// write prints the detail line (environment and sample counts) and then the
// result line, which is the last line of the output.
func (r *result) write(w io.Writer, defs []metricDef, env envRecord) error {
	out := report{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricOut{}}
	for _, d := range defs {
		v := r.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.fail("metric %s is not finite", d.name)
			v = 0
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	out.Correct = r.failed == 0
	r.detail["env"], r.detail["samples"], r.detail["failed_checks"] = env, r.samples, r.checks
	detail, err := json.Marshal(r.detail)
	if err != nil {
		return err
	}
	last, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", detail, last)
	return err
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the definition of numpy's default). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// midMean is the mean of xs without its smallest and largest value when
// it has at least three: the median of three, the mean of the middle three
// of five.
func midMean(xs []float64) float64 {
	if len(xs) < 3 {
		return mean(xs)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return mean(s[1 : len(s)-1])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
