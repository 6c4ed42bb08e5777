package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/cov"
	"repro/internal/obs"
	"repro/internal/runtime"
)

// evalSample is one traced likelihood evaluation: the wall time of the
// Session.LogLikelihood call, its result, the obs counter deltas over the
// call, and the task trace the session recorded for it.
type evalSample struct {
	wall  time.Duration
	lik   core.LikResult
	obs   obs.Snapshot
	trace *runtime.Trace
}

// tracedEval times one evaluation on a session with tracing enabled.
func tracedEval(s *core.Session, theta cov.Params) (evalSample, error) {
	before := obs.Default().Snapshot()
	t0 := time.Now()
	lik, err := s.LogLikelihood(theta)
	wall := time.Since(t0)
	m := s.Metrics()
	return evalSample{wall: wall, lik: lik, obs: m.Obs.Sub(before), trace: m.Trace}, err
}

// Task kinds of the tile and TLR Cholesky graphs.
var (
	genKinds    = []string{"dcmg", "dcmg+comp"}
	panelKinds  = []string{"potrf", "trsm", "syrk"}
	factorKinds = []string{"potrf", "trsm", "syrk", "gemm"}
)

func busyMS(tr *runtime.Trace, kinds ...string) float64 {
	by := tr.ByKernel()
	var d time.Duration
	for _, k := range kinds {
		d += by[k]
	}
	return ms(d)
}

// evalLayers sets the per-layer metrics one sequence of traced evaluations
// yields. The first evaluation of a fresh session pays graph construction
// and is reported alone as core.first_eval_ms; every other metric is the
// median over the rest.
func evalLayers(res *result, evals []evalSample, mode core.Mode, workers int) {
	if len(evals) == 0 {
		return
	}
	res.set("core.first_eval_ms", ms(evals[0].wall))
	steady := evals
	if len(evals) > 1 {
		steady = evals[1:]
	}
	series := map[string][]float64{}
	add := func(name string, v float64) { series[name] = append(series[name], v) }
	var denseFlops, denseBusy float64
	maxRank := 0
	for _, e := range steady {
		tr := e.trace
		if tr == nil {
			continue
		}
		makespan, busy := ms(tr.Makespan()), ms(tr.BusyTime())
		add("core.eval_ms", ms(e.wall))
		add("runtime.makespan_ms", makespan)
		add("runtime.busy_ms", busy)
		add("runtime.critpath_ms", ms(tr.CritPath))
		add("runtime.utilization", tr.Utilization())
		add("runtime.tasks", float64(len(tr.Events)))
		add("core.post_ms", ms(e.wall)-makespan)
		add("core.unattributed_ms", max(0, makespan-busy/float64(workers)))
		add("la.qr_calls", float64(e.obs.Counters["la.qr.calls"]))
		add("la.svd_calls", float64(e.obs.Counters["la.svd.calls"]))
		add("la.gemm_calls", float64(e.obs.Counters["la.gemm.calls"]))
		for _, ev := range tr.Events {
			for _, k := range factorKinds {
				if ev.Task == k {
					denseFlops += ev.Flops
					denseBusy += ev.Duration().Seconds()
				}
			}
		}
		switch mode {
		case core.TLR:
			add("tlr.gen_compress_ms", busyMS(tr, genKinds...))
			add("tlr.update_ms", busyMS(tr, "gemm"))
			add("tlr.panel_ms", busyMS(tr, panelKinds...))
			add("tlr.mean_rank", e.lik.MeanRank)
			add("tlr.factor_mb", float64(e.lik.Bytes)/(1<<20))
			add("tlr.compress_calls", float64(e.obs.Counters["tlr.compress.calls"]))
			add("tlr.recompress_calls", float64(e.obs.Counters["tlr.recompress.calls"]))
			maxRank = max(maxRank, e.lik.MaxRank)
		case core.FullTile:
			add("tile.dcmg_ms", busyMS(tr, "dcmg"))
			add("tile.factor_ms", busyMS(tr, factorKinds...))
		}
	}
	for name, xs := range series {
		res.setSampled(name, median(xs), len(xs))
	}
	if mode == core.TLR {
		res.set("tlr.max_rank", float64(maxRank))
	}
	if denseBusy > 0 {
		res.set("la.gflops", denseFlops/denseBusy/1e9)
	}
}

// cpuProfile is the traced run's CPU profile, summarized offline with
// `go tool pprof -top` into flat CPU shares per package.
type cpuProfile struct {
	path string
	f    *os.File
}

func startCPUProfile() (*cpuProfile, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	path := filepath.Join(filepath.Dir(exe), fmt.Sprintf("cpu-%d.pprof", os.Getpid()))
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	return &cpuProfile{path: path, f: f}, nil
}

// profPackages maps a prof.* metric to the package path prefixes whose
// functions' flat CPU it sums. Bessel evaluation is covariance assembly.
var profPackages = map[string][]string{
	"prof.la":      {"repro/internal/la."},
	"prof.cov":     {"repro/internal/cov.", "repro/internal/bessel."},
	"prof.tlr":     {"repro/internal/tlr.", "repro/internal/tlr/"},
	"prof.runtime": {"repro/internal/runtime."},
}

// stop ends the profile and sets the prof.* shares. A missing go tool only
// loses those metrics, so it is reported on stderr, not as a failed check.
func (p *cpuProfile) stop(res *result) {
	pprof.StopCPUProfile()
	defer os.Remove(p.path)
	if err := p.f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: cpu profile:", err)
		return
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: cpu profile:", err)
		return
	}
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", exe, p.path).Output()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: go tool pprof:", err)
		return
	}
	for name, share := range profShares(string(out)) {
		res.set(name, share)
	}
}

// profShares sums the flat% column of `pprof -top` output per profPackages
// entry. Rows read "flat flat% sum% cum cum% function".
func profShares(top string) map[string]float64 {
	shares := map[string]float64{}
	for name := range profPackages {
		shares[name] = 0
	}
	for _, line := range strings.Split(top, "\n") {
		f := strings.Fields(line)
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		if err != nil {
			continue
		}
		for name, prefixes := range profPackages {
			for _, pre := range prefixes {
				if strings.HasPrefix(f[5], pre) {
					shares[name] += pct
				}
			}
		}
	}
	return shares
}
