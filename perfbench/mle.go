package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/cov"
	"repro/internal/geom"
	"repro/internal/la"
	"repro/internal/obs"
	"repro/internal/optimize"
)

// mleSpec is what tells the two MLE workloads apart.
type mleSpec struct {
	mode core.Mode
	opts core.FitOptions
	// fits is how many of the run's fields are fitted, one Session.Fit
	// each; fit_s and eval_s summarize them all.
	fits int
	// gateFields is how many of the fitted fields, the first first, are
	// gated at the generating θ. A TLR gate costs about 2 s, and the TLR
	// factor at a θ does not depend on the field, so tlr-mle gates one.
	gateFields int
	// besselGate, unless zero, is a θ with ν ≠ 0.5 at which the first
	// field's backend is gated too, so the general K_ν assembly path is
	// checked as well as the closed form at the generating θ.
	besselGate cov.Params
	// predictTheta is the fixed θ of the closed-loop predicts. At each
	// fit's θ̂ the TLR ranks, and for ν ≠ 0.5 the K_ν cost, would follow
	// the seed's field rather than the code.
	predictTheta cov.Params
}

// mleSpecFor fixes the fit of each MLE workload. The search box is spelled
// out (it equals Session.Fit's defaults for this start) so that the traced
// run's own Nelder–Mead loop searches the same box.
func mleSpecFor(o options) mleSpec {
	lower := cov.Params{Variance: 1e-3, Range: 1e-3, Smoothness: 0.1}
	upper := cov.Params{Variance: 50, Range: 10, Smoothness: 3}
	if o.workload == "tlr-mle" {
		// All three parameters from a start off ν = 0.5, so assembly runs
		// the general Bessel K_ν; the evaluation budget of each fit scales
		// with the run length (1.2–1.9 s per evaluation at n = 1600 on a
		// 2-vCPU Xeon VM). Its first four evaluations, the initial simplex,
		// are the same θ whatever the field; the θ after them, and their
		// TLR ranks and time, follow the field. A short fit of each of the
		// run's fields keeps that share, and with it the seed's effect on
		// eval_s, small. Predicts run at the start θ, so they too take the
		// K_ν path.
		start := cov.Params{Variance: 0.5, Range: 0.05, Smoothness: 0.7}
		return mleSpec{mode: core.TLR, fits: 3, gateFields: 1, besselGate: start, predictTheta: start, opts: core.FitOptions{
			Start: start, Lower: lower, Upper: upper, TolX: 1e-4, MaxEvals: max(5, 3*o.seconds/10),
		}}
	}
	// ν fixed at 0.5 (closed form, no Bessel), run to convergence: 4–7 s
	// per field at n = 1600 on a 2-vCPU Xeon VM. Five fits: their time
	// moves by ±15% from one fit to the next on a shared machine.
	return mleSpec{mode: core.FullTile, fits: 5, gateFields: 5, predictTheta: trueTheta, opts: core.FitOptions{
		Start: cov.Params{Variance: 0.5, Range: 0.05, Smoothness: 0.5}, FixSmoothness: true,
		Lower: lower, Upper: upper, TolX: 1e-4, MaxEvals: 300,
	}}
}

// fitRun is one Session.Fit and the problem it fitted.
type fitRun struct {
	p    *core.Problem
	fit  core.FitResult
	wall time.Duration
}

// runMLE measures set-up, Session.Fit on each of the workload's fields and
// prediction at a fixed θ after each fit, then checks the backend against
// the dense full-block one. A traced run adds its own instrumented
// Nelder–Mead search over Session.LogLikelihood for the per-layer metrics.
func runMLE(o options, in inputs, res *result) error {
	spec := mleSpecFor(o)
	cfg := sessionConfig(spec.mode, o.nb, o.workers)

	// Set-up is ordering plus NewSession. It takes about a millisecond, so
	// it is repeated 25 times before the first fit and after each one;
	// setup_s is the median. Spread over the run, the repetitions read
	// more than one state of a shared machine, whose speed drifts by ±20%
	// over tens of seconds.
	var setupS, orderMS []float64
	timeSetups := func() error {
		for i := 0; i < 25; i++ {
			t0 := time.Now()
			p, err := core.NewProblemOrdered(in.pts, in.fields[0], geom.Euclidean, geom.Hilbert)
			if err != nil {
				return err
			}
			t1 := time.Now()
			if _, err := core.NewSession(p, cfg); err != nil {
				return err
			}
			setupS = append(setupS, time.Since(t0).Seconds())
			orderMS = append(orderMS, ms(t1.Sub(t0)))
		}
		return nil
	}
	if err := timeSetups(); err != nil {
		return err
	}

	// Session.Fit exposes no per-evaluation time, so eval_s is the fits'
	// wall time over their evaluation count (graph builds and first
	// assemblies included); the traced run reports the median steady
	// evaluation as core.eval_ms. A pooled mean follows the shared
	// machine's speed, which moves by ±15% from one fit to the next,
	// more smoothly than a median over fits. fit_s drops the fastest and
	// slowest fit: the field sets how many evaluations a fit takes. The
	// first field is fitted last.
	var (
		runs         []fitRun
		fitS         []float64
		fitWall      time.Duration
		fitEvals     int
		fitEvalsEach []int
		pred         predictLoop
	)
	for k := spec.fits - 1; k >= 0; k-- {
		p, err := core.NewProblemOrdered(in.pts, in.fields[k], geom.Euclidean, geom.Hilbert)
		if err != nil {
			return err
		}
		s, err := core.NewSession(p, cfg)
		if err != nil {
			return err
		}
		// Each measured phase starts from a collected heap, so peak RSS
		// counts the phase's own memory rather than earlier garbage.
		runtime.GC()
		t0 := time.Now()
		r, err := s.Fit(spec.opts)
		wall := time.Since(t0)
		if err != nil {
			return fmt.Errorf("fit: %w", err)
		}
		res.attempted += r.Evals
		fitS = append(fitS, wall.Seconds())
		fitEvalsEach = append(fitEvalsEach, r.Evals)
		fitWall += wall
		fitEvals += r.Evals
		runs = append(runs, fitRun{p: s.Problem(), fit: r, wall: wall})
		if spec.opts.FixSmoothness && !r.Converged {
			res.fail("%s fit of field %d did not converge in %d evaluations", o.workload, k, r.Evals)
		}
		// A share of the closed-loop predicts and of the set-ups follows
		// each fit, so that they too are spread over the run: 50·seconds
		// calls in all, 1000 at 20 s.
		runtime.GC()
		if err := pred.run(s, in.batches, spec.predictTheta, 50*o.seconds/spec.fits); err != nil {
			return err
		}
		if err := timeSetups(); err != nil {
			return err
		}
	}
	pred.report(res)
	res.setSampled("setup_s", median(setupS), len(setupS))
	res.setSampled("geom.order_ms", median(orderMS), len(orderMS))
	res.detail["fit_s"], res.detail["fit_evals"] = fitS, fitEvalsEach
	res.setSampled("fit_s", midMean(fitS), len(fitS))
	res.setSampled("eval_s", fitWall.Seconds()/float64(fitEvals), fitEvals)
	first := runs[len(runs)-1]
	res.set("optimize.evals", float64(first.fit.Evals))
	if first.fit.Converged {
		res.set("optimize.converged", 1)
	}

	rss, err := peakRSSMiB()
	if err != nil {
		return err
	}
	res.set("peak_rss_mb", rss)

	// The accuracy gate is BENCH_modes': the backend at the generating θ
	// on spec.gateFields fields, and the first field's at spec.besselGate.
	// At θ̂ the error is measured too but not gated there: a budget-limited
	// θ̂ can sit where ℓ is near 0 and a relative error is ill-conditioned
	// (seed 106: absolute error 5.6e-5 on ℓ = 48.45).
	gate := func(p *core.Problem, theta cov.Params) error {
		gs, err := core.NewSession(p, cfg)
		if err != nil {
			return err
		}
		lik, err := gs.LogLikelihood(theta)
		if err != nil {
			return fmt.Errorf("evaluation at %v: %w", theta, err)
		}
		_, err = checkLoglik(p, theta, lik.Value, o, res)
		return err
	}
	for i := 1; i <= spec.gateFields; i++ {
		if err := gate(runs[len(runs)-i].p, trueTheta); err != nil {
			return err
		}
	}
	if spec.besselGate != (cov.Params{}) {
		if err := gate(first.p, spec.besselGate); err != nil {
			return err
		}
	}
	if spec.mode == core.TLR {
		relErr, err := relErrVsFullBlock(first.p, first.fit.Theta, first.fit.LogL, o)
		if err != nil {
			return err
		}
		res.set("tlr.loglik_relerr", relErr)
	}
	if !o.trace {
		return nil
	}

	// Traced run: a fresh session on the first field with task tracing on,
	// the CPU profiler running, and every evaluation timed from here.
	ts, err := core.NewSession(first.p, cfg)
	if err != nil {
		return err
	}
	ts.EnableTracing()
	prof, err := startCPUProfile()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: cpu profile:", err)
	}
	traced, err := tracedFit(ts, spec.opts, res)
	if prof != nil {
		prof.stop(res)
	}
	if err != nil {
		return err
	}
	evalLayers(res, traced, spec.mode, o.workers)
	var wall time.Duration
	for _, e := range traced {
		wall += e.wall
	}
	perEval := wall.Seconds() / float64(len(traced))
	res.set("trace.overhead", 100*(perEval/(first.wall.Seconds()/float64(first.fit.Evals))-1))
	covLayers(res, first.p, first.fit.Theta, in.batches[0], o.workers)
	return nil
}

// tracedFit runs Session.Fit's search — Nelder–Mead over log variance, log
// range and (unless fixed) linear smoothness, in the same box, from the
// same start, with the same budget — but calls Session.LogLikelihood itself
// so each evaluation can be timed and its trace kept.
func tracedFit(s *core.Session, o core.FitOptions, res *result) ([]evalSample, error) {
	dim := 3
	if o.FixSmoothness {
		dim = 2
	}
	toTheta := func(x []float64) cov.Params {
		t := cov.Params{Variance: math.Exp(x[0]), Range: math.Exp(x[1]), Smoothness: o.Start.Smoothness}
		if !o.FixSmoothness {
			t.Smoothness = x[2]
		}
		return t
	}
	vec := func(p cov.Params) []float64 {
		return []float64{math.Log(p.Variance), math.Log(p.Range), p.Smoothness}[:dim]
	}
	var evals []evalSample
	obj := func(x []float64) float64 {
		res.attempted++
		e, err := tracedEval(s, toTheta(x))
		if err != nil {
			res.fail("traced evaluation at %v: %v", toTheta(x), err)
			return math.Inf(1)
		}
		evals = append(evals, e)
		return -e.lik.Value
	}
	_, err := optimize.NelderMead(
		optimize.Problem{Objective: obj, Lower: vec(o.Lower), Upper: vec(o.Upper)},
		vec(o.Start),
		optimize.Options{MaxEvals: o.MaxEvals, TolX: o.TolX},
	)
	return evals, err
}

// predictWindow is about how many closed-loop predicts make one window:
// under a second of calls.
const predictWindow = 100

// predictLoop accumulates closed loops of direct Session predicts at a
// fixed θ, one chunk after each fit: the prediction step that follows a
// fit. The end-to-end predict metrics time PredictWithVariance, the
// prediction with its uncertainty: a plain 4-point Predict costs 0.1 ms on
// full-tile and moves 1.9× with a shared machine's speed, the variance
// path does 100 times its work and moves 1.4×. That speed also drops for
// a second or so at a time; a quantile pooled over all calls moves with
// how many calls such a stretch caught, so, as kriging-serve does with its
// reference windows, the run reports the median over windows of about
// predictWindow calls of each window's quantile.
type predictLoop struct {
	plain, withVar []float64
	p50, p99       []float64     // each window's
	busy           time.Duration // summed PredictWithVariance time
	factorRuns     int64
}

// run makes calls PredictWithVariance calls at theta in equal windows,
// every fourth followed by a plain Predict of the same batch, cycling
// through the query batches. A first call warms the session's
// factorization at theta and is not timed.
func (l *predictLoop) run(s *core.Session, batches [][]geom.Point, theta cov.Params, calls int) error {
	if _, err := s.Predict(batches[0], theta); err != nil {
		return fmt.Errorf("warm predict: %w", err)
	}
	runs := obs.GetCounter("core.factor.runs")
	runs0 := runs.Value()
	windows := max(1, (calls+predictWindow/2)/predictWindow)
	w0, w := len(l.withVar), 1
	for i := 0; i < calls; i++ {
		b := batches[i%len(batches)]
		t0 := time.Now()
		if _, err := s.PredictWithVariance(b, theta); err != nil {
			return fmt.Errorf("predict with variance: %w", err)
		}
		t1 := time.Now()
		l.withVar = append(l.withVar, ms(t1.Sub(t0)))
		l.busy += t1.Sub(t0)
		if i%4 == 0 {
			if _, err := s.Predict(b, theta); err != nil {
				return fmt.Errorf("predict: %w", err)
			}
			l.plain = append(l.plain, ms(time.Since(t1)))
		}
		if i+1 == w*calls/windows {
			l.p50 = append(l.p50, median(l.withVar[w0:]))
			l.p99 = append(l.p99, quantile(l.withVar[w0:], 0.99))
			w0, w = len(l.withVar), w+1
		}
	}
	l.factorRuns += runs.Value() - runs0
	return nil
}

func (l *predictLoop) report(res *result) {
	n := len(l.withVar)
	res.setSampled("predict_p50_ms", median(l.p50), n)
	res.setSampled("predict_p99_ms", median(l.p99), n)
	res.detail["predict_window_p50_ms"], res.detail["predict_window_p99_ms"] = l.p50, l.p99
	res.setSampled("max_rate_rps", float64(n)/l.busy.Seconds(), n)
	res.setSampled("core.predict_ms", median(l.plain), len(l.plain))
	res.setSampled("core.predict_var_ms", median(l.withVar), n)
	res.set("core.factor_runs", float64(l.factorRuns))
}

// checkLoglik compares a backend's log-likelihood at theta with the dense
// full-block backend's on the same problem and counts a relative error
// above solverTol (BENCH_modes' gate) as a failed operation.
// It returns the relative error.
func checkLoglik(p *core.Problem, theta cov.Params, got float64, o options, res *result) (float64, error) {
	if o.faults.loglikScale != 0 {
		got *= o.faults.loglikScale
	}
	relErr, err := relErrVsFullBlock(p, theta, got, o)
	if err != nil {
		return 0, err
	}
	if !(relErr <= solverTol) {
		res.fail("log-likelihood %v at %v: relative error %.3g vs full-block > %g", got, theta, relErr, solverTol)
	}
	return relErr, nil
}

// relErrVsFullBlock is |got − ℓ(θ)| / |ℓ(θ)| with ℓ the dense full-block
// log-likelihood of p.
func relErrVsFullBlock(p *core.Problem, theta cov.Params, got float64, o options) (float64, error) {
	dense, err := core.NewSession(p, sessionConfig(core.FullBlock, o.nb, o.workers))
	if err != nil {
		return 0, err
	}
	ref, err := dense.LogLikelihood(theta)
	if err != nil {
		return 0, fmt.Errorf("full-block reference: %w", err)
	}
	return math.Abs(got-ref.Value) / math.Abs(ref.Value), nil
}

// covLayers times the covariance kernel directly at theta: full assembly of
// the n×n matrix on the workers, and one prediction batch's cross
// covariance against the observations.
func covLayers(res *result, p *core.Problem, theta cov.Params, batch []geom.Point, workers int) {
	k := cov.NewKernel(theta)
	n := p.N()
	sigma := la.NewMat(n, n)
	var assemble []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		k.MatrixParallel(sigma, p.Points, p.Metric, workers)
		assemble = append(assemble, ms(time.Since(t0)))
	}
	res.setSampled("cov.assemble_ms", median(assemble), len(assemble))
	cross := la.NewMat(len(batch), n)
	var block []float64
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		k.Block(cross, batch, p.Points, p.Metric)
		block = append(block, ms(time.Since(t0)))
	}
	res.setSampled("cov.cross_ms", median(block), len(block))
}
