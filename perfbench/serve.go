package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/client"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/serve"
)

// The open-loop schedule of kriging-serve. Requests are due at fixed
// intervals whatever the server does, and each is timed from when it was
// due. A warm-up and two of the three reference-rate windows come first,
// then a ladder of rates rising by ladderStep from ladderFrom to ladderTo
// (well past the serializing per-model worker's saturation, 700–1,250 req/s
// on a 2-vCPU Xeon VM), then the last reference window. A rate is met when
// it holds p99Limit, fails no request and leaves no growing backlog; the
// ladder stops after three rates in a row are missed, so a slow stretch of
// a shared machine does not end it early.
const (
	refRate    = 300.0
	refWindows = 3
	ladderFrom = 562.0 // ≈ 400·1.12³; every lower rate is met even on a slow stretch
	ladderStep = 1.12
	ladderTo   = 4000.0
	p99Limit   = 50 * time.Millisecond
	warmupReqs = 100
	// senders bounds the requests outstanding at once. It is far above the
	// backlog any rate within p99Limit builds, so the generator runs late
	// only when the server has already missed the limit.
	senders   = 256
	modelName = "bench"
)

// request is one scheduled predict call and its outcome.
type request struct {
	batch   int
	withVar bool
	due     time.Time
	late    time.Duration // from due to the moment a sender picked it up
	latency time.Duration // from due to the reply
	resp    client.PredictResponse
	err     error
}

// phase is one constant-rate stretch of the schedule.
type phase struct {
	rate    float64
	reqs    []request
	backlog [2]int64 // requests due but unanswered, at mid-phase and at its end
	wall    time.Duration
}

// server is an in-process exaserve instance on a real TCP port, with the
// typed client the load comes through.
type server struct {
	hs     *http.Server
	srv    *serve.Server
	served chan error
	tr     *http.Transport
	c      *client.Client
}

func startServer(conns int) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: serve.New(serve.Config{}), served: make(chan error, 1),
		tr: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}}
	s.hs = &http.Server{Handler: s.srv}
	go func() { s.served <- s.hs.Serve(ln) }()
	s.c = client.NewWithHTTPClient("http://"+ln.Addr().String(), &http.Client{Transport: s.tr})
	return s, nil
}

// close stops the listener, waits for the serve loop and every model
// worker to exit, and drops the client's idle connections.
func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.hs.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: server shutdown:", err)
	}
	<-s.served
	s.srv.Close()
	s.tr.CloseIdleConnections()
}

// ingest starts a server and registers the workload's TLR model at the
// fixed θ; the one factorization happens inside the create call.
func ingest(in inputs, o options) (*server, time.Duration, error) {
	s, err := startServer(o.workers)
	if err != nil {
		return nil, 0, err
	}
	pts := make([]client.Point, len(in.pts))
	for i, p := range in.pts {
		pts[i] = client.Point{X: p.X, Y: p.Y}
	}
	theta := client.Theta{Variance: trueTheta.Variance, Range: trueTheta.Range, Smoothness: trueTheta.Smoothness}
	t0 := time.Now()
	_, err = s.c.CreateModel(context.Background(), client.CreateModelRequest{
		Name: modelName, Points: pts, Z: in.fields[0], Theta: &theta,
		Config: client.ModelConfig{Mode: "tlr", TileSize: o.nb, Accuracy: 1e-9, Compressor: "rsvd",
			Workers: o.workers, Ordering: geom.OrderHilbert},
	})
	d := time.Since(t0)
	if err != nil {
		s.close()
		return nil, 0, fmt.Errorf("ingest: %w", err)
	}
	return s, d, nil
}

// runPhase sends rate·dur requests on schedule and returns once every one
// has been answered. seq numbers the first request; request k uses batch
// k mod len(batches) and asks for the variance when k is a multiple of
// varianceEvery.
func runPhase(c *client.Client, batches [][]client.Point, rate float64, dur time.Duration, seq int) *phase {
	n := max(1, int(rate*dur.Seconds()))
	ph := &phase{rate: rate, reqs: make([]request, n)}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	jobs := make(chan int)
	var answered atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				r := &ph.reqs[i]
				r.late = time.Since(r.due)
				r.resp, r.err = c.Predict(ctx, modelName, batches[r.batch], r.withVar)
				r.latency = time.Since(r.due)
				answered.Add(1)
			}
		}()
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		r := &ph.reqs[i]
		r.batch, r.withVar = (seq+i)%len(batches), (seq+i)%varianceEvery == 0
		r.due = start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if d := time.Until(r.due); d > 0 {
			time.Sleep(d)
		}
		jobs <- i
		if i == n/2 {
			ph.backlog[0] = int64(i+1) - answered.Load()
		}
	}
	if d := time.Until(start.Add(dur)); d > 0 {
		time.Sleep(d)
	}
	ph.backlog[1] = int64(n) - answered.Load()
	close(jobs)
	wg.Wait()
	ph.wall = time.Since(start)
	return ph
}

func (ph *phase) latenciesMS() []float64 {
	out := make([]float64, len(ph.reqs))
	for i, r := range ph.reqs {
		out[i] = ms(r.latency)
		if r.err != nil {
			out[i] = math.Inf(1) // a failed or refused request misses any limit
		}
	}
	return out
}

// meets reports whether the phase held the p99 limit with every request
// answered and no growing backlog.
func (ph *phase) meets() bool {
	for _, r := range ph.reqs {
		if r.err != nil {
			return false
		}
	}
	return !ph.overloaded()
}

// overloaded reports whether the server fell behind the phase's rate on the
// requests it answered: their p99 missed the limit, or the backlog grew over
// the phase's second half by more than 5% of the requests due in it. Failed
// requests play no part, so a phase whose only miss is its errors is not
// overloaded.
func (ph *phase) overloaded() bool {
	var answered []float64
	for _, r := range ph.reqs {
		if r.err == nil {
			answered = append(answered, ms(r.latency))
		}
	}
	growth := float64(ph.backlog[1] - ph.backlog[0])
	return quantile(answered, 0.99) > ms(p99Limit) || growth > max(4, 0.05*float64(len(ph.reqs))/2)
}

// isOverload reports whether a request failed the way an overloaded server
// fails one: shed with 503, or still unanswered at the phase's deadline.
func isOverload(err error) bool {
	var apiErr *client.APIError
	return errors.As(err, &apiErr) && apiErr.IsOverload() || errors.Is(err, context.DeadlineExceeded)
}

// excused reports whether a failed request on a ladder rate is the overload
// the ladder looks for rather than a failed operation: an overload refusal
// at a rate the server demonstrably could not hold.
func excused(ph *phase, r *request) bool {
	return isOverload(r.err) && ph.overloaded()
}

// achievedRate is the answered requests per second over the phase.
func (ph *phase) achievedRate() float64 {
	return float64(len(ph.reqs)) / ph.wall.Seconds()
}

// storm is the whole schedule after the warm-up: the reference windows
// and the ladder up to its third missed rate in a row.
type storm struct {
	ref    []*phase
	ladder []*phase
}

// refWindow is the length of one reference window: 1000 requests at 20 s,
// so each window's p99 has ten latencies beyond it. The reported latency
// quantiles are medians over the windows' own, so a stall of the shared
// machine that lasts a few seconds spoils one window rather than the run's
// p99.
func refWindow(seconds int) time.Duration {
	return time.Duration(seconds) * time.Second / 6
}

func runStorm(c *client.Client, batches [][]client.Point, seconds int) storm {
	var st storm
	seq := 0
	ref := func(windows int) {
		for i := 0; i < windows; i++ {
			ph := runPhase(c, batches, refRate, refWindow(seconds), seq)
			seq += len(ph.reqs)
			st.ref = append(st.ref, ph)
		}
	}
	ref(refWindows - refWindows/2)
	// Near saturation whether a rate is met is a coin toss on a short
	// rung; 1.5 s rungs 12% apart keep max_rate_rps on one or two rungs
	// from run to run (1 s rungs 8% apart spread it over four).
	rung := time.Duration(seconds) * time.Second * 3 / 40
	missed := 0
	for rate := ladderFrom; rate <= ladderTo && missed < 3; rate *= ladderStep {
		ph := runPhase(c, batches, rate, rung, seq)
		seq += len(ph.reqs)
		st.ladder = append(st.ladder, ph)
		if ph.meets() {
			missed = 0
		} else {
			missed++
		}
	}
	ref(refWindows / 2)
	return st
}

func (st storm) phases() []*phase {
	return append(append([]*phase(nil), st.ref...), st.ladder...)
}

// refQuantiles is each reference window's q-quantile latency.
func (st storm) refQuantiles(q float64) []float64 {
	var per []float64
	for _, ph := range st.ref {
		per = append(per, quantile(ph.latenciesMS(), q))
	}
	return per
}

// maxRate is the achieved rate of the highest ladder rate that met the
// limit.
func (st storm) maxRate() float64 {
	best := 0.0
	for _, ph := range st.ladder {
		if ph.meets() {
			best = ph.achievedRate()
		}
	}
	return best
}

// runServe measures kriging-serve: set-up (server start plus ingest,
// repeated), the open-loop storm through the typed client, and then —
// after peak RSS is read, so the oracle's memory is not counted — a direct
// Session on the same data that times likelihood evaluations at the served
// θ and computes every expected answer for the bitwise check.
func runServe(o options, in inputs, res *result) error {
	// eval_s is timed in two halves: on a direct Session before the first
	// server starts, and on the oracle Session after the storm. One block
	// of evaluations reads one state of a shared machine, which here drifts
	// by ±20% over tens of seconds. The first half's session is not used
	// again, so the collection below frees it before any server starts and
	// its memory never adds to a server's.
	pre, err := directSession(in, o)
	if err != nil {
		return err
	}
	_, preWalls, err := timedEvals(pre, evalsPerHalf(o)+1)
	if err != nil {
		return err
	}
	runtime.GC()

	// Set-up (server start plus ingest) is timed 4 times before the storm
	// and 3 times after it, so its median spans the run rather than one
	// stretch of a shared machine's speed; one factorization alone varies
	// by ±20% here.
	var setupS, ingestS []float64
	setup := func() (*server, error) {
		t0 := time.Now()
		s, d, err := ingest(in, o)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		ingestS = append(ingestS, d.Seconds())
		return s, nil
	}
	var srv *server
	for i := 0; i < 4; i++ {
		if srv != nil {
			srv.close()
		}
		if srv, err = setup(); err != nil {
			return err
		}
	}
	defer func() {
		if srv != nil {
			srv.close()
		}
	}()
	runtime.GC() // the storm starts from a collected heap, as in runMLE

	batches := make([][]client.Point, len(in.batches))
	for i, b := range in.batches {
		batches[i] = make([]client.Point, len(b))
		for j, p := range b {
			batches[i][j] = client.Point{X: p.X, Y: p.Y}
		}
	}
	runs := obs.GetCounter("core.factor.runs")
	runs0 := runs.Value()
	// Every answered request is checked, the warm-up's too.
	checked := []*phase{runPhase(srv.c, batches, refRate, warmupReqs*time.Second/refRate, 0)}
	var untracedRef *phase
	var prof *cpuProfile
	if o.trace {
		// The traced run adds an untraced reference window first; the
		// difference in p50 is the profiler's overhead.
		untracedRef = runPhase(srv.c, batches, refRate, refWindow(o.seconds), 0)
		checked = append(checked, untracedRef)
		var err error
		if prof, err = startCPUProfile(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: cpu profile:", err)
		}
	}
	st := runStorm(srv.c, batches, o.seconds)
	if prof != nil {
		prof.stop(res)
	}
	stormRuns := runs.Value() - runs0
	rss, err := peakRSSMiB()
	if err != nil {
		return err
	}
	res.set("peak_rss_mb", rss)
	srv.close()
	srv = nil
	for i := 0; i < 3; i++ {
		s, err := setup()
		if err != nil {
			return err
		}
		s.close()
	}
	res.setSampled("setup_s", median(setupS), len(setupS))
	res.setSampled("fit_s", median(ingestS), len(ingestS))
	res.set("core.factor_runs", float64(stormRuns))
	if stormRuns != 0 {
		res.fail("the storm ran %d factorizations; the ingest-time one must serve it", stormRuns)
	}

	refReqs := 0
	for _, ph := range st.ref {
		refReqs += len(ph.reqs)
	}
	res.setSampled("predict_p50_ms", median(st.refQuantiles(0.50)), refReqs)
	windowP99 := st.refQuantiles(0.99)
	res.setSampled("predict_p99_ms", median(windowP99), refReqs)
	res.detail["ref_window_p99_ms"] = windowP99
	res.setSampled("max_rate_rps", st.maxRate(), len(st.ladder))
	// Latency at each fixed rate, for the detail line: rate, p99 (-1 when
	// a failed request makes it unbounded), met.
	var ladder [][3]float64
	for _, ph := range st.ladder {
		p99, met := quantile(ph.latenciesMS(), 0.99), 0.0
		if math.IsInf(p99, 0) || math.IsNaN(p99) {
			p99 = -1
		}
		if ph.meets() {
			met = 1
		}
		ladder = append(ladder, [3]float64{math.Round(ph.rate), p99, met})
	}
	res.detail["ladder_rate_p99ms_met"] = ladder
	serveLayers(res, st)
	if untracedRef != nil {
		res.set("trace.overhead", 100*(median(st.refQuantiles(0.5))/quantile(untracedRef.latenciesMS(), 0.5)-1))
	}
	return checkServed(o, in, append(checked, st.ref...), st.ladder, preWalls, res)
}

// serveLayers sets the serving-path layer metrics from the reference windows
// (solve time as the server reports it, everything else the client waited:
// queue, HTTP and JSON; generator lateness) and the storm's refusals.
func serveLayers(res *result, st storm) {
	var solve, wait, late []float64
	for _, ph := range st.ref {
		for _, r := range ph.reqs {
			late = append(late, ms(r.late))
			if r.err == nil {
				solve = append(solve, r.resp.ElapsedMS)
				wait = append(wait, ms(r.latency)-r.resp.ElapsedMS)
			}
		}
	}
	res.setSampled("serve.solve_ms.p50", quantile(solve, 0.50), len(solve))
	res.setSampled("serve.solve_ms.p99", quantile(solve, 0.99), len(solve))
	res.setSampled("serve.wait_ms.p50", quantile(wait, 0.50), len(wait))
	res.setSampled("serve.wait_ms.p99", quantile(wait, 0.99), len(wait))
	res.setSampled("gen.late_ms", quantile(late, 0.99), len(late))
	shed := 0
	for _, ph := range st.phases() {
		for _, r := range ph.reqs {
			var apiErr *client.APIError
			if errors.As(r.err, &apiErr) && apiErr.IsOverload() {
				shed++
			}
		}
	}
	res.set("serve.shed", float64(shed))
}

// checkServed builds a direct Session exactly as ingest does, times
// likelihood evaluations on it at the served θ (eval_s, and in a traced run
// the per-layer metrics), checks its log-likelihood against full-block, and
// compares every answered request bit for bit with the direct predictor.
// An overload refusal at a ladder rate the server could not hold is what
// the ladder looks for (see excused); any other failed request is a failed
// operation.
func checkServed(o options, in inputs, phases, ladder []*phase, preWalls []float64, res *result) error {
	s, err := directSession(in, o)
	if err != nil {
		return err
	}
	if o.trace {
		s.EnableTracing()
	}
	samples, walls, err := timedEvals(s, evalsPerHalf(o)+1)
	if err != nil {
		return err
	}
	walls = append(walls, preWalls...)
	res.setSampled("eval_s", median(walls), len(walls))
	relErr, err := checkLoglik(s.Problem(), trueTheta, samples[len(samples)-1].lik.Value, o, res)
	if err != nil {
		return err
	}
	res.set("tlr.loglik_relerr", relErr)
	if o.trace {
		evalLayers(res, samples, core.TLR, o.workers)
		covLayers(res, s.Problem(), trueTheta, in.batches[0], o.workers)
		var order []float64
		for i := 0; i < 5; i++ {
			t0 := time.Now()
			if _, err := core.NewProblemOrdered(in.pts, in.fields[0], geom.Euclidean, geom.Hilbert); err != nil {
				return err
			}
			order = append(order, ms(time.Since(t0)))
		}
		res.setSampled("geom.order_ms", median(order), len(order))
	}

	// Expected answers, timed as direct Session calls on the cached factor.
	if _, err := s.Predict(in.batches[0], trueTheta); err != nil {
		return fmt.Errorf("direct predict: %w", err)
	}
	wantMean := make([][]float64, len(in.batches))
	wantVar := make([]core.Prediction, len(in.batches))
	var plain, withVar []float64
	for b, pts := range in.batches {
		t0 := time.Now()
		if wantMean[b], err = s.Predict(pts, trueTheta); err != nil {
			return fmt.Errorf("direct predict: %w", err)
		}
		plain = append(plain, ms(time.Since(t0)))
		if b%varianceEvery == 0 { // batches that variance requests use
			t0 = time.Now()
			if wantVar[b], err = s.PredictWithVariance(pts, trueTheta); err != nil {
				return fmt.Errorf("direct predict with variance: %w", err)
			}
			withVar = append(withVar, ms(time.Since(t0)))
		}
	}
	res.setSampled("core.predict_ms", median(plain), len(plain))
	res.setSampled("core.predict_var_ms", median(withVar), len(withVar))

	if o.faults.ladderError && len(ladder) > 0 {
		ladder[len(ladder)-1].reqs[0].err = &client.APIError{Status: http.StatusInternalServerError, Message: "injected"}
	}
	corrupt := o.faults.servedValue
	for i, ph := range append(phases, ladder...) {
		onLadder := i >= len(phases)
		for k := range ph.reqs {
			r := &ph.reqs[k]
			res.attempted++
			if r.err != nil {
				if !onLadder || !excused(ph, r) {
					res.fail("request at %.0f req/s: %v", ph.rate, r.err)
				}
				continue
			}
			if corrupt {
				r.resp.Mean[0] = math.Float64frombits(math.Float64bits(r.resp.Mean[0]) ^ 1)
				corrupt = false
			}
			if !sameAnswer(r, wantMean[r.batch], wantVar[r.batch]) {
				res.fail("request at %.0f req/s for batch %d (variance %v) differs from the direct Session", ph.rate, r.batch, r.withVar)
			}
		}
	}
	return nil
}

// directSession builds a TLR Session on the served data as ingest does.
func directSession(in inputs, o options) (*core.Session, error) {
	p, err := core.NewProblem(in.pts, in.fields[0], geom.Euclidean)
	if err != nil {
		return nil, err
	}
	return core.NewSession(p, sessionConfig(core.TLR, o.nb, o.workers))
}

// evalsPerHalf is the number of timed evaluations in each half of eval_s:
// 4 at 20 s, as one evaluation alone varies by ±20% here.
func evalsPerHalf(o options) int { return max(3, o.seconds/5) }

// timedEvals runs n evaluations at the served θ on s. It returns them all
// and the wall seconds of all but the first, which builds the session's
// graph.
func timedEvals(s *core.Session, n int) ([]evalSample, []float64, error) {
	var samples []evalSample
	var walls []float64
	for i := 0; i < n; i++ {
		e, err := tracedEval(s, trueTheta)
		if err != nil {
			return nil, nil, fmt.Errorf("direct evaluation: %w", err)
		}
		samples = append(samples, e)
		if i > 0 {
			walls = append(walls, e.wall.Seconds())
		}
	}
	return samples, walls, nil
}

// sameAnswer compares a served reply bitwise with the direct computation of
// the same kind: the variance path computes its mean by a different
// floating-point formula, so each kind has its own oracle.
func sameAnswer(r *request, mean []float64, pred core.Prediction) bool {
	want := mean
	if r.withVar {
		want = pred.Mean
		if len(r.resp.Variance) != len(pred.Variance) {
			return false
		}
		for i, v := range pred.Variance {
			if math.Float64bits(r.resp.Variance[i]) != math.Float64bits(v) {
				return false
			}
		}
	}
	if len(r.resp.Mean) != len(want) {
		return false
	}
	for i, v := range want {
		if math.Float64bits(r.resp.Mean[i]) != math.Float64bits(v) {
			return false
		}
	}
	return true
}
