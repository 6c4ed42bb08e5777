package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"os/exec"
	"strconv"

	"repro/internal/core"
	"repro/internal/cov"
	"repro/internal/geom"
	"repro/internal/rng"
)

// geometrySeed fixes the clustered point layout: it is the geometry of
// BENCH_modes (exprt seed 20180904 + 11), so figures quoted from that
// snapshot carry over. TLR tile ranks, and with them TLR time, depend on
// the layout, so the seed argument varies the field and the prediction
// queries but never the geometry.
const geometrySeed = 20180904 + 11

// trueTheta is the Matérn parameter vector the field is sampled from.
var trueTheta = cov.Params{Variance: 1, Range: 0.1, Smoothness: 0.5}

const (
	batchPoints   = 4   // points per prediction request
	varianceEvery = 8   // every 8th request also asks for the variance
	batchPool     = 256 // distinct query batches a run cycles through
	solverTol     = 1e-6
)

// fieldsPerRun is how many independent fields a run draws on the one
// geometry. kriging-serve uses the first; each MLE workload fits the first
// mleSpec.fits of them. The θ a fit visits, and so its time, depend on the
// field, and a median over several fields keeps fit_s steady from seed to
// seed.
const fieldsPerRun = 5

// inputs is everything a workload consumes, in caller order.
type inputs struct {
	pts     []geom.Point
	fields  [][]float64 // fieldsPerRun observation vectors
	batches [][]geom.Point
}

func geometry(n int) []geom.Point {
	return geom.GenerateClustered(n, 8, 0.02, rng.New(geometrySeed))
}

// sampleFields draws the seed's fields Z ~ N(0, Σ(trueTheta)). It
// assembles and factors the dense n×n covariance, which is why main runs it
// in a child process: the benchmark's peak RSS then measures the workload,
// not the input generator.
func sampleFields(n int, seed uint64) ([][]float64, error) {
	l, err := cov.FieldFactor(cov.NewKernel(trueTheta), geometry(n), geom.Euclidean)
	if err != nil {
		return nil, err
	}
	out := make([][]float64, fieldsPerRun)
	for i := range out {
		out[i] = cov.SampleFromFactor(l, rng.New(seed).Split(uint64(10+i)))
	}
	return out, nil
}

// queryBatches draws the prediction requests: batchPool batches of
// batchPoints uniform locations in the unit square.
func queryBatches(seed uint64) [][]geom.Point {
	r := rng.New(seed).Split(2)
	out := make([][]geom.Point, batchPool)
	for i := range out {
		b := make([]geom.Point, batchPoints)
		for j := range b {
			b[j] = geom.Point{X: r.Float64(), Y: r.Float64()}
		}
		out[i] = b
	}
	return out
}

// fieldsFromChild runs this binary with -gen-fields and reads the
// fieldsPerRun·benchN little-endian float64 observations it writes.
func fieldsFromChild(n int, seed uint64) ([][]float64, error) {
	if n != benchN {
		return nil, fmt.Errorf("the field generator child draws %d observations, not %d", benchN, n)
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-gen-fields", "-seed", strconv.FormatUint(seed, 10))
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("generate fields: %w", err)
	}
	r := bytes.NewReader(raw)
	out := make([][]float64, fieldsPerRun)
	for i := range out {
		out[i] = make([]float64, n)
		if err := binary.Read(r, binary.LittleEndian, out[i]); err != nil {
			return nil, fmt.Errorf("read fields: %w", err)
		}
	}
	return out, nil
}

// writeFields is the -gen-fields child's whole job.
func writeFields(n int, seed uint64) error {
	fields, err := sampleFields(n, seed)
	if err != nil {
		return err
	}
	for _, z := range fields {
		if err := binary.Write(os.Stdout, binary.LittleEndian, z); err != nil {
			return err
		}
	}
	return nil
}

func makeInputs(n int, seed uint64, fields func(int, uint64) ([][]float64, error)) (inputs, error) {
	zs, err := fields(n, seed)
	if err != nil {
		return inputs{}, err
	}
	return inputs{pts: geometry(n), fields: zs, batches: queryBatches(seed)}, nil
}

// sessionConfig is the settings every workload shares with BENCH_modes:
// Hilbert ordering, tile size nb, RSVD compression at 1e-9.
func sessionConfig(mode core.Mode, nb, workers int) core.Config {
	return core.Config{Mode: mode, TileSize: nb, Accuracy: 1e-9, CompressorName: "rsvd",
		Workers: workers, Ordering: geom.OrderHilbert}
}
