// Package rfidraw is a from-scratch Go implementation of RF-IDraw (Wang,
// Vasisht, Katabi — SIGCOMM 2014): an RFID trajectory-tracing system
// accurate enough to act as a virtual touch screen in the air.
//
// RF-IDraw's key idea is a multi-resolution use of antenna pairs. Widely
// separated pairs (8λ) have many narrow grating lobes: high resolution but
// ambiguous. Tightly spaced pairs (λ/4 for backscatter) have a single wide
// beam: unambiguous but coarse. Voting with the coarse pairs filters the
// ambiguity of the wide pairs while keeping their resolution (§3 of the
// paper). For tracing, each wide pair is locked onto one grating lobe and
// its continuous rotation is followed; even a wrong-but-nearby lobe
// preserves the trajectory's shape (§4), which is what a handwriting
// interface needs.
//
// The package exposes the system behind a hardware-free API: callers feed
// per-antenna phase measurements (from real readers or from the bundled
// simulator) and receive positions and trajectories in a writing plane
// parallel to the antenna wall.
//
// # Quick start
//
//	sys, err := rfidraw.New(rfidraw.Config{PlaneDistanceM: 2})
//	...
//	res, err := sys.Trace(samples) // samples from readers or simulator
//	for _, p := range res.Trajectory {
//	    fmt.Println(p.Time, p.X, p.Z)
//	}
//
// # Multi-tag tracking
//
// Every System is backed by the sharded concurrent engine
// (internal/engine). Trace is the synchronous single-tag path — a 1-shard
// engine under the hood — while TraceMany fans per-tag observation
// streams out across Config.Shards worker shards and traces them in
// parallel, with per-tag output identical to the sequential path.
//
// # Serving
//
// The serving layer (serve.go) turns a System into a long-lived
// multi-session service: OpenSession opens an in-process live session
// (feed ReaderReports, subscribe to point/glyph Events), and Serve runs
// the rfidrawd daemon surface — HTTP control API, chunked NDJSON live
// streams, a reader ingest gateway and /metrics observability — over
// the same session registry.
//
// See the examples/ directory for full programs, and internal/ for the
// substrates (channel model, RFID reader simulator, AoA baseline,
// handwriting workload, recognizer, experiment harness).
package rfidraw

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"rfidraw/internal/core"
	"rfidraw/internal/deploy"
	"rfidraw/internal/engine"
	"rfidraw/internal/geom"
	"rfidraw/internal/server"
	"rfidraw/internal/tracing"
	"rfidraw/internal/vote"
)

// Point is a position in the writing plane: X right, Z up, metres. The
// writing plane is parallel to the antenna wall at the configured distance.
type Point struct {
	X, Z float64
}

// Dist returns the Euclidean distance between two points.
func (p Point) Dist(q Point) float64 {
	return geom.Vec2{X: p.X, Z: p.Z}.Dist(geom.Vec2{X: q.X, Z: q.Z})
}

// Sample is one merged observation instant: the wrapped phase (radians, in
// [0, 2π)) measured at each antenna, keyed by the deployment's antenna IDs
// (1–8 for the standard deployment). Antennas missed by reply loss are
// simply absent, and an ID no deployment antenna has is ignored.
type Sample struct {
	Time   time.Duration
	Phases map[int]float64
}

// Candidate is a hypothesised tag position with its total vote; 0 is a
// perfect intersection of all pairs' beams, more negative is worse.
type Candidate struct {
	Pos   Point
	Score float64
}

// TracePoint is one reconstructed trajectory sample.
type TracePoint struct {
	Time time.Duration
	X, Z float64
}

// Trace is one reconstructed trajectory with its vote record.
type Trace struct {
	// Initial is the candidate initial position this trace started from.
	Initial Candidate
	// Points is the reconstructed trajectory.
	Points []TracePoint
	// Votes is the total pair vote at each point — flat near zero for a
	// correct start, collapsing for a wrong one (the paper's Fig. 10f).
	Votes []float64
	// TotalVote is the sum of Votes, the trace-selection score.
	TotalVote float64
	// SearchEvals is how many vote-surface evaluations the per-sample
	// position steps spent (the default step's Jacobian passes count as
	// one each); divided by len(Points) it is the
	// evaluations-per-sample cost the Search mode controls.
	SearchEvals int
	// Retired reports this hypothesis was retired mid-stream: its vote
	// record collapsed (Fig. 10f) and tracing it stopped, so Points and
	// Votes are truncated at the retirement sample.
	Retired bool
}

// Result is the outcome of tracing an observation stream.
type Result struct {
	// Trajectory is the chosen reconstruction.
	Trajectory []TracePoint
	// InitialPosition is the chosen absolute position estimate.
	InitialPosition Point
	// Chosen indexes Traces for the selected trace.
	Chosen int
	// Traces holds every candidate's trace, for diagnostics.
	Traces []Trace
	// LeaderSwitches is how many times the leading hypothesis changed as
	// the multi-hypothesis stream extended — the paper's over-time
	// candidate disambiguation converging (0 means the first election
	// held to the end).
	LeaderSwitches int
	// Retirements is how many candidate hypotheses were retired for
	// collapsed vote records before the stream ended.
	Retirements int
}

// SearchMode selects how the positioning and tracing vote surfaces are
// searched; SearchConfig tunes the positioner's hierarchical
// coarse-to-fine search (its zero value is right for almost all
// deployments). Both are the vote package's own types.
type (
	SearchMode   = vote.SearchMode
	SearchConfig = vote.SearchConfig
)

const (
	// SearchHierarchical (the default) replaces exhaustive grid scans.
	// Positioning runs a coarse-to-fine refinement: vote on a coarse
	// lattice, keep the top-K promising cells, recursively subdivide
	// only those down to the fine resolution and finish with a
	// quadratic interpolation. Tracing solves each step instead of
	// sampling it: with every pair locked to one lobe the vote near the
	// last fix is a smooth sum of squared residuals, maximised by
	// damped Gauss–Newton in a handful of evaluations. Results match
	// dense search within the paper's positioning-error envelope.
	SearchHierarchical = vote.SearchHierarchical
	// SearchDense is the exhaustive reference strategy: every grid and
	// vicinity point is evaluated. Slower, kept for equivalence testing
	// and regression triage.
	SearchDense = vote.SearchDense
)

// Config configures a System.
type Config struct {
	// PlaneDistanceM is the writing plane's distance from the antenna
	// wall in metres (the paper evaluates 2–5 m). Required.
	PlaneDistanceM float64
	// RegionMin/RegionMax bound the search region in the writing plane;
	// zero values take the standard region in front of the antenna
	// square.
	RegionMin, RegionMax Point
	// CandidateCount is how many candidate initial positions to trace.
	// Default 3.
	CandidateCount int
	// CarrierHz overrides the 922 MHz default carrier.
	CarrierHz float64
	// Shards is how many worker shards the backing engine runs; tags are
	// hashed across them, so it bounds how many tags are traced in
	// parallel by TraceMany. Default 1 (fully synchronous, the
	// single-threaded path).
	Shards int
	// Search picks the strategy on the positioning and tracing hot
	// paths and tunes the positioner's search; the zero value is the
	// hierarchical mode.
	Search SearchConfig
}

// System is a configured RF-IDraw instance for the standard two-reader,
// eight-antenna deployment. A System is safe for concurrent use.
type System struct {
	eng   *engine.Engine
	plane geom.Plane

	// regMu guards the lazily built session registry behind the serving
	// layer (see serve.go: Serve, NewServer, OpenSession).
	regMu sync.Mutex
	reg   *server.Registry
}

// New builds a System.
func New(cfg Config) (*System, error) {
	if cfg.PlaneDistanceM <= 0 {
		return nil, errors.New("rfidraw: Config.PlaneDistanceM must be positive")
	}
	region := deploy.DefaultRegion()
	if cfg.RegionMin != cfg.RegionMax {
		region = geom.Rect{
			Min: geom.Vec2{X: cfg.RegionMin.X, Z: cfg.RegionMin.Z},
			Max: geom.Vec2{X: cfg.RegionMax.X, Z: cfg.RegionMax.Z},
		}
	}
	dep, err := buildDeployment(cfg.CarrierHz)
	if err != nil {
		return nil, err
	}
	shards := cfg.Shards
	if shards <= 0 {
		shards = 1
	}
	eng, err := engine.New(engine.Config{
		Shards:     shards,
		Deployment: dep,
		Core: core.Config{
			Plane:          geom.Plane{Y: cfg.PlaneDistanceM},
			Region:         region,
			CandidateCount: cfg.CandidateCount,
			Vote:           vote.Config{Search: cfg.Search},
			Trace:          tracing.Config{Search: cfg.Search},
		},
	})
	if err != nil {
		return nil, fmt.Errorf("rfidraw: %w", err)
	}
	return &System{eng: eng, plane: geom.Plane{Y: cfg.PlaneDistanceM}}, nil
}

// Close stops the backing engine's worker shards and closes every
// serving session opened through the System (OpenSession / Serve). A
// System remains usable until Closed; Close is optional for short-lived
// programs but releases the goroutines of long-lived ones.
//
// Close is idempotent and safe to call from any number of goroutines,
// concurrently with in-flight Trace, TraceMany and Localize calls: work
// already dispatched completes normally and is returned to its caller,
// calls that arrive after shutdown fail with an "engine: closed" error
// (Trace and Localize, which run on the caller's goroutine against the
// read-only positioner, always complete), and every Close call returns
// the same result once shutdown has finished.
func (s *System) Close() error {
	s.regMu.Lock()
	reg := s.reg
	s.regMu.Unlock()
	if reg != nil {
		reg.Close()
	}
	return s.eng.Close()
}

// AntennaPositions returns the deployment's antenna wall positions keyed
// by antenna ID, as (x, z) on the wall plane. Useful for installation and
// plotting.
func (s *System) AntennaPositions() map[int]Point {
	out := make(map[int]Point)
	for _, a := range s.eng.System().Deployment().Antennas {
		out[a.ID] = Point{X: a.Pos.X, Z: a.Pos.Z}
	}
	return out
}

// Localize runs one-shot multi-resolution positioning on a single sample
// and returns candidate positions, best first.
func (s *System) Localize(sample Sample) ([]Candidate, error) {
	cands, err := s.eng.System().Localize(vote.ObservationsOf(sample.Phases))
	if err != nil {
		return nil, fmt.Errorf("rfidraw: %w", err)
	}
	out := make([]Candidate, len(cands))
	for i, c := range cands {
		out[i] = Candidate{Pos: Point{X: c.Pos.X, Z: c.Pos.Z}, Score: c.Score}
	}
	return out, nil
}

// Trace reconstructs the tag's trajectory from an observation stream.
// Samples must be in time order; gaps from reply loss are tolerated.
// It is the synchronous single-tag path: the engine's shared sequential
// pipeline on the caller's goroutine, with output identical to what
// TraceMany produces for the same samples.
func (s *System) Trace(samples []Sample) (*Result, error) {
	if len(samples) == 0 {
		return nil, errors.New("rfidraw: no samples")
	}
	res, err := s.eng.Trace(convertSamples(samples))
	if err != nil {
		return nil, fmt.Errorf("rfidraw: %w", err)
	}
	return convertResult(res), nil
}

// TraceMany reconstructs several tags' trajectories concurrently: streams
// is keyed by tag identity (e.g. EPC hex), and each tag's samples are
// traced on the tag's home shard. Per-tag results are identical to what
// Trace returns for the same samples. Tags whose trace fails are reported
// in the joined error; the returned map holds every success.
func (s *System) TraceMany(streams map[string][]Sample) (map[string]*Result, error) {
	if len(streams) == 0 {
		return nil, errors.New("rfidraw: no streams")
	}
	keys := make([]string, 0, len(streams))
	for k := range streams {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	jobs := make([]engine.TagJob, 0, len(keys))
	var errs []error
	for _, k := range keys {
		if len(streams[k]) == 0 {
			errs = append(errs, fmt.Errorf("rfidraw: tag %q has no samples", k))
			continue
		}
		jobs = append(jobs, engine.TagJob{Tag: k, Samples: convertSamples(streams[k])})
	}
	out := make(map[string]*Result, len(jobs))
	for _, r := range s.eng.TraceBatch(jobs) {
		if r.Err != nil {
			errs = append(errs, fmt.Errorf("rfidraw: tag %q: %w", r.Tag, r.Err))
			continue
		}
		out[r.Tag] = convertResult(r.Result)
	}
	return out, errors.Join(errs...)
}

func convertSamples(samples []Sample) []tracing.Sample {
	in := make([]tracing.Sample, len(samples))
	for i, smp := range samples {
		in[i] = tracing.Sample{T: smp.Time, Phase: vote.ObservationsOf(smp.Phases)}
	}
	return in
}

func convertResult(res *core.TraceResult) *Result {
	out := &Result{
		Trajectory:      convertTrajectory(res.Best),
		InitialPosition: Point{X: res.InitialPosition().X, Z: res.InitialPosition().Z},
		Chosen:          res.BestIndex,
		Traces:          make([]Trace, len(res.All)),
		LeaderSwitches:  res.LeaderSwitches,
		Retirements:     res.Retirements,
	}
	for i, tr := range res.All {
		out.Traces[i] = Trace{
			Initial:     Candidate{Pos: Point{X: res.Candidates[i].Pos.X, Z: res.Candidates[i].Pos.Z}, Score: res.Candidates[i].Score},
			Points:      convertTrajectory(tr),
			Votes:       append([]float64(nil), tr.Votes...),
			TotalVote:   tr.TotalVote,
			SearchEvals: tr.SearchEvals,
			Retired:     tr.Retired,
		}
	}
	return out
}

func convertTrajectory(r tracing.Result) []TracePoint {
	out := make([]TracePoint, r.Trajectory.Len())
	for i, p := range r.Trajectory.Points {
		out[i] = TracePoint{Time: p.T, X: p.Pos.X, Z: p.Pos.Z}
	}
	return out
}

func buildDeployment(carrierHz float64) (*deploy.RFIDraw, error) {
	if carrierHz <= 0 {
		return deploy.DefaultRFIDraw()
	}
	return deploy.NewRFIDraw(newCarrier(carrierHz), backscatter)
}
