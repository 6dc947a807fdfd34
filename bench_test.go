// Benchmarks regenerating every figure of the paper's evaluation, plus
// ablations of the design choices DESIGN.md calls out and performance
// micro-benchmarks of the hot paths.
//
// Figure benches run reduced workloads (a few words instead of the paper's
// 150) so `go test -bench=.` finishes in minutes; cmd/rfidraw runs the
// full-scale versions. Each figure bench reports the headline quantity of
// its figure as a custom metric, so the benchmark output doubles as a
// compact reproduction table.
package rfidraw

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"rfidraw/internal/antenna"
	"rfidraw/internal/core"
	"rfidraw/internal/corpus"
	"rfidraw/internal/deploy"
	"rfidraw/internal/engine"
	"rfidraw/internal/experiments"
	"rfidraw/internal/geom"
	"rfidraw/internal/handwriting"
	"rfidraw/internal/obs"
	"rfidraw/internal/phys"
	"rfidraw/internal/readerwire"
	"rfidraw/internal/realtime"
	"rfidraw/internal/recognition"
	"rfidraw/internal/rfid"
	"rfidraw/internal/server"
	"rfidraw/internal/sim"
	"rfidraw/internal/tracing"
	"rfidraw/internal/traj"
	"rfidraw/internal/vote"
	"rfidraw/internal/wal"
)

// —— Figure benches ————————————————————————————————————————————————————————

func BenchmarkFig2BeamPatterns(b *testing.B) {
	var widthRatio float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig2()
		if err != nil {
			b.Fatal(err)
		}
		widthRatio = r.Width2 / r.Width4
	}
	b.ReportMetric(widthRatio, "beamwidth-ratio-2v4ant")
}

func BenchmarkFig3GratingLobes(b *testing.B) {
	var lobes float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig3()
		if err != nil {
			b.Fatal(err)
		}
		lobes = float64(r.LobeCounts[len(r.LobeCounts)-1])
	}
	b.ReportMetric(lobes, "lobes-at-8lambda")
}

func BenchmarkFig4MultiResolution(b *testing.B) {
	var filtered float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig4()
		if err != nil {
			b.Fatal(err)
		}
		filtered = float64(r.LobesFiltered)
	}
	b.ReportMetric(filtered, "lobes-after-filter")
}

func BenchmarkFig6Positioning(b *testing.B) {
	var peakErr float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig6()
		if err != nil {
			b.Fatal(err)
		}
		peakErr = r.PeakErr * 100
	}
	b.ReportMetric(peakErr, "peak-err-cm")
}

func BenchmarkFig7WrongLobes(b *testing.B) {
	var far float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig7()
		if err != nil {
			b.Fatal(err)
		}
		far = r.Far.ShapeErr * 100
	}
	b.ReportMetric(far, "far-lobe-shape-err-cm")
}

func BenchmarkFig10Microbenchmark(b *testing.B) {
	var shape float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig10(40)
		if err != nil {
			b.Fatal(err)
		}
		shape = r.ShapeErr * 100
	}
	b.ReportMetric(shape, "clear-shape-err-cm")
}

// benchBatch runs (and caches per size) a reduced word batch.
var benchBatches = map[string]*experiments.BatchResult{}

func batchFor(b *testing.B, prop sim.Propagation) *experiments.BatchResult {
	b.Helper()
	key := prop.String()
	if r, ok := benchBatches[key]; ok {
		return r
	}
	r, err := experiments.RunBatch(experiments.BatchConfig{Prop: prop, Words: 6, Users: 2, Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	benchBatches[key] = r
	return r
}

func BenchmarkFig11TrajectoryCDF(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		batch := batchFor(b, sim.LOS)
		ratio = experiments.RunFig11(batch).Improvement()
	}
	b.ReportMetric(ratio, "improvement-x")
}

func BenchmarkFig11TrajectoryCDFNLOS(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		batch := batchFor(b, sim.NLOS)
		ratio = experiments.RunFig11(batch).Improvement()
	}
	b.ReportMetric(ratio, "improvement-x")
}

func BenchmarkFig12InitialPositionCDF(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		batch := batchFor(b, sim.LOS)
		ratio = experiments.RunFig12(batch).Improvement()
	}
	b.ReportMetric(ratio, "improvement-x")
}

func BenchmarkFig13ErrorCoupling(b *testing.B) {
	var buckets float64
	for i := 0; i < b.N; i++ {
		batch := batchFor(b, sim.LOS)
		buckets = float64(len(experiments.RunFig13(batch).Buckets))
	}
	b.ReportMetric(buckets, "buckets")
}

func BenchmarkFig14CharRecognition(b *testing.B) {
	var rate float64
	for i := 0; i < b.N; i++ {
		batch := batchFor(b, sim.LOS)
		var ok, total int
		for _, o := range batch.Outcomes {
			ok += o.CharsOKRF
			total += o.CharsTotal
		}
		if total > 0 {
			rate = 100 * float64(ok) / float64(total)
		}
	}
	b.ReportMetric(rate, "char-rate-%")
}

func BenchmarkFig15WordRecognition(b *testing.B) {
	var rate float64
	for i := 0; i < b.N; i++ {
		batch := batchFor(b, sim.LOS)
		var ok, total int
		for _, o := range batch.Outcomes {
			total++
			if o.WordOKRF {
				ok++
			}
		}
		if total > 0 {
			rate = 100 * float64(ok) / float64(total)
		}
	}
	b.ReportMetric(rate, "word-rate-%")
}

func BenchmarkFig16Play5m(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig16(60)
		if err != nil {
			b.Fatal(err)
		}
		ratio = r.BLErr / r.RFErr
	}
	b.ReportMetric(ratio, "improvement-x")
}

// —— Ablation benches ——————————————————————————————————————————————————————

// benchScenario builds a static-tag observation for ablations.
func benchObservation(b *testing.B, seed int64) (vote.Observations, geom.Vec2, *deploy.RFIDraw) {
	b.Helper()
	sc, err := sim.New(sim.Config{Seed: seed})
	if err != nil {
		b.Fatal(err)
	}
	src := geom.Vec2{X: 1.3, Z: 1.0}
	rf, _, err := sc.StaticRun(src, 400*time.Millisecond)
	if err != nil {
		b.Fatal(err)
	}
	return rf[len(rf)-1].Phase, src, sc.RFIDraw
}

// BenchmarkAblationNoCoarseFilter shows why the coarse pairs exist: wide
// pairs alone localize ambiguously (candidate far from truth scores as
// well as the truth).
func BenchmarkAblationNoCoarseFilter(b *testing.B) {
	obs, src, dep := benchObservation(b, 101)
	// Dense search: the wide-only arm measures raw grating-lobe
	// ambiguity, which the hierarchical search's peak-group selection
	// would reshape (see the same override in experiments/ablation.go).
	cfg := vote.Config{
		Plane: geom.Plane{Y: 2}, Region: deploy.DefaultRegion(), CandidateCount: 6,
		Search: vote.SearchConfig{Mode: vote.SearchDense},
	}
	full, err := vote.NewPositioner(dep.Stage1Pairs(), dep.WidePairs, cfg)
	if err != nil {
		b.Fatal(err)
	}
	wideOnly, err := vote.NewPositioner(dep.WidePairs, dep.WidePairs, cfg)
	if err != nil {
		b.Fatal(err)
	}
	var errFull, errWide float64
	for i := 0; i < b.N; i++ {
		cf, err := full.Candidates(obs)
		if err != nil {
			b.Fatal(err)
		}
		cw, err := wideOnly.Candidates(obs)
		if err != nil {
			b.Fatal(err)
		}
		errFull = cf[0].Pos.Dist(src) * 100
		errWide = cw[0].Pos.Dist(src) * 100
	}
	b.ReportMetric(errFull, "with-filter-err-cm")
	b.ReportMetric(errWide, "wide-only-err-cm")
}

// BenchmarkAblationNoLobeLocking compares tracing with locked lobes (§5.2)
// against re-localizing every sample from scratch: without locking, shape
// coherence is lost.
func BenchmarkAblationNoLobeLocking(b *testing.B) {
	sc, err := sim.New(sim.Config{Seed: 102})
	if err != nil {
		b.Fatal(err)
	}
	wr, err := sc.RunWord("on", geom.Vec2{X: 0.9, Z: 1.0}, handwriting.DefaultStyle())
	if err != nil {
		b.Fatal(err)
	}
	sys, err := core.NewSystem(sc.RFIDraw, core.Config{Plane: sc.Plane, Region: sc.Region})
	if err != nil {
		b.Fatal(err)
	}
	var lockedErr, unlockedErr float64
	for i := 0; i < b.N; i++ {
		res, err := sys.Trace(wr.SamplesRF)
		if err != nil {
			b.Fatal(err)
		}
		le, err := traj.MedianError(wr.Truth, res.Best.Trajectory, traj.AlignInitial, 64)
		if err != nil {
			b.Fatal(err)
		}
		lockedErr = le * 100

		// Unlocked: localize each sample independently (best candidate),
		// the re-vote-per-sample alternative to lobe locking.
		var pts []traj.Point
		for _, s := range wr.SamplesRF {
			cands, err := sys.Localize(s.Phase)
			if err != nil {
				continue
			}
			pts = append(pts, traj.Point{T: s.T, Pos: cands[0].Pos})
		}
		if len(pts) == 0 {
			b.Fatal("no per-sample localizations")
		}
		ue, err := traj.MedianError(wr.Truth, traj.Trajectory{Points: pts}, traj.AlignInitial, 64)
		if err != nil {
			b.Fatal(err)
		}
		unlockedErr = ue * 100
	}
	b.ReportMetric(lockedErr, "locked-err-cm")
	b.ReportMetric(unlockedErr, "per-sample-err-cm")
}

// BenchmarkAblationSeparationSweep quantifies §3.3: larger separations give
// finer angle quantization (more lobes) — the resolution/ambiguity dial.
func BenchmarkAblationSeparationSweep(b *testing.B) {
	carrier := phys.DefaultCarrier()
	lambda := carrier.WavelengthM
	var lobes [4]float64
	for i := 0; i < b.N; i++ {
		for si, sep := range []float64{2, 4, 8, 16} {
			a1 := antenna.Antenna{ID: 1, Pos: geom.Vec3{}}
			a2 := antenna.Antenna{ID: 2, Pos: geom.Vec3{X: sep * lambda}}
			p, err := antenna.NewPair(a1, a2, carrier, phys.Backscatter)
			if err != nil {
				b.Fatal(err)
			}
			lobes[si] = float64(p.LobeCount())
		}
	}
	b.ReportMetric(lobes[0], "lobes-2lambda")
	b.ReportMetric(lobes[1], "lobes-4lambda")
	b.ReportMetric(lobes[2], "lobes-8lambda")
	b.ReportMetric(lobes[3], "lobes-16lambda")
}

// BenchmarkAblationCandidateCount measures how many candidate initial
// positions tracing needs before the vote-selection finds the true start.
func BenchmarkAblationCandidateCount(b *testing.B) {
	sc, err := sim.New(sim.Config{Seed: 103, Distance: 3})
	if err != nil {
		b.Fatal(err)
	}
	wr, err := sc.RunWord("go", geom.Vec2{X: 0.9, Z: 1.0}, handwriting.DefaultStyle())
	if err != nil {
		b.Fatal(err)
	}
	var err1, err5 float64
	for i := 0; i < b.N; i++ {
		for _, count := range []int{1, 5} {
			sys, err := core.NewSystem(sc.RFIDraw, core.Config{
				Plane: sc.Plane, Region: sc.Region, CandidateCount: count,
			})
			if err != nil {
				b.Fatal(err)
			}
			res, err := sys.Trace(wr.SamplesRF)
			if err != nil {
				b.Fatal(err)
			}
			e := res.InitialPosition().Dist(wr.Truth.Start()) * 100
			if count == 1 {
				err1 = e
			} else {
				err5 = e
			}
		}
	}
	b.ReportMetric(err1, "init-err-1cand-cm")
	b.ReportMetric(err5, "init-err-5cand-cm")
}

// —— Engine multi-tag benches ——————————————————————————————————————————————

// benchEngineRun caches one 8-user concurrent-writing session; jobs for
// higher tag counts replicate its streams under fresh keys, so throughput
// scaling is measured on identical per-tag work.
var benchEngineRun *sim.MultiWordRun

func benchEngineJobs(b *testing.B, tags int) []engine.TagJob {
	b.Helper()
	if benchEngineRun == nil {
		sc, err := sim.New(sim.Config{Seed: 77})
		if err != nil {
			b.Fatal(err)
		}
		words := []string{"hi", "go", "on", "it", "at", "to", "in", "up"}
		starts := make([]geom.Vec2, len(words))
		for i := range starts {
			starts[i] = geom.Vec2{X: 0.4 + 0.35*float64(i%4), Z: 0.6 + 0.45*float64(i/4)}
		}
		run, err := sc.RunWords(words, starts)
		if err != nil {
			b.Fatal(err)
		}
		benchEngineRun = run
	}
	jobs := make([]engine.TagJob, tags)
	for i := range jobs {
		src := benchEngineRun.SamplesRF[i%len(benchEngineRun.SamplesRF)]
		jobs[i] = engine.TagJob{Tag: fmt.Sprintf("tag-%03d", i), Samples: src}
	}
	return jobs
}

// BenchmarkEngineMultiTag measures full-pipeline throughput (vote →
// lobe-lock → trace) for 1/8/64 concurrent tags at 1 shard (the
// single-threaded path) and at one shard per core. tag-traces/s is the
// headline: at 8 tags it should scale near-linearly with cores.
func BenchmarkEngineMultiTag(b *testing.B) {
	shardCounts := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		shardCounts = append(shardCounts, n)
	}
	for _, tags := range []int{1, 8, 64} {
		for _, shards := range shardCounts {
			b.Run(fmt.Sprintf("tags=%d/shards=%d", tags, shards), func(b *testing.B) {
				b.ReportAllocs()
				jobs := benchEngineJobs(b, tags)
				eng, err := engine.New(engine.Config{
					Shards: shards,
					Core:   core.Config{Plane: geom.Plane{Y: 2}, Region: deploy.DefaultRegion()},
				})
				if err != nil {
					b.Fatal(err)
				}
				defer eng.Close()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for _, r := range eng.TraceBatch(jobs) {
						if r.Err != nil {
							b.Fatal(r.Err)
						}
					}
				}
				b.StopTimer()
				traces := float64(b.N) * float64(len(jobs))
				b.ReportMetric(traces/b.Elapsed().Seconds(), "tag-traces/s")
			})
		}
	}
}

// BenchmarkEngineStreaming measures the live wire-fed path: every tag's
// raw reports interleaved, demultiplexed and tracked concurrently.
func BenchmarkEngineStreaming(b *testing.B) {
	benchEngineJobs(b, 8) // ensure the cached run exists
	run := benchEngineRun
	merged := realtime.MergeStreams(run.ReportsRF...)
	streamShards := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		streamShards = append(streamShards, n)
	}
	for _, shards := range streamShards {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// Trackers are stateful per tag, so each iteration needs
				// a fresh engine; keep its construction (steering-table
				// precompute) out of the timed streaming work.
				b.StopTimer()
				eng, err := engine.New(engine.Config{
					Shards:        shards,
					Core:          core.Config{Plane: geom.Plane{Y: 2}, Region: deploy.DefaultRegion()},
					SweepInterval: run.SweepInterval * time.Duration(len(run.Tags)),
				})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := eng.OfferAll(merged); err != nil {
					b.Fatal(err)
				}
				if err := eng.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)*float64(len(merged))/b.Elapsed().Seconds(), "reports/s")
		})
	}
}

// —— Serving dataplane benches ————————————————————————————————————————————

// benchDaemon lazily starts one in-process daemon shared by every
// BenchmarkIngestToEmit configuration. The registry's limits are fixed
// by its first builder, so it is sized here for the largest fan-out
// configuration; the daemon lives for the rest of the benchmark binary.
var benchDaemon *server.Client

func benchDaemonStart(b *testing.B) *server.Client {
	b.Helper()
	if benchDaemon != nil {
		return benchDaemon
	}
	sys, err := core.NewSystem(nil, core.Config{Plane: geom.Plane{Y: 2}, Region: deploy.DefaultRegion()})
	if err != nil {
		b.Fatal(err)
	}
	factory := func(sweep time.Duration, geometry string, search *vote.SearchConfig, onUpdate func(engine.Update)) (*engine.Engine, error) {
		return engine.New(engine.Config{
			Shards:        runtime.GOMAXPROCS(0),
			System:        sys,
			SweepInterval: sweep,
			OnUpdate:      onUpdate,
		})
	}
	reg, err := server.NewRegistry(server.RegistryConfig{
		NewEngine:      factory,
		MaxSubscribers: 2048,
		// Subscribers queue group-commit carriers, each a whole batch, so
		// 32 slots is thousands of events of headroom; the default depth
		// is sized for consumers that fall behind by whole batches. At
		// 1024 subscribers the default's queue buffers alone are ~50MB of
		// always-live, pointer-bearing heap, and every GC cycle's rescan
		// of it would drown the fan-out being measured.
		SubscriberQueue: 32,
	})
	if err != nil {
		b.Fatal(err)
	}
	srv := server.New(reg, "127.0.0.1:0", "127.0.0.1:0")
	if err := srv.Start(); err != nil {
		b.Fatal(err)
	}
	benchDaemon = &server.Client{BaseURL: "http://" + srv.HTTPAddr(), Ingest: srv.IngestAddr()}
	return benchDaemon
}

// benchSessionReaders polls the session info endpoint until the ingest
// gateway has released the session's last reader connection — the
// barrier proving every report written to the socket has been offered
// into the session pump.
func benchAwaitIngestDone(b *testing.B, httpc *http.Client, url string) {
	b.Helper()
	for {
		resp, err := httpc.Get(url)
		if err != nil {
			b.Fatal(err)
		}
		var info struct {
			Readers int `json:"readers"`
		}
		err = json.NewDecoder(resp.Body).Decode(&info)
		resp.Body.Close()
		if err != nil {
			b.Fatal(err)
		}
		if info.Readers == 0 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// BenchmarkIngestToEmit measures the serving dataplane end to end:
// reports enter through the readerwire ingest gateway, cross the session
// pump (reorder buffer → WAL-less engine offer → emit) and fan out to N
// attached HTTP stream subscribers, which drain their streams to EOF.
// reports/s is the headline metric; the subscriber axis exposes the
// per-event fan-out cost, which encode-once byte sharing keeps near
// flat, and the encoding axis compares NDJSON with the binary frame
// encoding.
func BenchmarkIngestToEmit(b *testing.B) {
	benchEngineJobs(b, 8) // ensure the cached run exists
	run := benchEngineRun
	merged := realtime.MergeStreams(run.ReportsRF...)
	sweep := run.SweepInterval * time.Duration(len(run.Tags))
	cl := benchDaemonStart(b)
	httpc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 600, MaxIdleConns: 600}}
	for _, enc := range []string{"ndjson", "binary"} {
		for _, subs := range []int{1, 64, 512} {
			b.Run(fmt.Sprintf("encoding=%s/subs=%d", enc, subs), func(b *testing.B) {
				ctx := context.Background()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					id, err := cl.CreateSession(ctx, server.SessionSpec{Sweep: sweep})
					if err != nil {
						b.Fatal(err)
					}
					sessionURL := cl.BaseURL + "/v1/sessions/" + id
					streamURL := sessionURL + "/stream"
					if enc == "binary" {
						streamURL += "?encoding=binary"
					}
					subErrs := make(chan error, subs)
					var wg sync.WaitGroup
					for s := 0; s < subs; s++ {
						resp, err := httpc.Get(streamURL)
						if err != nil {
							b.Fatal(err)
						}
						if resp.StatusCode != http.StatusOK {
							b.Fatalf("stream attach: %s", resp.Status)
						}
						wg.Add(1)
						go func() {
							defer wg.Done()
							_, err := io.Copy(io.Discard, resp.Body)
							resp.Body.Close()
							if err != nil {
								subErrs <- err
							}
						}()
					}
					rs, err := cl.DialIngest(id, readerwire.Hello{
						Proto: readerwire.ProtoVersion, ReaderID: 1,
						AntennaCount: 4, SweepInterval: sweep,
					})
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					for _, rep := range merged {
						if err := rs.Send(rep); err != nil {
							b.Fatal(err)
						}
					}
					if err := rs.Flush(); err != nil {
						b.Fatal(err)
					}
					if err := rs.Close(); err != nil {
						b.Fatal(err)
					}
					benchAwaitIngestDone(b, httpc, sessionURL)
					if err := cl.DrainSession(ctx, id); err != nil {
						b.Fatal(err)
					}
					if err := cl.DeleteSession(ctx, id); err != nil {
						b.Fatal(err)
					}
					wg.Wait()
					b.StopTimer()
					select {
					case err := <-subErrs:
						b.Fatal(err)
					default:
					}
					b.StartTimer()
				}
				b.ReportMetric(float64(b.N)*float64(len(merged))/b.Elapsed().Seconds(), "reports/s")
			})
		}
	}
}

// benchRawStream attaches one subscriber over a bare TCP connection:
// it sends a minimal one-shot GET (Connection: close, so EOF marks the
// stream end) and verifies the status line, leaving the reader
// positioned at the start of the response. Raw connections keep the
// benchmark's 1024 in-process drain loops from paying net/http's
// per-read client machinery, which would otherwise dwarf the server
// cost being measured on this shared CPU.
func benchRawStream(addr, path string) (net.Conn, *bufio.Reader, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	req := "GET " + path + " HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n"
	if _, err := io.WriteString(conn, req); err != nil {
		conn.Close()
		return nil, nil, err
	}
	br := bufio.NewReaderSize(conn, 4096)
	status, err := br.ReadString('\n')
	if err != nil {
		conn.Close()
		return nil, nil, err
	}
	if !strings.Contains(status, " 200 ") {
		conn.Close()
		return nil, nil, fmt.Errorf("stream attach: %s", strings.TrimSpace(status))
	}
	return conn, br, nil
}

// BenchmarkTieredFanout measures the tiered multicast path: one session
// fanning out to N NDJSON subscribers spread evenly across the three
// trace tiers (s%3), so every flush marshals each distinct tier run at
// most once and shares the bytes across its cohort. reports/s should
// stay near flat as subscribers grow — the per-subscriber cost is a
// channel send of pre-encoded carriers, not a marshal — and CI gates
// the 1024-subscriber arm against the committed baseline.
func BenchmarkTieredFanout(b *testing.B) {
	benchEngineJobs(b, 8) // ensure the cached run exists
	run := benchEngineRun
	merged := realtime.MergeStreams(run.ReportsRF...)
	sweep := run.SweepInterval * time.Duration(len(run.Tags))
	cl := benchDaemonStart(b)
	addr := strings.TrimPrefix(cl.BaseURL, "http://")
	httpc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64, MaxIdleConns: 64}}
	for _, subs := range []int{1, 64, 1024} {
		b.Run(fmt.Sprintf("subs=%d", subs), func(b *testing.B) {
			ctx := context.Background()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				id, err := cl.CreateSession(ctx, server.SessionSpec{Sweep: sweep})
				if err != nil {
					b.Fatal(err)
				}
				sessionURL := cl.BaseURL + "/v1/sessions/" + id
				subErrs := make(chan error, subs)
				var wg sync.WaitGroup
				for s := 0; s < subs; s++ {
					conn, br, err := benchRawStream(addr, fmt.Sprintf("/v1/sessions/%s/stream?tier=%d", id, s%3))
					if err != nil {
						b.Fatal(err)
					}
					wg.Add(1)
					go func() {
						defer wg.Done()
						_, err := io.Copy(io.Discard, br)
						conn.Close()
						if err != nil {
							subErrs <- err
						}
					}()
				}
				rs, err := cl.DialIngest(id, readerwire.Hello{
					Proto: readerwire.ProtoVersion, ReaderID: 1,
					AntennaCount: 4, SweepInterval: sweep,
				})
				if err != nil {
					b.Fatal(err)
				}
				// Attaching 1024 subscribers allocates their queue buffers;
				// settle that untimed setup debt now so the timed fan-out
				// isn't billed for setup's garbage via GC assists.
				runtime.GC()
				b.StartTimer()
				for _, rep := range merged {
					if err := rs.Send(rep); err != nil {
						b.Fatal(err)
					}
				}
				if err := rs.Flush(); err != nil {
					b.Fatal(err)
				}
				if err := rs.Close(); err != nil {
					b.Fatal(err)
				}
				benchAwaitIngestDone(b, httpc, sessionURL)
				if err := cl.DrainSession(ctx, id); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if err := cl.DeleteSession(ctx, id); err != nil {
					b.Fatal(err)
				}
				wg.Wait()
				select {
				case err := <-subErrs:
					b.Fatal(err)
				default:
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(b.N)*float64(len(merged))/b.Elapsed().Seconds(), "reports/s")
		})
	}
}

// —— Performance micro-benches ————————————————————————————————————————————

func BenchmarkLocalizeSingleSample(b *testing.B) {
	obs, _, dep := benchObservation(b, 104)
	sys, err := core.NewSystem(dep, core.Config{Plane: geom.Plane{Y: 2}, Region: deploy.DefaultRegion()})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Localize(obs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTraceStep(b *testing.B) {
	sc, err := sim.New(sim.Config{Seed: 105})
	if err != nil {
		b.Fatal(err)
	}
	wr, err := sc.RunWord("go", geom.Vec2{X: 0.9, Z: 1.0}, handwriting.DefaultStyle())
	if err != nil {
		b.Fatal(err)
	}
	sys, err := core.NewSystem(sc.RFIDraw, core.Config{Plane: sc.Plane, Region: sc.Region})
	if err != nil {
		b.Fatal(err)
	}
	stream, err := sys.Tracer().NewStream(wr.Truth.Start(), wr.SamplesRF[0])
	if err != nil {
		b.Fatal(err)
	}
	next := 0
	push := func() {
		stream.Push(wr.SamplesRF[1+next%(len(wr.SamplesRF)-1)])
		next++
	}
	// Warm the stream's scratch first (memo buckets, pool capacity), so a
	// short -benchtime 3x run bills steady-state steps, not its growth.
	for i := 0; i < 8; i++ {
		push()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		push()
	}
}

func BenchmarkDTWClassify(b *testing.B) {
	rec, err := recognition.New(corpus.All())
	if err != nil {
		b.Fatal(err)
	}
	w, err := handwriting.Write("q", geom.Vec2{}, handwriting.DefaultStyle(), nil)
	if err != nil {
		b.Fatal(err)
	}
	pts := w.Traj.Positions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rec.Classify(pts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireEncodeDecode(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	rep := rfid.Report{
		Time: time.Second, ReaderID: 1, AntennaID: 3,
		EPC: rfid.RandomEPC(rng), PhaseRad: 1.234, PowerDB: -20,
	}
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		w := readerwire.NewWriter(&buf)
		if err := w.WriteReport(rep); err != nil {
			b.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			b.Fatal(err)
		}
		if _, err := readerwire.NewReader(&buf).Next(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChannelMeasure(b *testing.B) {
	sc, err := sim.New(sim.Config{Seed: 106})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	ant := sc.RFIDraw.Antennas[0].Pos
	tag := geom.Vec3{X: 1.3, Y: 2, Z: 1.0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.Env.Measure(ant, tag, 0, rng)
	}
}

// BenchmarkObsStamp measures the full per-report observability cost the
// serving pump pays: a monotonic clock read plus one histogram
// observation per pipeline stage and the end-to-end record. The stamps
// are always on — every report of every session pays this at full
// ingest rate — so CI gates allocs/op at zero growth (baseline 0).
func BenchmarkObsStamp(b *testing.B) {
	p := &obs.Pipeline{}
	stages := obs.Stages()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := obs.Now()
		for _, st := range stages {
			p.ObserveStage(st, obs.Now()-t0, i)
		}
		p.ObserveE2E(obs.Now()-t0, i)
	}
}

// —— Search strategy benches ———————————————————————————————————————————————

// BenchmarkSearchModes compares the dense reference scan and the
// hierarchical coarse-to-fine search on the full pipeline at 1/8/64 tags
// (single shard, so ns/op compares algorithms rather than parallelism).
// grid-evals/sample is the steady-state tracking cost the hierarchical
// search exists to cut; the ≥5x reduction is asserted by
// TestHierarchicalMatchesDenseOnCorpus and visible here per tag count.
func BenchmarkSearchModes(b *testing.B) {
	for _, mode := range []vote.SearchMode{vote.SearchDense, vote.SearchHierarchical} {
		for _, tags := range []int{1, 8, 64} {
			b.Run(fmt.Sprintf("mode=%s/tags=%d", mode, tags), func(b *testing.B) {
				b.ReportAllocs()
				jobs := benchEngineJobs(b, tags)
				eng, err := engine.New(engine.Config{
					Shards: 1,
					Core: core.Config{
						Plane: geom.Plane{Y: 2}, Region: deploy.DefaultRegion(),
						Vote:  vote.Config{Search: vote.SearchConfig{Mode: mode}},
						Trace: tracing.Config{Search: vote.SearchConfig{Mode: mode}},
					},
				})
				if err != nil {
					b.Fatal(err)
				}
				defer eng.Close()
				b.ResetTimer()
				var evals, samples int
				for i := 0; i < b.N; i++ {
					for _, r := range eng.TraceBatch(jobs) {
						if r.Err != nil {
							b.Fatal(r.Err)
						}
						evals += r.Result.Best.SearchEvals
						samples += len(r.Result.Best.Votes)
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(evals)/float64(samples), "grid-evals/sample")
				b.ReportMetric(float64(b.N)*float64(len(jobs))/b.Elapsed().Seconds(), "tag-traces/s")
			})
		}
	}
}

// BenchmarkWALAppend measures the serving pump's per-report durability
// cost: encoding and writing one report record into the session log.
// Syncing is deferred past the run (fsync cadence is policy, not append
// cost) and the encode path reuses the log's buffer, so allocs/op is
// gated at zero growth by CI (cross-machine stable, unlike ns/op).
func BenchmarkWALAppend(b *testing.B) {
	store, err := wal.Open(b.TempDir(), wal.Options{NoSync: true, SegmentBytes: 1 << 40})
	if err != nil {
		b.Fatal(err)
	}
	log, err := store.Create(wal.Meta{ID: "bench", Created: time.Unix(0, 0), Sweep: 50 * time.Millisecond})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	rep := rfid.Report{
		Time: 0, ReaderID: 1, AntennaID: 3,
		EPC: rfid.RandomEPC(rng), PhaseRad: 1.25, PowerDB: -31,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep.Time += 6 * time.Millisecond
		if err := log.AppendReport(uint64(i+1), rep); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.SetBytes(int64(log.Bytes()) / int64(b.N))
	if err := log.Abandon(); err != nil {
		b.Fatal(err)
	}
}
