package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"rfidraw"
	"rfidraw/internal/obs"
	"rfidraw/internal/server"
)

// daemon is an in-process rfidrawd: the constructor and defaults
// cmd/rfidrawd uses, bound to ephemeral loopback ports.
type daemon struct {
	sys   *rfidraw.System
	srv   *rfidraw.Server
	cl    *server.Client
	httpc *http.Client
	base  string
}

// evalCapacity calibrates the congestion score's search-evaluation
// budget (rfidrawd -eval-capacity). The default, 5e6/s, is below what a
// single solo-durable session draws at the benchmark's rate (about
// 7e6/s, and three times that unpaced): the daemon would refuse the next
// session with 429 and park the running one mid-run. At 1e8/s the cost
// meters and the pressure loop still run, and never trip.
const evalCapacity = 1e8

// serveConfig mirrors cmd/rfidrawd's flag defaults, with the eval budget
// calibrated as above; dataDir "" is the memory-only daemon.
func serveConfig(dataDir string) rfidraw.ServeConfig {
	return rfidraw.ServeConfig{
		Capacity:         rfidraw.CostCapacity{SearchEvalsPerSec: evalCapacity},
		HTTPAddr:         "127.0.0.1:0",
		IngestAddr:       "127.0.0.1:0",
		MaxSessions:      128,
		MaxSubscribers:   16,
		SubscriberQueue:  256,
		SessionShards:    1,
		MaxAcquireBuffer: 400,
		IdleTimeout:      2 * time.Minute,
		ReorderWindow:    reorderWindow,
		DataDir:          dataDir,
		WALSyncEvery:     64,
		Logger:           logger,
	}
}

// logger is the warn-level logger every in-process component shares.
var logger = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn}))

// startDaemon builds, binds and waits for the daemon to answer /healthz.
func startDaemon(dataDir string) (*daemon, error) {
	sys, err := rfidraw.New(rfidraw.Config{PlaneDistanceM: 2})
	if err != nil {
		return nil, err
	}
	srv, err := sys.NewServer(serveConfig(dataDir))
	if err != nil {
		sys.Close()
		return nil, err
	}
	if err := srv.Start(); err != nil {
		sys.Close()
		return nil, err
	}
	base := "http://" + srv.HTTPAddr()
	d := &daemon{
		sys:   sys,
		srv:   srv,
		cl:    &server.Client{BaseURL: base, Ingest: srv.IngestAddr()},
		httpc: &http.Client{},
		base:  base,
	}
	d.cl.HTTP = d.httpc
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := d.httpc.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.close()
			return nil, fmt.Errorf("daemon not ready: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

func (d *daemon) close() {
	d.srv.Close()
	d.sys.Close()
	d.httpc.CloseIdleConnections()
}

// setupStats is the daemon set-up cost: the median of several timed
// constructions and the live heap the last one adds, after a GC.
type setupStats struct {
	Seconds []float64 `json:"seconds"`
	Median  float64   `json:"median_s"`
	HeapMB  float64   `json:"heap_mb"`
}

// setupRounds is how many times each run builds its daemon; set-up time
// is their median.
const setupRounds = 31

// setupDaemon builds the daemon setupRounds times, keeping the last.
// Over a data dir every construction recovers the retained sessions, so
// recovery is part of set-up.
func setupDaemon(dataDir string) (*daemon, setupStats, error) {
	var st setupStats
	var d *daemon
	var ms runtime.MemStats
	// Two collections empty the sync.Pools (and their victim caches)
	// earlier daemons filled, so the base is the benchmark's own inputs.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	base := ms.HeapAlloc
	for i := 0; i < setupRounds; i++ {
		if d != nil {
			d.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if d, err = startDaemon(dataDir); err != nil {
			return nil, st, err
		}
		st.Seconds = append(st.Seconds, time.Since(t0).Seconds())
	}
	st.Median = median(st.Seconds)
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	st.HeapMB = (float64(ms.HeapAlloc) - float64(base)) / (1 << 20)
	return d, st, nil
}

// sessionInfo is the part of GET /v1/sessions/{id} the gates read.
type sessionInfo struct {
	State   string `json:"state"`
	Reports int64  `json:"reports"`
	Tags    []struct {
		Tag string `json:"tag"`
		Err string `json:"err"`
	} `json:"tags"`
}

func (d *daemon) info(ctx context.Context, id string) (sessionInfo, error) {
	var out sessionInfo
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/v1/sessions/"+id, nil)
	if err != nil {
		return out, err
	}
	resp, err := d.httpc.Do(req)
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("GET session %s: %s", id, resp.Status)
	}
	return out, json.NewDecoder(resp.Body).Decode(&out)
}

// awaitPollMax caps awaitReports' backoff. Its polls run inside the
// measured windows, on the daemon's cores: backing off keeps a long drain
// to a few dozen requests, and a sleeping poller costs no CPU.
const awaitPollMax = 16 * time.Millisecond

// awaitReports waits until the session has taken in want reports — the
// proof that every report written to the socket reached the pump —
// polling at 1 ms, then doubling up to awaitPollMax.
func (d *daemon) awaitReports(ctx context.Context, id string, want int) error {
	deadline := time.Now().Add(60 * time.Second)
	for wait := time.Millisecond; ; wait = min(2*wait, awaitPollMax) {
		info, err := d.info(ctx, id)
		if err != nil {
			return err
		}
		if info.Reports == int64(want) {
			return nil
		}
		if info.Reports > int64(want) || time.Now().After(deadline) {
			return fmt.Errorf("session %s took in %d of %d reports sent", id, info.Reports, want)
		}
		time.Sleep(wait)
	}
}

// stageTotal is one rfidrawd_stage_seconds series' sum and count.
type stageTotal struct{ sum, count float64 }

// stageTotals scrapes the daemon's per-stage latency histograms.
func (d *daemon) stageTotals(ctx context.Context) (map[string]stageTotal, error) {
	txt, err := d.cl.FetchMetrics(ctx)
	if err != nil {
		return nil, err
	}
	return parseStageTotals(txt)
}

func parseStageTotals(txt string) (map[string]stageTotal, error) {
	out := map[string]stageTotal{}
	sc := bufio.NewScanner(strings.NewReader(txt))
	for sc.Scan() {
		line := sc.Text()
		for _, suffix := range []string{"_sum", "_count"} {
			prefix := `rfidrawd_stage_seconds` + suffix + `{stage="`
			if !strings.HasPrefix(line, prefix) {
				continue
			}
			rest := line[len(prefix):]
			q := strings.Index(rest, `"} `)
			if q < 0 {
				return nil, fmt.Errorf("malformed stage series %q", line)
			}
			v, err := strconv.ParseFloat(rest[q+3:], 64)
			if err != nil {
				return nil, fmt.Errorf("malformed stage series %q: %w", line, err)
			}
			st := out[rest[:q]]
			if suffix == "_sum" {
				st.sum = v
			} else {
				st.count = v
			}
			out[rest[:q]] = st
		}
	}
	for _, st := range obs.Stages() {
		if _, ok := out[st.String()]; !ok {
			return nil, fmt.Errorf("no rfidrawd_stage_seconds series for stage %q", st)
		}
	}
	return out, nil
}

// stageMeansUS turns two scrapes into each stage's mean wait in µs over
// the interval between them (0 for a stage nothing passed through).
func stageMeansUS(before, after map[string]stageTotal) map[string]float64 {
	out := map[string]float64{}
	for _, st := range obs.Stages() {
		name := st.String()
		n := after[name].count - before[name].count
		if n > 0 {
			out[name] = (after[name].sum - before[name].sum) / n * 1e6
		} else {
			out[name] = 0
		}
	}
	return out
}

// subscriber is the benchmark's one stream connection: it decodes the
// session's event stream and stamps each point on receipt.
type subscriber struct {
	points []recvPoint
	drops  int
	ended  bool
	err    error
	done   chan struct{}
	// tee, when set, keeps the raw stream (the traced run replays it
	// through the decoder as the generator's stream-decode rung).
	tee *bytes.Buffer
	// onBatch, when set, is called after every decodeBatch events with
	// the batch's start and end, for the traced run's spans.
	onBatch func(start, end time.Time, n int)
}

// recvPoint is one delivered trace point and when it arrived.
type recvPoint struct {
	tag  string
	t    time.Duration
	x, z float64
	at   time.Time
}

const decodeBatch = 64

func (d *daemon) subscribe(ctx context.Context, id string, sub *subscriber) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/v1/sessions/"+id+"/stream", nil)
	if err != nil {
		return err
	}
	resp, err := d.httpc.Do(req)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return fmt.Errorf("stream attach: %s", resp.Status)
	}
	sub.done = make(chan struct{})
	go sub.consume(resp.Body)
	return nil
}

func (sub *subscriber) consume(body io.ReadCloser) {
	defer close(sub.done)
	defer body.Close()
	var r io.Reader = body
	if sub.tee != nil {
		r = io.TeeReader(body, sub.tee)
	}
	next := eventDecoder(r)
	batchStart, n := time.Now(), 0
	for {
		ev, err := next()
		if err == io.EOF {
			return
		}
		if err != nil {
			sub.err = err
			return
		}
		now := time.Now()
		switch ev.Type {
		case "point":
			sub.points = append(sub.points, recvPoint{tag: ev.Tag, t: ev.T, x: ev.X, z: ev.Z, at: now})
		case "drop":
			sub.drops += ev.Dropped
		case "end":
			sub.ended = true
		}
		if sub.onBatch != nil {
			if n++; n == decodeBatch {
				sub.onBatch(batchStart, now, n)
				batchStart, n = now, 0
			}
		}
	}
}

// eventDecoder decodes the daemon's NDJSON event stream.
func eventDecoder(r io.Reader) func() (server.Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	return func() (server.Event, error) {
		var ev server.Event
		if !sc.Scan() {
			if err := sc.Err(); err != nil {
				return ev, err
			}
			return ev, io.EOF
		}
		err := json.Unmarshal(sc.Bytes(), &ev)
		return ev, err
	}
}

// wait blocks until the stream has ended, or fails after timeout.
func (sub *subscriber) wait(timeout time.Duration) error {
	select {
	case <-sub.done:
		return sub.err
	case <-time.After(timeout):
		return fmt.Errorf("stream did not end within %v of the session's delete", timeout)
	}
}
