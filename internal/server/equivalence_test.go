package server

import (
	"bytes"
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"rfidraw/internal/readerwire"
	"rfidraw/internal/realtime"
	"rfidraw/internal/wal"
)

// collectEvents drains a client event channel into a slice.
func collectEvents(events <-chan Event, out *[]Event, wg *sync.WaitGroup) {
	defer wg.Done()
	for ev := range events {
		*out = append(*out, ev)
	}
}

// TestBurstOfferEquivalence is the batching acceptance gate: the same
// report stream offered one report at a time (Offer) and in arbitrary
// bursts (OfferBatch) must produce gob-byte-identical per-tag trace
// results — burst mode is a transport optimization, never a semantic
// one.
func TestBurstOfferEquivalence(t *testing.T) {
	run, _ := scenario(t)
	reg := testRegistry(t, RegistryConfig{NewEngine: recordingFactory(t), NoRecognize: true})
	single, err := reg.Open(SessionSpec{ID: "single", Sweep: perTagSweep(run)})
	if err != nil {
		t.Fatal(err)
	}
	burst, err := reg.Open(SessionSpec{ID: "burst", Sweep: perTagSweep(run)})
	if err != nil {
		t.Fatal(err)
	}
	merged := realtime.MergeStreams(run.ReportsRF...)
	for _, rep := range merged {
		if err := single.Offer(rep); err != nil {
			t.Fatal(err)
		}
	}
	// Deliberately ragged burst sizes (1, 2, 3, … wrapping at 97) so the
	// equivalence covers single-report bursts, partial bursts and the
	// flush boundary between bursts, not just one tidy chunk size.
	for i, size := 0, 1; i < len(merged); i, size = i+size, size%97+1 {
		end := i + size
		if end > len(merged) {
			end = len(merged)
		}
		if err := burst.OfferBatch(merged[i:end]); err != nil {
			t.Fatal(err)
		}
	}
	if err := single.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := burst.Flush(); err != nil {
		t.Fatal(err)
	}
	a, err := single.TraceResults()
	if err != nil {
		t.Fatal(err)
	}
	b, err := burst.TraceResults()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("trace results: single %d tags, burst %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Tag != b[i].Tag {
			t.Fatalf("tag order diverged: %s vs %s", a[i].Tag, b[i].Tag)
		}
		if !bytes.Equal(gobBytes(t, a[i].Result), gobBytes(t, b[i].Result)) {
			t.Fatalf("tag %s: burst trace differs from single-report trace", a[i].Tag)
		}
	}
	if sn, _ := reg.Pipeline().BurstSnapshot(); sn == 0 {
		t.Fatal("burst counter did not move: OfferBatch bypassed the burst path")
	}
}

// TestEncodingEquivalenceLive subscribes one NDJSON, one binary and one
// in-process consumer to the same live session and requires the decoded
// event streams to be deep-equal: the binary encoding is a wire
// optimization and the in-process decoded form a delivery detail, not
// different streams.
func TestEncodingEquivalenceLive(t *testing.T) {
	run, _ := scenario(t)
	srv := serve(t, testRegistry(t, RegistryConfig{
		// Deep queues: a slow-consumer drop is per-subscriber state
		// that would legitimately fork the streams.
		SubscriberQueue: 1 << 15,
	}))

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	ndjsonClient := &Client{BaseURL: "http://" + srv.HTTPAddr()}
	binaryClient := &Client{BaseURL: ndjsonClient.BaseURL, Encoding: "binary", SubscribeBuffer: 1024}
	id, err := ndjsonClient.CreateSession(ctx, SessionSpec{ID: "enc-live", Sweep: perTagSweep(run)})
	if err != nil {
		t.Fatal(err)
	}
	ndjsonEvents, ndjsonErrs, err := ndjsonClient.Subscribe(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	binaryEvents, binaryErrs, err := binaryClient.Subscribe(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	sess, ok := srv.reg.Get(id)
	if !ok {
		t.Fatal("session not registered")
	}
	inProcess, err := sess.Subscribe(SubscribeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var fromNDJSON, fromBinary, fromInProcess []Event
	var wg sync.WaitGroup
	wg.Add(3)
	go collectEvents(ndjsonEvents, &fromNDJSON, &wg)
	go collectEvents(binaryEvents, &fromBinary, &wg)
	go func() {
		defer wg.Done()
		for ev := range inProcess.Events() {
			fromInProcess = append(fromInProcess, ev)
		}
	}()

	rs, err := ndjsonClient.DialIngest(id, readerwire.Hello{
		Proto: readerwire.ProtoVersion, ReaderID: 1, AntennaCount: 4,
		SweepInterval: perTagSweep(run),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range realtime.MergeStreams(run.ReportsRF...) {
		if err := rs.Send(rep); err != nil {
			t.Fatal(err)
		}
	}
	if err := rs.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := rs.Close(); err != nil {
		t.Fatal(err)
	}
	awaitIngested(t, srv, id, rs.Sent())
	if err := ndjsonClient.DrainSession(ctx, id); err != nil {
		t.Fatal(err)
	}
	if err := ndjsonClient.DeleteSession(ctx, id); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for _, errs := range []<-chan error{ndjsonErrs, binaryErrs} {
		select {
		case err := <-errs:
			t.Fatal(err)
		default:
		}
	}
	compareEventStreams(t, fromNDJSON, fromBinary)
	compareEventStreams(t, fromNDJSON, fromInProcess)
}

// TestEncodingEquivalenceCatchup repeats the equivalence through the
// ?from=seq path: both encodings attach mid-stream with WAL catch-up,
// replay the recorded prefix, splice onto the live remainder, and must
// still decode to deep-equal streams.
func TestEncodingEquivalenceCatchup(t *testing.T) {
	run, _ := scenario(t)
	store, err := wal.Open(t.TempDir(), wal.Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := serve(t, testRegistry(t, RegistryConfig{
		NewEngine:       recordingFactory(t),
		NewReplayer:     testReplayerFactory(t),
		WAL:             store,
		NoRecognize:     true,
		SubscriberQueue: 1 << 15,
	}))

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	ndjsonClient := &Client{BaseURL: "http://" + srv.HTTPAddr()}
	binaryClient := &Client{BaseURL: ndjsonClient.BaseURL, Encoding: "binary", SubscribeBuffer: 1024}
	id, err := ndjsonClient.CreateSession(ctx, SessionSpec{ID: "enc-catchup", Sweep: perTagSweep(run)})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := ndjsonClient.DialIngest(id, readerwire.Hello{
		Proto: readerwire.ProtoVersion, ReaderID: 1, AntennaCount: 4,
		SweepInterval: perTagSweep(run),
	})
	if err != nil {
		t.Fatal(err)
	}
	merged := realtime.MergeStreams(run.ReportsRF...)
	prefix := merged[:2*len(merged)/3]
	for _, rep := range prefix {
		if err := rs.Send(rep); err != nil {
			t.Fatal(err)
		}
	}
	if err := rs.Flush(); err != nil {
		t.Fatal(err)
	}
	// Drain so the prefix is on disk and the catch-up head is stable
	// before either subscriber snapshots it.
	awaitIngested(t, srv, id, rs.Sent())
	if err := ndjsonClient.DrainSession(ctx, id); err != nil {
		t.Fatal(err)
	}
	ndjsonEvents, ndjsonErrs, err := ndjsonClient.SubscribeFrom(ctx, id, 0)
	if err != nil {
		t.Fatal(err)
	}
	binaryEvents, binaryErrs, err := binaryClient.SubscribeFrom(ctx, id, 0)
	if err != nil {
		t.Fatal(err)
	}
	var fromNDJSON, fromBinary []Event
	var wg sync.WaitGroup
	wg.Add(2)
	go collectEvents(ndjsonEvents, &fromNDJSON, &wg)
	go collectEvents(binaryEvents, &fromBinary, &wg)

	for _, rep := range merged[len(prefix):] {
		if err := rs.Send(rep); err != nil {
			t.Fatal(err)
		}
	}
	if err := rs.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := rs.Close(); err != nil {
		t.Fatal(err)
	}
	awaitIngested(t, srv, id, rs.Sent())
	if err := ndjsonClient.DrainSession(ctx, id); err != nil {
		t.Fatal(err)
	}
	awaitCaughtUp(t, srv, id)
	if err := ndjsonClient.DeleteSession(ctx, id); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for _, errs := range []<-chan error{ndjsonErrs, binaryErrs} {
		select {
		case err := <-errs:
			t.Fatal(err)
		default:
		}
	}
	// The replayed prefix must actually be present: a live-only
	// subscriber attached after the drain would see no points stamped
	// inside the prefix's time range.
	prefixEnd := prefix[len(prefix)-1].Time
	replayed := 0
	for _, ev := range fromNDJSON {
		if ev.Type == "point" && ev.T <= prefixEnd {
			replayed++
		}
	}
	if replayed == 0 {
		t.Fatal("catch-up stream has no points from the recorded prefix")
	}
	compareEventStreams(t, fromNDJSON, fromBinary)
}

// compareEventStreams requires two decoded streams to be deep-equal and
// free of per-subscriber drop forks.
func compareEventStreams(t *testing.T, a, b []Event) {
	t.Helper()
	for _, ev := range a {
		if ev.Type == "drop" {
			t.Fatal("stream saw a slow-consumer drop; the equivalence setup must not overflow queues")
		}
	}
	if len(a) == 0 {
		t.Fatal("no events decoded")
	}
	if len(a) != len(b) {
		t.Fatalf("stream lengths diverged: %d NDJSON events vs %d binary", len(a), len(b))
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Fatalf("event %d diverged:\n  ndjson: %+v\n  binary: %+v", i, a[i], b[i])
		}
	}
}
