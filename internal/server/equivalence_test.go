package server

import (
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
// report stream offered one report at a time (Offer) and in ragged
// bursts (OfferBatch) must serve a subscriber attached before the first
// report identical events for every tag, recognized glyphs included —
// burst mode is a transport optimization, never a semantic one. (Tags
// on different engine shards interleave at random, so the gate is per
// tag.)
func TestBurstOfferEquivalence(t *testing.T) {
	run, _ := scenario(t)
	reg := testRegistry(t, RegistryConfig{})
	merged := realtime.MergeStreams(run.ReportsRF...)
	served := func(id string, feed func(*Session) error) []Event {
		sess, err := reg.Open(SessionSpec{ID: id, Sweep: perTagSweep(run)})
		if err != nil {
			t.Fatal(err)
		}
		sub, err := sess.Subscribe(SubscribeOptions{Buffer: 1 << 16})
		if err != nil {
			t.Fatal(err)
		}
		var evs []Event
		done := make(chan struct{})
		go func() {
			defer close(done)
			for ev := range sub.Events() {
				evs = append(evs, ev)
			}
		}()
		if err := feed(sess); err != nil {
			t.Fatal(err)
		}
		if err := sess.Flush(); err != nil {
			t.Fatal(err)
		}
		sess.Close()
		<-done
		return evs
	}
	single := served("single", func(sess *Session) error {
		for _, rep := range merged {
			if err := sess.Offer(rep); err != nil {
				return err
			}
		}
		return nil
	})
	// Deliberately ragged burst sizes (1, 2, 3, … wrapping at 97) so the
	// equivalence covers single-report bursts, partial bursts and the
	// flush boundary between bursts, not just one tidy chunk size.
	bursts := 0
	burst := served("burst", func(sess *Session) error {
		for i, size := 0, 1; i < len(merged); i, size = i+size, size%97+1 {
			bursts++
			if err := sess.OfferBatch(merged[i:min(i+size, len(merged))]); err != nil {
				return err
			}
		}
		return nil
	})
	if counts := countByType(single); counts["point"] == 0 || counts["glyph"] == 0 {
		t.Fatalf("single-report stream too thin to compare: %v", counts)
	}
	requireTagSuffixes(t, "bursts", tagEvents(t, "bursts", burst, false, 0), tagEvents(t, "single reports", single, false, 0), true)
	// Every Offer is a one-report burst.
	if n, reports := reg.Pipeline().BurstSnapshot(); n != int64(len(merged)+bursts) || reports != int64(2*len(merged)) {
		t.Fatalf("burst counter read %d bursts of %d reports, want %d of %d", n, reports, len(merged)+bursts, 2*len(merged))
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
		t.Fatalf("stream lengths diverged: %d events vs %d", len(a), len(b))
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Fatalf("event %d diverged:\n  %+v\n  %+v", i, a[i], b[i])
		}
	}
}
