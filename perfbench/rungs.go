package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"rfidraw/internal/core"
	"rfidraw/internal/engine"
	"rfidraw/internal/readerwire"
	"rfidraw/internal/rfid"
	"rfidraw/internal/server"
	"rfidraw/internal/vote"
	"rfidraw/internal/wal"
)

// liveLedger is the traced run of a live workload over a fixed prefix of
// its looped stream, on the daemon the end-to-end sessions used. The
// rungs that go through a session pump offer the stream at the
// workload's rate, as the end-to-end sessions do (live.go says why).
type liveLedger struct {
	ctx    context.Context
	d      *daemon
	w      liveWorkload
	sc     *scenario
	sys    *core.System
	reps   []rfid.Report
	recs   []trackerRecord
	ref    map[pointKey]refPoint
	dir    string
	tr     *tracer
	l      *ledger
	o      *outcome
	root   int
	wire   []byte // the reports as the generator writes them
	stream []byte // the event stream the traced end-to-end rung received
	events []server.Event
}

// runLiveLedger runs the traced end-to-end rung once and the ladder
// ledgerRounds times at GOMAXPROCS=1 over n reports, each round after
// the untraced end-to-end rung over the same reports at the workload's
// GOMAXPROCS, the total the layers split; workload is the end-to-end
// run's cost per report over all its rooms.
func runLiveLedger(ctx context.Context, d *daemon, w liveWorkload, sc *scenario, sys *core.System, n int, dir string, workload layerCost, stages map[string]float64, o *outcome) (*ledger, *tracer, error) {
	ref, err := reference(sys, sc, n)
	if err != nil {
		return nil, nil, err
	}
	procs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(procs)
	// Like the end-to-end metrics, the ledger counts per carried report.
	ll := &liveLedger{
		ctx: ctx, d: d, w: w, sc: sc, sys: sys, reps: sc.reports(n), ref: ref.points, dir: dir,
		tr: newTracer(), l: newLedger(ref.carried, workload, stages), o: o,
	}
	for _, rep := range ll.reps {
		ll.recs = append(ll.recs, trackerRecord{rep: rep})
	}
	ll.recs = append(ll.recs, trackerRecord{flush: true})
	ll.root = ll.tr.add(span{Name: "ledger", Parent: -1})
	var buf bytes.Buffer
	if err := writeReports(readerwire.NewWriter(&buf), sc.sweep, ll.reps); err != nil {
		return nil, nil, err
	}
	ll.wire = buf.Bytes()
	runtime.GOMAXPROCS(1)
	tracedID := ll.tr.rung("e2e_traced", ll.root)
	traced, err := ll.e2eRung(tracedID)
	if err != nil {
		return nil, nil, err
	}
	ll.tr.done(tracedID, traced, n)
	ll.l.tracedNS = ll.l.per(traced).ns
	for r := 0; r < ledgerRounds; r++ {
		runtime.GOMAXPROCS(procs)
		totalID := ll.tr.rung(totalRung, ll.root)
		total, err := ll.e2eRung(-1)
		if err != nil {
			return nil, nil, err
		}
		ll.tr.done(totalID, total, n)
		ll.l.add(totalRung, ll.l.per(total))
		runtime.GOMAXPROCS(1)
		if err := ll.round(r == 0); err != nil {
			return nil, nil, err
		}
	}
	ll.l.settle()
	return ll.l, ll.tr, nil
}

// round runs the ladder once, in pipeline order.
func (ll *liveLedger) round(first bool) error {
	l, tr, n := ll.l, ll.tr, ll.l.reports

	// End to end: the daemon through its sockets, one reader connection
	// and one subscriber.
	e2eID := tr.rung("e2e", ll.root)
	e2e, err := ll.e2eRung(-1)
	if err != nil {
		return err
	}
	tr.done(e2eID, e2e, n)
	l.untracedNS = append(l.untracedNS, l.per(e2e).ns)

	// Load generator: readerwire encode, the loopback send of those
	// bytes, and the decode of the delivered stream.
	genID := tr.rung("generator", e2eID)
	genEnc, err := repeat(func(bool) error {
		return writeReports(readerwire.NewWriter(io.Discard), ll.sc.sweep, ll.reps)
	})
	if err != nil {
		return err
	}
	tr.done(tr.rung("generator.encode", genID), genEnc, n)
	genSend, err := measure(func() error { return loopbackSend(ll.wire) })
	if err != nil {
		return err
	}
	tr.done(tr.rung("generator.send", genID), genSend, n)
	genDec, err := repeat(func(bool) error { return decodeStream(ll.stream) })
	if err != nil {
		return err
	}
	tr.done(tr.rung("generator.stream_decode", genID), genDec, n)
	gen := cost{cpu: genEnc.cpu + genSend.cpu + genDec.cpu, allocs: genEnc.allocs + genSend.allocs + genDec.allocs}
	tr.done(genID, gen, n)
	l.add("generator", l.per(gen))

	// Wire decode, as the ingest gateway does it.
	decID := tr.rung("decode", e2eID)
	dec, err := repeat(func(spans bool) error { return ll.decodeWire(spans && first, decID) })
	if err != nil {
		return err
	}
	tr.done(decID, dec, n)
	l.add("decode", l.per(dec))

	// Session pump: an in-process session fed the generator's batches on
	// its schedule, with the daemon's engine factory and WAL policy, no
	// subscriber.
	sessID := tr.rung("session", e2eID)
	sess, err := ll.sessionRung()
	if err != nil {
		return err
	}
	tr.done(sessID, sess, n)

	// WAL append under the daemon's sync policy.
	walID := tr.rung("wal_append", sessID)
	wc, bytes, err := ll.walRung(walID, first)
	if err != nil {
		return err
	}
	tr.done(walID, wc, n)
	l.add("wal_append", l.per(wc))
	l.walBytes = float64(bytes) / float64(n)

	// Engine dispatch (one shard, BatchSize 1, the serving
	// configuration), then the tracing core's calls one by one.
	engID := tr.rung("engine", sessID)
	eng, err := ll.engineRung()
	if err != nil {
		return err
	}
	tr.done(engID, eng, n)
	events, err := l.trackerRound(tr, engID, eng, ll.sys, ll.sc.sweep, false, ll.recs, first)
	if err != nil {
		return err
	}
	if first {
		ll.events = events
		if len(events) != len(ll.ref) {
			ll.o.violate("ledger trackers emitted %d points, the reference %d", len(events), len(ll.ref))
		}
	}
	l.add("pump", l.self(tr, sessID))

	// Event encode: the NDJSON stream's marshal.
	encID := tr.rung("encode", e2eID)
	enc, err := repeat(func(spans bool) error { return encodeEvents(ll.events, tr, encID, spans && first) })
	if err != nil {
		return err
	}
	tr.done(encID, enc, n)
	l.add("encode", l.per(enc))
	l.encodeNS = append(l.encodeNS, float64(enc.cpu)/float64(len(ll.events)))
	l.add("delivery", l.self(tr, e2eID))
	return nil
}

func writeReports(wr *readerwire.Writer, sweep time.Duration, reps []rfid.Report) error {
	if err := wr.WriteHello(readerwire.Hello{Proto: readerwire.ProtoVersion, ReaderID: 1, AntennaCount: 4, SweepInterval: sweep}); err != nil {
		return err
	}
	for _, rep := range reps {
		if err := wr.WriteReport(rep); err != nil {
			return err
		}
	}
	if err := wr.WriteBye(); err != nil {
		return err
	}
	return wr.Flush()
}

// e2eRung sends the ledger stream through the daemon at the workload's
// rate on one reader connection to one subscriber and costs it from the
// first send until the drain returns. With tracedID ≥ 0 it records a
// span per send batch and per decoded event batch under it and keeps the
// stream.
func (ll *liveLedger) e2eRung(tracedID int) (cost, error) {
	ctx, d, tr := ll.ctx, ll.d, ll.tr
	id, err := d.cl.CreateSession(ctx, server.SessionSpec{Sweep: ll.sc.sweep})
	if err != nil {
		return cost{}, err
	}
	var sub subscriber
	var stream bytes.Buffer
	if tracedID >= 0 {
		sub.tee = &stream
		sub.onBatch = func(start, end time.Time, n int) {
			tr.add(span{Name: "subscriber.decode", Parent: tracedID, Start: tr.at(start), End: tr.at(end), Count: n, Cost: int64(end.Sub(start))})
		}
	}
	if err := d.subscribe(ctx, id, &sub); err != nil {
		return cost{}, err
	}
	rs, err := d.cl.DialIngest(id, readerwire.Hello{Proto: readerwire.ProtoVersion, ReaderID: 1, AntennaCount: 4, SweepInterval: ll.sc.sweep})
	if err != nil {
		return cost{}, err
	}
	send := toSocket(rs)
	if tracedID >= 0 {
		sock, first := send, 0
		send = func(batch []rfid.Report) error {
			t0 := time.Now()
			err := sock(batch)
			t1 := time.Now()
			tr.add(span{Name: "generator.send_calls", Parent: tracedID, Start: tr.at(t0), End: tr.at(t1), Report: first, Count: len(batch), Cost: int64(t1.Sub(t0))})
			first += len(batch)
			return err
		}
	}
	c, err := measure(func() error {
		if _, err := sendPaced(ll.sc, ll.w.rate, 0, len(ll.reps), send); err != nil {
			return err
		}
		if err := rs.Close(); err != nil {
			return err
		}
		if err := d.awaitReports(ctx, id, len(ll.reps)); err != nil {
			ll.o.violate("ledger e2e: %v", err)
		}
		return d.cl.DrainSession(ctx, id)
	})
	if err != nil {
		return c, err
	}
	info, err := d.info(ctx, id)
	if err != nil {
		return c, err
	}
	if err := d.cl.DeleteSession(ctx, id); err != nil {
		return c, err
	}
	if err := sub.wait(60 * time.Second); err != nil {
		return c, fmt.Errorf("ledger e2e stream: %w", err)
	}
	if tracedID >= 0 {
		ll.stream = stream.Bytes()
	}
	p := &sessionRun{name: "ledger e2e", sub: sub, tagErrs: map[string]string{}}
	for _, t := range info.Tags {
		if t.Err != "" {
			p.tagErrs[t.Tag] = t.Err
		}
	}
	p.gate(ll.sc, ll.ref, ll.o)
	return c, nil
}

// loopbackSend writes the report bytes over a loopback TCP connection
// to a reader that discards them, in the readerwire writer's 4 KiB
// flushes.
func loopbackSend(wire []byte) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	done := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		_, err = io.Copy(io.Discard, conn)
		conn.Close()
		done <- err
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	for off := 0; off < len(wire); off += 4096 {
		if _, err := conn.Write(wire[off:min(off+4096, len(wire))]); err != nil {
			conn.Close()
			return err
		}
	}
	if err := conn.Close(); err != nil {
		return err
	}
	return <-done
}

func decodeStream(b []byte) error {
	next := eventDecoder(bytes.NewReader(b))
	for {
		if _, err := next(); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
}

// decodeWire decodes the report bytes the way the ingest gateway does:
// a blocking Next, then every frame already buffered.
func (ll *liveLedger) decodeWire(spans bool, parent int) error {
	r := readerwire.NewResyncReader(bytes.NewReader(ll.wire))
	reports, groupStart, group := 0, time.Now(), 0
	for {
		msg, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		for {
			if msg.Report != nil {
				reports++
				if group++; spans && group == 256 {
					now := time.Now()
					ll.tr.add(span{Name: "decode.calls", Parent: parent, Start: ll.tr.at(groupStart), End: ll.tr.at(now), Report: reports - group, Count: group})
					groupStart, group = now, 0
				}
			}
			var ok bool
			if msg, ok, err = r.NextBuffered(); err != nil {
				return err
			} else if !ok {
				break
			}
		}
	}
	if reports != len(ll.reps) {
		return fmt.Errorf("decode rung read %d of %d reports", reports, len(ll.reps))
	}
	return nil
}

// sessionRung feeds the stream into an in-process session built with
// the daemon's engine factory and WAL policy, in the generator's batches
// at the workload's rate, and drains it.
func (ll *liveLedger) sessionRung() (cost, error) {
	sys := ll.sys
	cfg := server.RegistryConfig{
		NewEngine: func(sweep time.Duration, _ string, _ *vote.SearchConfig, onUpdate func(engine.Update)) (*engine.Engine, error) {
			return engine.New(engine.Config{Shards: 1, System: sys, SweepInterval: sweep, MaxAcquireBuffer: 400, OnUpdate: onUpdate, BatchSize: 1})
		},
		MaxSessions: 128, MaxSubscribers: 16, SubscriberQueue: 256,
		ReorderWindow: reorderWindow, IdleTimeout: 2 * time.Minute,
		Capacity: server.Capacity{SearchEvalsPerSec: evalCapacity},
		Logger:   logger,
	}
	dir := filepath.Join(ll.dir, "session-wal")
	defer os.RemoveAll(dir)
	store, err := wal.Open(dir, wal.Options{SyncEvery: 64})
	if err != nil {
		return cost{}, err
	}
	cfg.WAL = store
	cfg.NewReplayer = func(sweep time.Duration, _ string, _ *vote.SearchConfig, record bool) (*engine.Replayer, error) {
		return engine.NewReplayer(engine.Config{System: sys, SweepInterval: sweep, MaxAcquireBuffer: 400, RecordTrace: record})
	}
	reg, err := server.NewRegistry(cfg)
	if err != nil {
		return cost{}, err
	}
	defer reg.Close()
	sess, err := reg.Open(server.SessionSpec{ID: "ledger-session", Sweep: ll.sc.sweep})
	if err != nil {
		return cost{}, err
	}
	c, err := measure(func() error {
		if _, err := sendPaced(ll.sc, ll.w.rate, 0, len(ll.reps), sess.OfferBatch); err != nil {
			return err
		}
		return sess.Flush()
	})
	if err != nil {
		return c, err
	}
	positions := 0
	for _, ts := range sess.TagStats() {
		positions += ts.Positions
	}
	if positions != len(ll.ref) {
		ll.o.violate("ledger session emitted %d points, the reference %d", positions, len(ll.ref))
	}
	sess.Close()
	return c, nil
}

// walRung appends the stream to a session log under the daemon's sync
// policy, with the drain's flush record at the end.
func (ll *liveLedger) walRung(parent int, spans bool) (cost, int64, error) {
	dir := filepath.Join(ll.dir, "wal-rung")
	defer os.RemoveAll(dir)
	store, err := wal.Open(dir, wal.Options{SyncEvery: 64})
	if err != nil {
		return cost{}, 0, err
	}
	log, err := store.Create(wal.Meta{ID: "ledger-wal", Created: time.Now(), Sweep: ll.sc.sweep})
	if err != nil {
		return cost{}, 0, err
	}
	c, err := measure(func() error {
		for i := 0; i < len(ll.reps); i += 256 {
			t0 := time.Now()
			end := min(i+256, len(ll.reps))
			for j := i; j < end; j++ {
				if err := log.AppendReport(uint64(j+1), ll.reps[j]); err != nil {
					return err
				}
			}
			if spans {
				t1 := time.Now()
				ll.tr.add(span{Name: "wal_append.calls", Parent: parent, Start: ll.tr.at(t0), End: ll.tr.at(t1), Report: i, Count: end - i})
			}
		}
		return log.AppendFlush(uint64(len(ll.reps) + 1))
	})
	bytes := log.Bytes()
	if err != nil {
		log.Abandon()
		return c, 0, err
	}
	return c, bytes, log.Close(uint64(len(ll.reps) + 2))
}

// engineRung offers the stream to a one-shard engine as the session
// pump does, then flushes it.
func (ll *liveLedger) engineRung() (cost, error) {
	positions := 0
	eng, err := engine.New(engine.Config{
		Shards: 1, System: ll.sys, SweepInterval: ll.sc.sweep, MaxAcquireBuffer: 400, BatchSize: 1,
		OnUpdate: func(u engine.Update) { positions += len(u.Positions) },
	})
	if err != nil {
		return cost{}, err
	}
	c, err := measure(func() error {
		for _, rep := range ll.reps {
			if err := eng.Offer(rep); err != nil {
				return err
			}
		}
		return eng.Flush()
	})
	if cerr := eng.Close(); err == nil {
		err = cerr
	}
	if positions != len(ll.ref) {
		ll.o.violate("ledger engine emitted %d points, the reference %d", positions, len(ll.ref))
	}
	return c, err
}

// encodeEvents marshals every point event as the NDJSON stream does.
func encodeEvents(events []server.Event, tr *tracer, parent int, spans bool) error {
	t0 := time.Now()
	for i, ev := range events {
		if _, err := ev.MarshalJSON(); err != nil {
			return err
		}
		if spans && (i+1)%256 == 0 {
			t1 := time.Now()
			tr.add(span{Name: "encode.calls", Parent: parent, Start: tr.at(t0), End: tr.at(t1), Report: i - 255, Count: 256})
			t0 = t1
		}
	}
	return nil
}
