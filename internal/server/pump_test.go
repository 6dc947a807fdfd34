package server

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rfidraw/internal/realtime"
	"rfidraw/internal/rfid"
)

// goroutinesNaming returns the stacks of the goroutines whose stack
// names fn.
func goroutinesNaming(fn string) []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var out []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, fn) {
			out = append(out, g)
		}
	}
	return out
}

// awaitGoroutines waits until exactly want goroutines name fn, failing
// with their stacks when that never holds. Goroutines that pass through
// fn (an engine shard emitting through a session callback) settle
// meanwhile; ones that stay do not.
func awaitGoroutines(t *testing.T, fn string, want int) []string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		got := goroutinesNaming(fn)
		if len(got) == want {
			return got
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines name %s, want %d:\n%s", len(got), fn, want, strings.Join(got, "\n\n"))
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSessionStartsOneGoroutine: a live session runs one goroutine of
// its own, its loop, beside its engine's shards, and Close ends them
// all.
func TestSessionStartsOneGoroutine(t *testing.T) {
	run, _ := scenario(t)
	reg := testRegistry(t, RegistryConfig{NoRecognize: true})
	sessions := len(goroutinesNaming("(*Session)."))
	shards := len(goroutinesNaming("(*shard).loop"))
	sess, err := reg.Open(SessionSpec{ID: "one-loop", Sweep: perTagSweep(run)})
	if err != nil {
		t.Fatal(err)
	}
	feedSession(t, run, sess)
	own := awaitGoroutines(t, "(*Session).", sessions+1)
	if !strings.Contains(strings.Join(own, "\n"), "(*Session).loop") {
		t.Fatalf("the session's goroutine is not its loop:\n%s", strings.Join(own, "\n\n"))
	}
	awaitGoroutines(t, "(*shard).loop", shards+2) // testFactory's two shards
	sess.Close()
	awaitGoroutines(t, "(*Session).", sessions)
	awaitGoroutines(t, "(*shard).loop", shards)
}

// TestConcurrentIngest races ingest against drains, catch-up attaches,
// retraces and Close on one durable session. Three reader connections
// offer their time-ordered shares of the stream in random-size bursts, a
// fourth goroutine loops Flush, SubscribeFrom(0) and Retrace, and Close
// lands while the readers are still offering. Every offer must return
// nil or ErrSessionClosed; the closed record must hold exactly the
// reports whose offers returned nil; a subscriber attached before the
// first offer must get, per tag, exactly the events a catch-up from 0 on
// the closed record serves; and no goroutine running a session method
// may outlive Close.
func TestConcurrentIngest(t *testing.T) {
	run, _ := scenario(t)
	merged := realtime.MergeStreams(run.ReportsRF...)
	dir := t.TempDir()
	reg := walRegistry(t, dir)
	sessions := len(goroutinesNaming("(*Session)."))
	const id = "concurrent"
	sess, err := reg.Open(SessionSpec{ID: id, Sweep: perTagSweep(run)})
	if err != nil {
		t.Fatal(err)
	}
	live, err := sess.Subscribe(SubscribeOptions{Buffer: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	var liveEvents []Event
	liveDone := make(chan struct{})
	go func() {
		defer close(liveDone)
		for ev := range live.Events() {
			liveEvents = append(liveEvents, ev)
		}
	}()

	// Each reader sends at twice real time, a burst of whatever its clock
	// has reached after a random pause, so the readers stay within the
	// reorder window of each other, as live readers do.
	const readers, speedup = 3, 2
	var streams [readers][]rfid.Report
	for i, rep := range merged {
		streams[i%readers] = append(streams[i%readers], rep)
	}
	var accepted, offered atomic.Int64
	closeAt := int64(len(merged)) * 3 / 4
	closing, closed := make(chan struct{}), make(chan struct{})
	var closeOnce sync.Once
	var wg, catchups sync.WaitGroup
	start, t0 := time.Now(), merged[0].Time
	for r := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r) + 1))
			for reps := streams[r]; len(reps) > 0; {
				time.Sleep(time.Duration(rng.Intn(3000)) * time.Microsecond)
				now := t0 + speedup*time.Since(start)
				n := 1
				for n < len(reps) && reps[n].Time <= now {
					n++
				}
				err := sess.OfferBatch(reps[:n])
				if errors.Is(err, ErrSessionClosed) {
					return
				}
				if err != nil {
					t.Errorf("reader %d: OfferBatch: %v", r, err)
					return
				}
				accepted.Add(int64(n))
				reps = reps[n:]
				if offered.Add(int64(n)) >= closeAt {
					closeOnce.Do(func() { close(closing) })
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		// A round every 100–200 ms: a drain closes the engine's open
		// sweeps, so drains much more often than real clients ask for
		// them leave too little of each sweep to trace.
		rng := rand.New(rand.NewSource(4))
		var prev *Subscriber
		for done := false; !done; {
			select {
			case <-closed:
				done = true // one more round against the closed session
			case <-time.After(time.Duration(100+rng.Intn(100)) * time.Millisecond):
			}
			if err := sess.Flush(); err != nil && !errors.Is(err, ErrSessionClosed) {
				t.Errorf("Flush: %v", err)
			}
			if prev != nil {
				prev.Close() // mid-replay or spliced, either way a clean end
			}
			sub, err := sess.SubscribeFrom(0, SubscribeOptions{Buffer: 1 << 16})
			switch {
			case err == nil:
				prev = sub
				catchups.Add(1)
				go func() {
					defer catchups.Done()
					for range sub.Events() {
					}
				}()
			case !errors.Is(err, ErrSessionClosed):
				t.Errorf("SubscribeFrom: %v", err)
			}
			if sess.WALSeq() > 0 {
				if _, _, err := sess.Retrace(nil); err != nil {
					t.Errorf("Retrace: %v", err)
				}
			}
		}
	}()
	go func() {
		<-closing
		sess.Close()
		close(closed)
	}()
	wg.Wait()
	closeOnce.Do(func() { close(closing) }) // every reader failed before the mark
	<-closed
	<-liveDone
	catchups.Wait()
	if t.Failed() {
		return
	}

	_, stats, err := reg.cfg.WAL.Scan(id)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.CleanClose || int64(stats.Reports) != accepted.Load() {
		t.Fatalf("closed record holds %d reports (clean close %v), offers accepted %d of %d",
			stats.Reports, stats.CleanClose, accepted.Load(), len(merged))
	}
	if accepted.Load() == 0 || accepted.Load() == int64(len(merged)) {
		t.Logf("close landed at %d of %d reports, not inside the stream", accepted.Load(), len(merged))
	}

	recovered, ok := walRegistry(t, dir).Get(id)
	if !ok {
		t.Fatal("closed record not recovered")
	}
	caught, err := recovered.SubscribeFrom(0, SubscribeOptions{Buffer: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	var replayed []Event
	for ev := range caught.Events() {
		replayed = append(replayed, ev)
	}
	want := tagEvents(t, "live", liveEvents, false, 0)
	if len(want) == 0 {
		t.Fatal("live subscriber got no tag events")
	}
	t.Logf("close after %d of %d reports; live events %d", accepted.Load(), len(merged), len(liveEvents))
	requireTagSuffixes(t, "catch-up from 0 of the closed record", tagEvents(t, "catch-up", replayed, true, 0), want, true)
	awaitGoroutines(t, "(*Session).", sessions)
}

// TestPacedGroupCommit: nine subscribers put the loop's group commit past
// the fan-out pace threshold, so it holds each kicked batch for the pace
// before committing it; every subscriber still gets the same events.
func TestPacedGroupCommit(t *testing.T) {
	run, _ := scenario(t)
	reg := testRegistry(t, RegistryConfig{NoRecognize: true})
	sess, err := reg.Open(SessionSpec{ID: "paced", Sweep: perTagSweep(run)})
	if err != nil {
		t.Fatal(err)
	}
	got := make([][]Event, 9)
	var wg sync.WaitGroup
	for i := range got {
		sub, err := sess.Subscribe(SubscribeOptions{Buffer: 1 << 16})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ev := range sub.Events() {
				got[i] = append(got[i], ev)
			}
		}()
	}
	if p := sess.emitPace.Load(); p < int64(emitPaceMin) {
		t.Fatalf("nine subscribers set a pace of %v, under the %v threshold", time.Duration(p), emitPaceMin)
	}
	feedSession(t, run, sess)
	sess.Close()
	wg.Wait()
	want := tagEvents(t, "subscriber 0", got[0], false, 0)
	if len(want) == 0 {
		t.Fatal("no tag events reached the subscribers")
	}
	for i := 1; i < len(got); i++ {
		requireTagSuffixes(t, fmt.Sprintf("subscriber %d", i), tagEvents(t, "subscriber", got[i], false, 0), want, true)
	}
}
