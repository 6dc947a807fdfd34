package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"rfidraw/internal/obs"
	"rfidraw/internal/readerwire"
	"rfidraw/internal/realtime"
)

// tierServer starts a daemon with subscriber queues deep enough that no
// adaptive downgrade can fire, so tier streams differ only by
// classification, never by backlog pressure.
func tierServer(t *testing.T) *Server {
	t.Helper()
	return serve(t, testRegistry(t, RegistryConfig{SubscriberQueue: 1 << 15}))
}

// feedOverIngest replays the scenario into a session over the ingest
// gateway and drains it, so every derived event has reached subscribers.
func feedOverIngest(t *testing.T, ctx context.Context, srv *Server, c *Client, id string) {
	t.Helper()
	run, _ := scenario(t)
	rs, err := c.DialIngest(id, readerwire.Hello{
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
	if err := c.DrainSession(ctx, id); err != nil {
		t.Fatal(err)
	}
}

// pointKey identifies one position event across tier streams.
func pointKey(ev Event) string {
	return fmt.Sprintf("%s|%d|%g|%g", ev.Tag, ev.T, ev.X, ev.Z)
}

// countByType tallies a decoded stream by event type.
func countByType(evs []Event) map[string]int {
	out := map[string]int{}
	for _, ev := range evs {
		out[ev.Type]++
	}
	return out
}

// TestTierStreamSubsets pins the tier classification contract:
// T0 ⊆ T1 ⊆ T2 as event sets, with T0 a strict decimation of T1's
// points and the diagnostic "stroke" closures exclusive to T2.
func TestTierStreamSubsets(t *testing.T) {
	srv := tierServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	base := "http://" + srv.HTTPAddr()
	clients := map[string]*Client{
		"0": {BaseURL: base, Tier: "0", SubscribeBuffer: 1024},
		"1": {BaseURL: base, Tier: "1", SubscribeBuffer: 1024},
		"2": {BaseURL: base, Tier: "2", SubscribeBuffer: 1024},
	}
	run, _ := scenario(t)
	id, err := clients["1"].CreateSession(ctx, SessionSpec{ID: "tier-subsets", Sweep: perTagSweep(run)})
	if err != nil {
		t.Fatal(err)
	}
	streams := map[string]*[]Event{}
	errsByTier := map[string]<-chan error{}
	var wg sync.WaitGroup
	for tier, c := range clients {
		events, errs, err := c.Subscribe(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		errsByTier[tier] = errs
		out := &[]Event{}
		streams[tier] = out
		wg.Add(1)
		go collectEvents(events, out, &wg)
	}
	feedOverIngest(t, ctx, srv, clients["1"], id)
	if err := clients["1"].DeleteSession(ctx, id); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for tier, errs := range errsByTier {
		select {
		case err := <-errs:
			t.Fatalf("tier %s stream error: %v", tier, err)
		default:
		}
	}

	counts := map[string]map[string]int{}
	for tier, evs := range streams {
		counts[tier] = countByType(*evs)
		if n := counts[tier]["drop"]; n != 0 {
			t.Fatalf("tier %s saw %d drop events under deep queues", tier, n)
		}
	}
	// The diagnostic closures are T2-only; every tier sees the glyphs.
	for _, tier := range []string{"0", "1"} {
		if n := counts[tier]["stroke"]; n != 0 {
			t.Fatalf("tier %s leaked %d stroke diagnostics", tier, n)
		}
		if n := counts[tier]["tier"]; n != 0 {
			t.Fatalf("tier %s saw %d tier transitions under deep queues", tier, n)
		}
	}
	if counts["2"]["stroke"] == 0 {
		t.Fatal("tier 2 stream carried no stroke diagnostics")
	}
	if counts["0"]["glyph"] == 0 || counts["0"]["glyph"] != counts["2"]["glyph"] {
		t.Fatalf("glyphs not tier-invariant: %d (T0) vs %d (T2)", counts["0"]["glyph"], counts["2"]["glyph"])
	}
	// Point subsets: T0 ⊂ T1 = T2's points, with T0 genuinely decimated.
	points := map[string]map[string]int{}
	for tier, evs := range streams {
		points[tier] = map[string]int{}
		for _, ev := range *evs {
			if ev.Type == "point" {
				points[tier][pointKey(ev)]++
			}
		}
	}
	if len(points["0"]) == 0 {
		t.Fatal("tier 0 stream carried no points")
	}
	if c0, c1 := counts["0"]["point"], counts["1"]["point"]; c0*2 >= c1 {
		t.Fatalf("tier 0 not meaningfully decimated: %d of %d points", c0, c1)
	}
	subset := func(inner, outer map[string]int, name string) {
		for k, n := range inner {
			if outer[k] < n {
				t.Fatalf("%s: point %s appears %d times in the narrower stream, %d in the wider", name, k, n, outer[k])
			}
		}
	}
	subset(points["0"], points["1"], "T0 ⊆ T1")
	subset(points["1"], points["2"], "T1 ⊆ T2")
	subset(points["2"], points["1"], "T2 points = T1 points")
}

// rawStream GETs a stream URL and returns the whole body (the stream
// ends when the session closes).
func rawStream(t *testing.T, url string, accept string) ([]byte, error) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// TestTierT1ByteIdentity is the compatibility gate for the tiered
// fan-out: a stream negotiated with ?tier=1 is byte-for-byte the
// unnegotiated default stream, in both encodings, and neither carries
// any of the new tier-era event types.
func TestTierT1ByteIdentity(t *testing.T) {
	srv := tierServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	c := &Client{BaseURL: "http://" + srv.HTTPAddr()}
	run, _ := scenario(t)
	id, err := c.CreateSession(ctx, SessionSpec{ID: "tier-bytes", Sweep: perTagSweep(run)})
	if err != nil {
		t.Fatal(err)
	}
	stream := c.BaseURL + "/v1/sessions/" + id + "/stream"
	urls := map[string]string{
		"default-ndjson": stream,
		"tier1-ndjson":   stream + "?tier=1",
		"default-binary": stream + "?encoding=binary",
		"tier1-binary":   stream + "?encoding=binary&tier=1",
	}
	bodies := map[string][]byte{}
	errs := map[string]error{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for name, url := range urls {
		wg.Add(1)
		go func(name, url string) {
			defer wg.Done()
			b, err := rawStream(t, url, "")
			mu.Lock()
			bodies[name], errs[name] = b, err
			mu.Unlock()
		}(name, url)
	}
	// Give every subscriber time to attach before events flow; an attach
	// race would legitimately fork the streams at the front.
	deadline := time.Now().Add(10 * time.Second)
	for {
		sess, ok := srv.reg.Get(id)
		if !ok {
			t.Fatal("session vanished")
		}
		if sess.Subscribers() == len(urls) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d subscribers attached", sess.Subscribers(), len(urls))
		}
		time.Sleep(5 * time.Millisecond)
	}
	feedOverIngest(t, ctx, srv, c, id)
	if err := c.DeleteSession(ctx, id); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for name, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if !bytes.Equal(bodies["default-ndjson"], bodies["tier1-ndjson"]) {
		t.Fatalf("?tier=1 NDJSON stream diverged from the default (%d vs %d bytes)",
			len(bodies["tier1-ndjson"]), len(bodies["default-ndjson"]))
	}
	if !bytes.Equal(bodies["default-binary"], bodies["tier1-binary"]) {
		t.Fatalf("?tier=1 binary stream diverged from the default (%d vs %d bytes)",
			len(bodies["tier1-binary"]), len(bodies["default-binary"]))
	}
	if len(bodies["default-ndjson"]) == 0 || len(bodies["default-binary"]) == 0 {
		t.Fatal("empty stream bodies")
	}
	// The default stream must not have grown any tier-era event types.
	for _, line := range strings.Split(strings.TrimSpace(string(bodies["default-ndjson"])), "\n") {
		var ev Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		switch ev.Type {
		case "tier", "stroke":
			t.Fatalf("tier-era event %q leaked into the default stream", ev.Type)
		}
	}
	er := NewEventReader(bytes.NewReader(bodies["default-binary"]))
	for {
		ev, err := er.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		switch ev.Type {
		case "tier", "stroke":
			t.Fatalf("tier-era event %q leaked into the default binary stream", ev.Type)
		}
	}
}

// TestTierEventJSONShape pins the new control/diagnostic events' JSON:
// no phantom "x":0,"z":0 (they are not positions), while the frozen
// point shape marshals exactly as before the tier refactor.
func TestTierEventJSONShape(t *testing.T) {
	cases := []struct {
		ev   Event
		want string
	}{
		{Event{Type: "tier", Tier: 1, FromTier: 2, Reason: "backlog"},
			`{"type":"tier","tier":1,"from":2,"reason":"backlog"}`},
		{Event{Type: "tier", Tier: 1, FromTier: 0},
			`{"type":"tier","tier":1,"from":0}`},
		{Event{Type: "stroke", Tag: "pen", T: 5 * time.Millisecond, Points: 9},
			`{"type":"stroke","tag":"pen","t_ns":5000000,"points":9}`},
		{Event{Type: "point", Tag: "pen", T: time.Millisecond, Confidence: 0.5},
			`{"type":"point","tag":"pen","t_ns":1000000,"x":0,"z":0,"confidence":0.5}`},
		{Event{Type: "end"},
			`{"type":"end","x":0,"z":0}`},
	}
	for _, tc := range cases {
		got, err := json.Marshal(&tc.ev)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.want {
			t.Fatalf("event %+v marshaled to %s, want %s", tc.ev, got, tc.want)
		}
	}
}

// TestTierForcedDowngrade drives the adaptive policy deterministically:
// a Tier2 subscriber whose queue fill crosses the downgrade threshold
// steps down tier by tier, each transition announced in-stream as a
// "tier" event, recorded on the session timeline and in the metrics,
// with the stream continuing gaplessly at the reduced tier — and steps
// back up after sustained calm. Every event is broadcast and then
// flushed synchronously, so each is one delivery and every retune sees
// exactly the queue the previous delivery left.
func TestTierForcedDowngrade(t *testing.T) {
	run, _ := scenario(t)
	reg := testRegistry(t, RegistryConfig{})
	downgradesBefore := reg.metrics.TierDowngrades.Load()
	sess, err := reg.Open(SessionSpec{ID: "tier-downgrade", Sweep: perTagSweep(run)})
	if err != nil {
		t.Fatal(err)
	}
	const buffer = 16
	sub, err := sess.Subscribe(SubscribeOptions{Tier: Tier2, Buffer: buffer})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	deliver := func(ev Event) {
		sess.emitMu.Lock()
		defer sess.emitMu.Unlock()
		sess.broadcastLocked(ev)
		sess.flushEmitLocked()
	}
	// queued takes what the subscriber's queue holds without blocking,
	// expanding its batches.
	queued := func() []Event {
		var out []Event
		for {
			select {
			case b, ok := <-sub.ch:
				if !ok {
					t.Fatal("subscriber queue closed")
				}
				out = append(out, b.events...)
			default:
				return out
			}
		}
	}
	if got := sub.Tier(); got != 2 {
		t.Fatalf("negotiated tier = %d, want 2", got)
	}
	point := func(i int, minTier uint8) Event {
		return Event{
			Type: "point", Tag: "pen", T: time.Duration(i) * time.Millisecond,
			X: float64(i), Z: -float64(i), minTier: minTier,
		}
	}
	// Fill to the downgrade threshold without consuming: the retune at
	// each delivery sees fill (i-1)/16, so broadcasts 13 and 14 cross
	// 0.75 twice — 2→1 then 1→0 — and queue exactly: 12 points, a tier
	// event, 1 point, a tier event, 1 T0 point (the T1-only point after
	// the second downgrade is filtered, not dropped).
	for i := 1; i <= 13; i++ {
		deliver(point(i, 1))
	}
	deliver(point(14, 1))
	deliver(point(15, 0))

	got := queued()
	types := make([]string, len(got))
	for i, ev := range got {
		types[i] = ev.Type
	}
	want := []string{
		"point", "point", "point", "point", "point", "point",
		"point", "point", "point", "point", "point", "point",
		"tier", "point", "tier", "point",
	}
	if strings.Join(types, ",") != strings.Join(want, ",") {
		t.Fatalf("stream sequence %v, want %v", types, want)
	}
	if tr := got[12]; tr.Tier != 1 || tr.FromTier != 2 || tr.Reason != "backlog" {
		t.Fatalf("first transition %+v, want 2->1 (backlog)", tr)
	}
	if tr := got[14]; tr.Tier != 0 || tr.FromTier != 1 || tr.Reason != "backlog" {
		t.Fatalf("second transition %+v, want 1->0 (backlog)", tr)
	}
	if got[15].X != 15 {
		t.Fatalf("post-downgrade stream not gapless: got point %+v, want X=15", got[15])
	}
	if sub.Drops() != 0 {
		t.Fatalf("downgrade path dropped %d events", sub.Drops())
	}
	if got := sub.Tier(); got != 0 {
		t.Fatalf("tier after downgrades = %d, want 0", got)
	}
	if n := sub.Downgrades(); n != 2 {
		t.Fatalf("subscriber downgrades = %d, want 2", n)
	}
	if n := sess.TierDowngrades(); n != 2 {
		t.Fatalf("session downgrades = %d, want 2", n)
	}
	if n := reg.metrics.TierDowngrades.Load() - downgradesBefore; n != 2 {
		t.Fatalf("metrics downgrades moved %d, want 2", n)
	}
	if n := reg.metrics.TierSubscribers[0].Load(); n < 1 {
		t.Fatalf("tier-0 subscriber gauge = %d, want >= 1", n)
	}
	transitions := 0
	for _, ev := range sess.Events() {
		if ev.Type == obs.EventTierChange {
			transitions++
		}
	}
	if transitions != 2 {
		t.Fatalf("timeline recorded %d tier changes, want 2", transitions)
	}

	// Sustained calm steps back up: with the queue drained at every
	// delivery, upgradeAfterCalm calm deliveries earn one step.
	var upgrades []Event
	for i := 0; i < 3*upgradeAfterCalm+6; i++ {
		deliver(point(100+i, 0))
		for _, ev := range queued() {
			if ev.Type == "tier" {
				upgrades = append(upgrades, ev)
			}
		}
	}
	if len(upgrades) != 2 {
		t.Fatalf("calm phase produced %d transitions, want 2 (0->1->2): %+v", len(upgrades), upgrades)
	}
	if upgrades[0].Tier != 1 || upgrades[0].FromTier != 0 || upgrades[0].Reason != "recovered" {
		t.Fatalf("first upgrade %+v, want 0->1 (recovered)", upgrades[0])
	}
	if upgrades[1].Tier != 2 || upgrades[1].FromTier != 1 {
		t.Fatalf("second upgrade %+v, want 1->2", upgrades[1])
	}
	if got := sub.Tier(); got != 2 {
		t.Fatalf("tier after recovery = %d, want the negotiated 2", got)
	}
}

// TestStreamTierNegotiation pins the HTTP-layer tier parsing: a bad
// ?tier is a 400 with the standard envelope, and the client validates
// its Tier field before dialing.
func TestStreamTierNegotiation(t *testing.T) {
	srv := tierServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c := &Client{BaseURL: "http://" + srv.HTTPAddr()}
	run, _ := scenario(t)
	id, err := c.CreateSession(ctx, SessionSpec{ID: "tier-negotiate", Sweep: perTagSweep(run)})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(c.BaseURL + "/v1/sessions/" + id + "/stream?tier=3")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("?tier=3 answered %d, want 400", resp.StatusCode)
	}
	var env errorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != "bad_request" {
		t.Fatalf("?tier=3 error code %q, want bad_request", env.Error.Code)
	}
	bad := &Client{BaseURL: c.BaseURL, Tier: "fast"}
	if _, _, err := bad.Subscribe(ctx, id); err == nil {
		t.Fatal("client accepted tier \"fast\"")
	}
}
