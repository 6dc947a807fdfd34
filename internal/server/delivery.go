package server

import (
	"encoding/json"
	"errors"
	"iter"
	"math"
	"slices"
	"strconv"
	"time"

	"rfidraw/internal/engine"
	"rfidraw/internal/geom"
	"rfidraw/internal/obs"
	"rfidraw/internal/recognition"
)

// Event is one item of a session's live output stream, serialized as one
// NDJSON line per event on the streaming API.
type Event struct {
	// Type is "point" (a trace point), "glyph" (a recognized stroke),
	// "drop" (the subscriber's queue overflowed and lost N events),
	// "tier" (the subscriber's trace tier changed — adaptive downgrade
	// or recovery), "stroke" (a T2 diagnostic: a stroke closed) or
	// "end" (the session closed; the stream ends after it).
	Type string `json:"type"`
	// Tag identifies the writer (EPC hex) for points and glyphs.
	Tag string `json:"tag,omitempty"`
	// T is the sample's stream time in nanoseconds (points, glyphs).
	T time.Duration `json:"t_ns,omitempty"`
	// X, Z are writing-plane coordinates in metres (points).
	X float64 `json:"x"`
	Z float64 `json:"z"`
	// Glyph is the recognized letter; Dist and Margin carry the DTW
	// classification confidence; Points is the stroke's sample count.
	Glyph  string  `json:"glyph,omitempty"`
	Dist   float64 `json:"dist,omitempty"`
	Margin float64 `json:"margin,omitempty"`
	Points int     `json:"points,omitempty"`
	// Confidence is the leading hypothesis's running mean vote at this
	// point (≤ 0, nearer 0 is better; it collapses on tracking loss),
	// Hypotheses how many candidate hypotheses are still active, and
	// Switched whether leadership changed here — the cursor may jump, so
	// stroke-building consumers should treat it as a pen lift (points).
	Confidence float64 `json:"confidence,omitempty"`
	Hypotheses int     `json:"hypotheses,omitempty"`
	Switched   bool    `json:"switched,omitempty"`
	// Seq, on points delivered by a WAL catch-up replay, is the log
	// sequence number of the report that produced the point; live points
	// omit it. ?from=seq catch-up requests are addressed in this space.
	Seq uint64 `json:"seq,omitempty"`
	// Dropped is how many events the subscriber lost (drop events).
	Dropped int `json:"dropped,omitempty"`
	// Tier and FromTier carry a tier transition (tier events): the
	// subscriber now receives Tier, having received FromTier. Reason is
	// "backlog" (adaptive downgrade) or "recovered" (hysteresis-gated
	// upgrade back toward the negotiated tier).
	Tier     int    `json:"tier,omitempty"`
	FromTier int    `json:"from,omitempty"`
	Reason   string `json:"reason,omitempty"`

	// minTier is the lowest trace tier that includes this event (0 ⊆ 1 ⊆
	// 2): 0 = dashboard-grade (thinned points, glyphs, end), 1 = the full
	// default stream, 2 = diagnostic detail only T2 subscribers see. The
	// emitter classifies it once where the event is produced; delivery
	// passes the event to every subscriber whose tier >= minTier.
	// Unexported: invisible on the wire.
	minTier uint8
}

// MarshalJSON encodes the event as its NDJSON line without the newline
// (see appendNDJSON), in one allocation. It fails only for an event with
// a NaN or infinite float, which JSON cannot carry.
func (ev Event) MarshalJSON() ([]byte, error) {
	b := appendNDJSON(make([]byte, 0, ndjsonEventBytes), &ev)
	if len(b) == 0 {
		return nil, errors.New("server: event " + strconv.Quote(ev.Type) + " has a NaN or infinite float")
	}
	return b[:len(b)-1], nil
}

// appendNDJSON appends ev's NDJSON line to dst, byte-identical to what
// json.Encoder.Encode wrote when Event marshaled by reflection (pinned by
// TestEventNDJSONMatchesEncodingJSON and FuzzEventNDJSON). Point, glyph,
// drop and end events, and any other type, take the plain shape: every
// field under its tag, in declaration order, with the omitempty rules.
// The control and diagnostic events take compact shapes: a "tier" event
// never serializes the x/z plane coordinates a point carries and keeps
// its "tier" field even at tier 0, and a "stroke" event carries only its
// tag, time and point count. An event with a NaN or infinite float in a
// field its shape encodes appends nothing, as encoding/json refuses it.
func appendNDJSON(dst []byte, ev *Event) []byte {
	switch ev.Type {
	case "tier":
		dst = append(dst, `{"type":"tier","tier":`...)
		dst = strconv.AppendInt(dst, int64(ev.Tier), 10)
		dst = append(dst, `,"from":`...)
		dst = strconv.AppendInt(dst, int64(ev.FromTier), 10)
		if ev.Reason != "" {
			dst = append(dst, `,"reason":`...)
			dst = appendJSONString(dst, ev.Reason)
		}
		return append(dst, '}', '\n')
	case "stroke":
		dst = append(dst, `{"type":"stroke"`...)
		if ev.Tag != "" {
			dst = append(dst, `,"tag":`...)
			dst = appendJSONString(dst, ev.Tag)
		}
		if ev.T != 0 {
			dst = append(dst, `,"t_ns":`...)
			dst = strconv.AppendInt(dst, int64(ev.T), 10)
		}
		if ev.Points != 0 {
			dst = append(dst, `,"points":`...)
			dst = strconv.AppendInt(dst, int64(ev.Points), 10)
		}
		return append(dst, '}', '\n')
	}
	// A non-finite float is never zero, so omitempty never hides one.
	if !finite(ev.X) || !finite(ev.Z) || !finite(ev.Dist) || !finite(ev.Margin) || !finite(ev.Confidence) {
		return dst
	}
	dst = append(dst, `{"type":`...)
	dst = appendJSONString(dst, ev.Type)
	if ev.Tag != "" {
		dst = append(dst, `,"tag":`...)
		dst = appendJSONString(dst, ev.Tag)
	}
	if ev.T != 0 {
		dst = append(dst, `,"t_ns":`...)
		dst = strconv.AppendInt(dst, int64(ev.T), 10)
	}
	dst = append(dst, `,"x":`...)
	dst = appendJSONFloat(dst, ev.X)
	dst = append(dst, `,"z":`...)
	dst = appendJSONFloat(dst, ev.Z)
	if ev.Glyph != "" {
		dst = append(dst, `,"glyph":`...)
		dst = appendJSONString(dst, ev.Glyph)
	}
	if ev.Dist != 0 {
		dst = append(dst, `,"dist":`...)
		dst = appendJSONFloat(dst, ev.Dist)
	}
	if ev.Margin != 0 {
		dst = append(dst, `,"margin":`...)
		dst = appendJSONFloat(dst, ev.Margin)
	}
	if ev.Points != 0 {
		dst = append(dst, `,"points":`...)
		dst = strconv.AppendInt(dst, int64(ev.Points), 10)
	}
	if ev.Confidence != 0 {
		dst = append(dst, `,"confidence":`...)
		dst = appendJSONFloat(dst, ev.Confidence)
	}
	if ev.Hypotheses != 0 {
		dst = append(dst, `,"hypotheses":`...)
		dst = strconv.AppendInt(dst, int64(ev.Hypotheses), 10)
	}
	if ev.Switched {
		dst = append(dst, `,"switched":true`...)
	}
	if ev.Seq != 0 {
		dst = append(dst, `,"seq":`...)
		dst = strconv.AppendUint(dst, ev.Seq, 10)
	}
	if ev.Dropped != 0 {
		dst = append(dst, `,"dropped":`...)
		dst = strconv.AppendInt(dst, int64(ev.Dropped), 10)
	}
	if ev.Tier != 0 {
		dst = append(dst, `,"tier":`...)
		dst = strconv.AppendInt(dst, int64(ev.Tier), 10)
	}
	if ev.FromTier != 0 {
		dst = append(dst, `,"from":`...)
		dst = strconv.AppendInt(dst, int64(ev.FromTier), 10)
	}
	if ev.Reason != "" {
		dst = append(dst, `,"reason":`...)
		dst = appendJSONString(dst, ev.Reason)
	}
	return append(dst, '}', '\n')
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// appendJSONFloat appends f as encoding/json writes a float64: the
// shortest decimal that round-trips, in exponent form below 1e-6 and
// from 1e21 up, with a one-digit negative exponent unpadded (1e-7, not
// 1e-07).
func appendJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// appendJSONString appends s as a JSON string. Printable ASCII is copied
// as is, but for the five characters encoding/json escapes there ('"',
// '\\', and the HTML-sensitive '<', '>' and '&'); a string with any of
// those, a control byte or a non-ASCII byte goes through encoding/json,
// whose escaping (invalid UTF-8 as U+FFFD, U+2028 and U+2029 as \u
// escapes) the stream has always had. Tags, glyph letters and reasons
// the daemon makes never take that path.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(dst, q...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// eventBatch is one subscriber queue item: n consecutive events, built
// in each form a subscriber it reaches consumes. A group commit builds
// one per tier and every subscriber at that tier shares it; a catch-up
// replay builds one per replayed log record that yields events, and a
// drop, tier or end notice is a batch of one. Immutable once queued.
type eventBatch struct {
	n int
	// enq is when the batch's oldest event joined the group-commit buffer
	// (obs monotonic nanos; 0 for batches built outside it): the stream
	// writer observes the queue-to-wire stage from it.
	enq int64
	// ndjson is the batch as newline-terminated NDJSON lines
	// (byte-identical to what json.Encoder.Encode writes per event).
	ndjson []byte
	// binary is the batch as CRC-framed binary event frames (see
	// eventwire.go).
	binary []byte
	// events is the batch decoded, for in-process subscribers.
	events []Event
}

// add appends one event to the batch in the form enc.
func (b *eventBatch) add(ev Event, enc subEncoding) {
	b.n++
	switch enc {
	case encNDJSON:
		b.ndjson = appendNDJSON(b.ndjson, &ev)
	case encBinary:
		b.binary = appendEventFrame(b.binary, &ev)
	default:
		ev.minTier = 0
		b.events = append(b.events, ev)
	}
}

// notice builds the one-event batch that carries a drop, tier or end
// notice to a subscriber served in the form enc.
func notice(ev Event, enc subEncoding) *eventBatch {
	b := &eventBatch{}
	b.add(ev, enc)
	return b
}

// subEncoding is the form a subscriber's batches reach it in: decoded
// events (the zero value, for in-process consumers) or one of the wire
// encodings a stream writer forwards as shared pre-encoded bytes.
type subEncoding uint8

const (
	encDecoded subEncoding = iota
	encNDJSON
	encBinary
)

// Subscriber is one attached consumer of a session's event stream.
type Subscriber struct {
	sess *Session
	// ch is the bounded delivery queue; every item is a batch in the
	// subscriber's form (see eventBatch).
	ch  chan *eventBatch
	enc subEncoding
	// rest is the undelivered tail of the batch Events was expanding
	// when its consumer stopped; only the consumer goroutine touches it.
	rest []Event
	// pendingDrops counts events lost since the last successfully
	// delivered drop notice; guarded by the session's emitMu.
	pendingDrops int
	drops        int64

	// Tier state (guarded by the session's emitMu). tier is the trace
	// tier currently served; maxTier is what the subscriber negotiated at
	// attach — adaptive downgrade steps tier below maxTier under backlog
	// and hysteresis steps it back up, never past maxTier. calmFlushes
	// counts consecutive deliveries with the backlog below the upgrade
	// threshold; downgrades counts adaptive steps down.
	tier        uint8
	maxTier     uint8
	calmFlushes int
	downgrades  int64

	// Catch-up state (all guarded by the session's emitMu). While
	// catchingUp, live batches are parked in pending (bounded, drop-oldest)
	// and the WAL replay goroutine owns ch: it delivers the replayed
	// prefix, splices pending, and is the one closer of ch. cancel (only
	// set on catch-up subscribers) tells that goroutine to stop.
	catchingUp bool
	pending    []*eventBatch
	cancel     chan struct{}
}

// Events yields the subscriber's events in order until its queue closes,
// when the session ends or the subscriber detaches. The queue carries
// batches; Events expands them, so the consumer sees one event at a
// time. A consumer that stops early resumes where it left off on its
// next call. One consumer goroutine at a time.
func (sub *Subscriber) Events() iter.Seq[Event] {
	return func(yield func(Event) bool) {
		for {
			for len(sub.rest) > 0 {
				ev := sub.rest[0]
				sub.rest = sub.rest[1:]
				if !yield(ev) {
					return
				}
			}
			b, ok := <-sub.ch
			if !ok {
				return
			}
			sub.rest = b.events
		}
	}
}

// Drops reports how many events this subscriber has lost to the
// slow-consumer policy.
func (sub *Subscriber) Drops() int64 {
	sub.sess.emitMu.Lock()
	defer sub.sess.emitMu.Unlock()
	return sub.drops
}

// Tier reports the trace tier the subscriber is currently served at
// (0..2); it can sit below the negotiated tier while the adaptive
// downgrade policy has it stepped down.
func (sub *Subscriber) Tier() int {
	sub.sess.emitMu.Lock()
	defer sub.sess.emitMu.Unlock()
	return int(sub.tier)
}

// Downgrades reports how many adaptive tier step-downs this subscriber
// has taken.
func (sub *Subscriber) Downgrades() int64 {
	sub.sess.emitMu.Lock()
	defer sub.sess.emitMu.Unlock()
	return sub.downgrades
}

// Close detaches the subscriber from its session. Safe to call more than
// once and after the session closed.
func (sub *Subscriber) Close() { sub.sess.detach(sub) }

// SubscribeTier names the trace tier a subscriber negotiates at attach.
type SubscribeTier int

const (
	// Tier1 is the full default stream; it is the zero value.
	Tier1 SubscribeTier = iota
	// Tier0 is the dashboard-grade stream: thinned positions plus glyphs
	// and the end marker.
	Tier0
	// Tier2 is T1 plus the diagnostic detail events (stroke closures).
	Tier2
)

// level maps the negotiated tier onto the internal 0..2 tier space.
func (t SubscribeTier) level() uint8 {
	switch t {
	case Tier0:
		return 0
	case Tier2:
		return 2
	}
	return 1
}

// Adaptive downgrade policy: a subscriber whose queue fill crosses
// downgradeBacklog at a delivery steps down one tier (shedding stream
// weight instead of dropping events); a fill at or below upgradeBacklog
// for upgradeAfterCalm consecutive deliveries steps back up toward the
// negotiated tier. The wide hysteresis band keeps a consumer hovering
// near its capacity from flapping.
const (
	downgradeBacklog = 0.75
	upgradeBacklog   = 0.25
	upgradeAfterCalm = 64
)

// SubscribeOptions configures a subscriber attach.
type SubscribeOptions struct {
	// Buffer bounds the delivery queue in batches (see eventBatch); <= 0
	// takes the registry default.
	Buffer int
	// Tier selects the trace tier (T0 decimated / T1 full / T2
	// diagnostic); the zero value is T1, today's stream exactly. Slow
	// subscribers are adaptively stepped below the negotiated tier and
	// back (see the downgrade policy constants), each transition
	// announced in-stream as a "tier" event.
	Tier SubscribeTier
	// encoding is the wire encoding a stream writer forwards; only the
	// HTTP stream handler sets it. In-process subscribers keep the zero
	// value and read decoded events from Events.
	encoding subEncoding
}

// Subscribe attaches a bounded-queue consumer to the session's live
// stream. Subscribers beyond the per-session cap are refused (load
// shedding, HTTP 503 upstream), as are attaches to a session that is no
// longer live.
func (s *Session) Subscribe(o SubscribeOptions) (*Subscriber, error) {
	sub := s.newSubscriber(o, false)
	s.emitMu.Lock()
	defer s.emitMu.Unlock()
	if err := s.attachLocked(sub); err != nil {
		return nil, err
	}
	return sub, nil
}

// newSubscriber builds a subscriber from its options; a catch-up
// subscriber starts parked behind its WAL replay (see SubscribeFrom).
func (s *Session) newSubscriber(o SubscribeOptions, catchup bool) *Subscriber {
	buffer := o.Buffer
	if buffer <= 0 {
		buffer = s.reg.cfg.SubscriberQueue
	}
	tier := o.Tier.level()
	sub := &Subscriber{sess: s, ch: make(chan *eventBatch, buffer), enc: o.encoding, tier: tier, maxTier: tier}
	if catchup {
		sub.catchingUp, sub.cancel = true, make(chan struct{})
	}
	return sub
}

// attachLocked is the one admission check every subscriber passes, made
// at the moment of attach. It admits only a live session, or a recovered
// one for a catch-up subscriber (it serves its record), and sheds past
// the subscriber cap, counting the refusal and putting it on the
// timeline. Anything already buffered for group commit predates the
// attach — and, for a catch-up attach made under the ingest lock right
// after a drain, is covered by the WAL head the subscriber replays from
// — so it is flushed to the existing subscribers first: the newcomer's
// stream starts strictly at its attach point. Requires emitMu.
func (s *Session) attachLocked(sub *Subscriber) error {
	if st := s.lifecycle(); st != stateLive && !(sub.catchingUp && st == stateRecovered) {
		return ErrSessionClosed
	}
	if len(s.subs) >= s.reg.cfg.MaxSubscribers {
		s.reg.metrics.Shed.Add(1)
		s.timeline.Record(obs.EventShed, "subscriber limit "+strconv.Itoa(s.reg.cfg.MaxSubscribers))
		return ErrSubscriberLimit
	}
	s.flushEmitLocked()
	s.subs[sub] = struct{}{}
	s.updateEmitPaceLocked()
	s.reg.metrics.SubscribersActive.Add(1)
	s.reg.metrics.TierSubscribers[sub.tier].Add(1)
	s.touch()
	return nil
}

// detachLocked removes a subscriber and ends its queue exactly once. A
// subscriber still catching up is signalled instead: its replay
// goroutine owns the queue and closes it on the way out. Requires
// emitMu.
func (s *Session) detachLocked(sub *Subscriber) {
	delete(s.subs, sub)
	s.updateEmitPaceLocked()
	s.reg.metrics.SubscribersActive.Add(-1)
	s.reg.metrics.TierSubscribers[sub.tier].Add(-1)
	if sub.catchingUp {
		close(sub.cancel)
		return
	}
	close(sub.ch)
}

// updateEmitPaceLocked re-derives the loop's accumulation window from
// the subscriber count. Requires emitMu.
func (s *Session) updateEmitPaceLocked() {
	pace := time.Duration(len(s.subs)) * emitPacePerSub
	if pace > emitPaceMax {
		pace = emitPaceMax
	}
	s.emitPace.Store(int64(pace))
}

// maybeRetuneTierLocked applies the adaptive tier policy to one
// subscriber at a delivery: a backlog past the downgrade threshold steps
// it down a tier immediately (the next batch is already encoded for the
// cheaper tier), a sustained calm backlog steps it back up toward the
// tier it negotiated. Requires emitMu.
func (s *Session) maybeRetuneTierLocked(sub *Subscriber) {
	fill := float64(len(sub.ch)) / float64(cap(sub.ch))
	switch {
	case fill >= downgradeBacklog && sub.tier > 0:
		s.setTierLocked(sub, sub.tier-1, "backlog")
	case fill <= upgradeBacklog && sub.tier < sub.maxTier:
		if sub.calmFlushes++; sub.calmFlushes >= upgradeAfterCalm {
			s.setTierLocked(sub, sub.tier+1, "recovered")
		}
	default:
		sub.calmFlushes = 0
	}
}

// setTierLocked moves a subscriber to a new tier: the transition is
// announced in-stream as a "tier" notice, recorded on the session timeline,
// exported as metrics, and counted into the session's fan-out pressure
// signal for the cost meter. Requires emitMu.
func (s *Session) setTierLocked(sub *Subscriber, tier uint8, reason string) {
	from := sub.tier
	if tier == from {
		return
	}
	sub.tier = tier
	sub.calmFlushes = 0
	s.reg.metrics.TierSubscribers[from].Add(-1)
	s.reg.metrics.TierSubscribers[tier].Add(1)
	if tier < from {
		sub.downgrades++
		s.tierDowngrades.Add(1)
		s.reg.metrics.TierDowngrades.Add(1)
	} else {
		s.reg.metrics.TierUpgrades.Add(1)
	}
	s.timeline.Record(obs.EventTierChange,
		"tier "+strconv.Itoa(int(from))+"->"+strconv.Itoa(int(tier))+" ("+reason+")")
	s.sendLocked(sub, notice(Event{Type: "tier", Tier: int(tier), FromTier: int(from), Reason: reason}, sub.enc))
}

// TierDowngrades reports the session's cumulative adaptive tier
// step-downs across all its subscribers.
func (s *Session) TierDowngrades() int64 { return s.tierDowngrades.Load() }

// detach removes a subscriber (Subscriber.Close): idempotent, and a
// no-op once the session swept its subscribers.
func (s *Session) detach(sub *Subscriber) {
	s.emitMu.Lock()
	defer s.emitMu.Unlock()
	if _, ok := s.subs[sub]; ok {
		s.detachLocked(sub)
	}
}

// Subscribers reports the attached consumer count.
func (s *Session) Subscribers() int {
	s.emitMu.Lock()
	defer s.emitMu.Unlock()
	return len(s.subs)
}

// onUpdate receives live positions from engine shard goroutines and
// runs them through the session's emitter.
func (s *Session) onUpdate(u engine.Update) {
	now := obs.Now()
	if rel := s.lastRelease.Swap(0); rel > 0 {
		s.reg.pipeline.ObserveStage(obs.StageEmit, now-rel, s.stripe)
	}
	if arr := s.lastArrival.Swap(0); arr > 0 {
		s.reg.pipeline.ObserveE2E(now-arr, s.stripe)
	}
	if s.openSpan.Load() != nil {
		s.spanMu.Lock()
		if sp := s.openSpan.Swap(nil); sp != nil {
			// Stamp after taking the span: it may have been published
			// after now was read, and must not end before it began.
			end := obs.Now()
			sp.EmitNs = end - sp.Release
			sp.TotalNs = end - sp.Arrival
			s.spans.Add(*sp)
		}
		s.spanMu.Unlock()
	}
	s.emitMu.Lock()
	defer s.emitMu.Unlock()
	s.em.update(u)
}

// emitLocked is the live emitter's output: it counts points and glyphs,
// puts leadership switches on the timeline and queues the event for the
// subscribers. Requires emitMu.
func (s *Session) emitLocked(ev Event) {
	switch ev.Type {
	case "point":
		s.points.Add(1)
		s.reg.metrics.Points.Add(1)
		if ev.Switched {
			s.timeline.Record(obs.EventLeaderSwitch, "tag="+ev.Tag)
		}
	case "glyph":
		s.glyphs.Add(1)
		s.reg.metrics.Glyphs.Add(1)
	}
	s.broadcastLocked(ev)
}

// emitter turns engine updates into the events a session serves. Per tag
// it keeps the open stroke, thins T0 points per stroke, closes the
// stroke on a silence gap, a leadership switch or a drain, and
// recognizes the closed stroke's glyph; each event goes to emit with its
// minTier set. The live session runs one under emitMu, and every
// catch-up replay runs a private one over the log, so a catch-up carries
// exactly the live events of its tier.
type emitter struct {
	rec     *recognition.Recognizer // nil: no glyphs
	emit    func(Event)
	strokes map[string]*stroke
}

// stroke is one tag's open stroke: its points so far and the stream time
// of the last.
type stroke struct {
	pts  []geom.Vec2
	last time.Duration
}

func newEmitter(rec *recognition.Recognizer, emit func(Event)) *emitter {
	return &emitter{rec: rec, emit: emit, strokes: map[string]*stroke{}}
}

// Glyph segmentation: glyphGap of stream-time silence ends a stroke and
// triggers recognition; strokes shorter than glyphMinPoints are not
// worth classifying.
const (
	glyphGap       = 400 * time.Millisecond
	glyphMinPoints = 8
)

// t0DecimateEvery is T0's point thinning factor: one point in this many
// per stroke, always including the first, reaches the T0 stream.
const t0DecimateEvery = 8

// update emits one tag's new positions as point events.
func (e *emitter) update(u engine.Update) {
	st := e.strokes[u.Tag]
	if st == nil {
		st = &stroke{}
		e.strokes[u.Tag] = st
	}
	for _, p := range u.Positions {
		// A leadership switch re-bases the trajectory on a different
		// hypothesis; the jump is not pen movement, so close the stroke.
		if len(st.pts) > 0 && (p.Time-st.last > glyphGap || p.Switched) {
			e.close(u.Tag, st)
		}
		st.pts = append(st.pts, p.Pos)
		st.last = p.Time
		// Thinning per stroke, from its first point, lets a T0 dashboard
		// still draw every stroke's shape at ~1/8 the point weight.
		minTier := uint8(1)
		if len(st.pts)%t0DecimateEvery == 1 {
			minTier = 0
		}
		e.emit(Event{
			Type: "point", Tag: u.Tag, T: p.Time, X: p.Pos.X, Z: p.Pos.Z,
			Confidence: p.Confidence, Hypotheses: p.Hypotheses, Switched: p.Switched,
			minTier: minTier,
		})
	}
}

// closeStrokes closes every open stroke: a drain boundary. It goes in
// tag order, so every replay of a record emits the closures alike.
func (e *emitter) closeStrokes() {
	open := make([]string, 0, len(e.strokes))
	for tag, st := range e.strokes {
		if len(st.pts) > 0 {
			open = append(open, tag)
		}
	}
	slices.Sort(open)
	for _, tag := range open {
		e.close(tag, e.strokes[tag])
	}
}

// close ends one tag's non-empty stroke: a T2 diagnostic "stroke" event
// on every closure, then a glyph event when the stroke is long enough to
// classify and recognition is on. The tag's next stroke reuses the
// buffer, as nothing here keeps pts (Classify does not).
func (e *emitter) close(tag string, st *stroke) {
	pts, last := st.pts, st.last
	st.pts, st.last = pts[:0], 0
	e.emit(Event{Type: "stroke", Tag: tag, T: last, Points: len(pts), minTier: 2})
	if len(pts) < glyphMinPoints || e.rec == nil {
		return
	}
	cls, err := e.rec.Classify(pts)
	if err != nil {
		return
	}
	e.emit(Event{
		Type: "glyph", Tag: tag, T: last,
		Glyph: string(cls.Rune), Dist: cls.Distance, Margin: cls.Margin,
		Points: len(pts),
	})
}

// broadcastLocked queues an event for every subscriber: it joins the
// group-commit buffer, and the session loop delivers it with the rest of
// its batch (see flushEmitLocked), turning O(events × subscribers)
// channel operations into O(batches × subscribers). The emitting
// goroutine only flushes inline when the backlog tops emitBatchMax.
// Requires emitMu.
func (s *Session) broadcastLocked(ev Event) {
	if len(s.subs) == 0 {
		return
	}
	if len(s.emitBuf) == 0 {
		s.emitEnq = obs.Now()
	}
	s.emitBuf = append(s.emitBuf, ev)
	if len(s.emitBuf) >= emitBatchMax {
		s.flushEmitLocked()
		return
	}
	select {
	case s.emitKick <- struct{}{}:
	default:
	}
}

// emitBatchMax bounds the group-commit backlog: past this many buffered
// events the emitting goroutine flushes inline rather than let the
// buffer grow while the loop is behind.
const emitBatchMax = 1024

// Fan-out pacing: each flush bills every subscriber roughly a goroutine
// wake plus (for a stream writer) a socket write, so the loop's
// accumulation window scales with the subscriber count (emitPacePerSub
// each), capped at emitPaceMax so a wide fan-out still sees fresh data,
// and windows under emitPaceMin are skipped entirely — small fan-outs
// keep today's flush-every-event latency.
const (
	emitPacePerSub = 30 * time.Microsecond
	emitPaceMin    = 250 * time.Microsecond
	emitPaceMax    = 30 * time.Millisecond
)

// flushEmitLocked group-commits the buffered events per tier: each
// drained batch is built at most once per (tier, form) some subscriber
// is actually served at — NDJSON and binary for stream writers, decoded
// events for in-process subscribers; unsubscribed tiers and forms cost
// nothing. Each event is encoded once per encoding, straight into the
// first tier's batch that includes it, and the other tiers copy those
// bytes (tiers differ only in which events they include, never in an
// event's bytes, so T1's byte-run stays byte-identical to the pre-tier
// stream). Every buffer is sized once from the count of events its tier
// includes, so a flush allocates its eventBatch and one buffer per tier
// and form it builds, whatever the event count (TestFlushEmitAllocs).
// Every subscriber at a tier gets the same immutable batch. Requires
// emitMu; the tier retune, scan, encode and delivery share the one
// critical section, so a delivered batch always matches the tier and
// form of every subscriber it reaches.
func (s *Session) flushEmitLocked() {
	batch := s.emitBuf
	if len(batch) == 0 {
		return
	}
	s.emitBuf = s.emitSpare[:0]
	s.emitSpare = batch
	// Retune tiers first, so this batch is built for the tier each
	// subscriber will actually be served at, then collect per-tier demand.
	var need [3][3]bool // [tier][subEncoding]
	for sub := range s.subs {
		if !sub.catchingUp {
			s.maybeRetuneTierLocked(sub)
		}
		need[sub.tier][sub.enc] = true
	}
	// reach[t] counts the events tier t includes (minTier <= t).
	var reach [3]int
	for i := range batch {
		reach[batch[i].minTier]++
	}
	reach[1] += reach[0]
	reach[2] += reach[1]
	// Each batch carries the OLDEST event's enqueue stamp, so the
	// write-stage histogram sees the worst queue-to-wire latency in the
	// batch, not the friendliest. A tier no event reaches (e.g. T0 over a
	// run of unthinned points) gets no batch and delivers nothing.
	var batches [3]*eventBatch
	for t, n := range reach {
		if need[t] == [3]bool{} || n == 0 {
			continue
		}
		b := &eventBatch{n: n, enq: s.emitEnq}
		if need[t][encNDJSON] {
			b.ndjson = make([]byte, 0, n*ndjsonEventBytes)
		}
		if need[t][encBinary] {
			b.binary = make([]byte, 0, n*binaryEventBytes)
		}
		if need[t][encDecoded] {
			b.events = make([]Event, 0, n)
		}
		batches[t] = b
	}
	for i := range batch {
		ev := &batch[i]
		// ev's bytes in the first batch that took them, per encoding.
		var js, bin []byte
		for t := int(ev.minTier); t < len(batches); t++ {
			b := batches[t]
			if b == nil {
				continue
			}
			if need[t][encNDJSON] {
				if js == nil {
					n := len(b.ndjson)
					b.ndjson = appendNDJSON(b.ndjson, ev)
					js = b.ndjson[n:]
				} else {
					b.ndjson = append(b.ndjson, js...)
				}
			}
			if need[t][encBinary] {
				if bin == nil {
					n := len(b.binary)
					b.binary = appendEventFrame(b.binary, ev)
					bin = b.binary[n:]
				} else {
					b.binary = append(b.binary, bin...)
				}
			}
			if need[t][encDecoded] {
				dec := *ev
				dec.minTier = 0
				b.events = append(b.events, dec)
			}
		}
	}
	for sub := range s.subs {
		b := batches[sub.tier]
		if b == nil {
			continue
		}
		if sub.catchingUp {
			s.parkLocked(sub, b)
			continue
		}
		s.sendLocked(sub, b)
	}
}

// Batch buffer sizing: flushEmitLocked reserves this many bytes per
// event in each encoding, room for the longest point or glyph the
// emitter makes (a 24-digit EPC tag and every number at its longest:
// 251 bytes of NDJSON, a 79-byte frame), so a flush allocates each
// buffer once. An event longer than that grows the buffer by append.
const (
	ndjsonEventBytes = 256
	binaryEventBytes = 80
)

// parkLocked holds a live batch for a subscriber still catching up: its
// queue belongs to the WAL replay goroutine until the splice, so live
// output parks in pending (bounded, drop-oldest) for delivery right
// after the replayed prefix. Requires emitMu.
func (s *Session) parkLocked(sub *Subscriber, b *eventBatch) {
	if len(sub.pending) >= cap(sub.ch) {
		s.dropLocked(sub, sub.pending[0].n)
		sub.pending = sub.pending[1:]
	}
	sub.pending = append(sub.pending, b)
}

// sendLocked delivers one batch to one subscriber queue with the
// drop-oldest policy and loss notices. Requires emitMu.
func (s *Session) sendLocked(sub *Subscriber, b *eventBatch) {
	// Owed drops are announced first, when the queue has room for the
	// notice (a full queue skips building one).
	if sub.pendingDrops > 0 && len(sub.ch) < cap(sub.ch) {
		select {
		case sub.ch <- notice(Event{Type: "drop", Dropped: sub.pendingDrops}, sub.enc):
			sub.pendingDrops = 0
		default:
		}
	}
	select {
	case sub.ch <- b:
		return
	default:
	}
	// Queue full: evict the oldest batch, then retry once. The drop
	// notice counts the events lost, not the batches.
	select {
	case old := <-sub.ch:
		s.dropLocked(sub, old.n)
	default:
	}
	select {
	case sub.ch <- b:
	default:
		s.dropLocked(sub, b.n)
	}
}

// dropLocked counts n events a subscriber lost. Requires emitMu.
func (s *Session) dropLocked(sub *Subscriber, n int) {
	sub.pendingDrops += n
	sub.drops += int64(n)
	s.drops.Add(int64(n))
	s.reg.metrics.EventsDropped.Add(int64(n))
}
