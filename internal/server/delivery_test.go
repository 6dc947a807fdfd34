package server

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"testing"
	"time"
)

// oracleNDJSON is ev's NDJSON line as encoding/json writes it, the way
// the stream served events before appendNDJSON: reflection over a
// method-less copy of Event for the plain shape, and over the tier and
// stroke shadow structs for theirs. nil when encoding/json refuses the
// event (a NaN or infinite float in an encoded field).
func oracleNDJSON(ev Event) []byte {
	type plain Event
	var v any = plain(ev)
	switch ev.Type {
	case "tier":
		v = struct {
			Type   string `json:"type"`
			Tier   int    `json:"tier"`
			From   int    `json:"from"`
			Reason string `json:"reason,omitempty"`
		}{ev.Type, ev.Tier, ev.FromTier, ev.Reason}
	case "stroke":
		v = struct {
			Type   string        `json:"type"`
			Tag    string        `json:"tag,omitempty"`
			T      time.Duration `json:"t_ns,omitempty"`
			Points int           `json:"points,omitempty"`
		}{ev.Type, ev.Tag, ev.T, ev.Points}
	}
	b, err := json.Marshal(v)
	if err != nil {
		return nil
	}
	return append(b, '\n')
}

// checkNDJSON asserts appendNDJSON and Event.MarshalJSON agree with the
// oracle on ev: the same line, appended after whatever dst held, and an
// error from MarshalJSON exactly when the oracle refuses the event.
func checkNDJSON(t *testing.T, ev Event) {
	t.Helper()
	want := oracleNDJSON(ev)
	if got := appendNDJSON(nil, &ev); !bytes.Equal(got, want) {
		t.Fatalf("appendNDJSON(%#v)\n got %q\nwant %q", ev, got, want)
	}
	prefix := []byte("{}\n")
	if got := appendNDJSON(prefix, &ev); !bytes.Equal(got, append([]byte("{}\n"), want...)) {
		t.Fatalf("appendNDJSON(%q, %#v) = %q", prefix, ev, got)
	}
	m, err := json.Marshal(ev)
	switch {
	case want == nil && err == nil:
		t.Fatalf("json.Marshal(%#v) = %q, want an error", ev, m)
	case want != nil && (err != nil || !bytes.Equal(append(m, '\n'), want)):
		t.Fatalf("json.Marshal(%#v) = %q, %v; want %q", ev, m, err, want)
	}
}

var (
	ndjsonTypes = []string{"point", "glyph", "drop", "end", "tier", "stroke"}
	// ndjsonRunes holds what string fields are drawn from: printable
	// ASCII, the five characters encoding/json escapes, control bytes,
	// DEL, non-ASCII text, U+2028 and U+2029, and invalid UTF-8.
	ndjsonRunes = []string{
		"a", "Z", "0", " ", "-", "~", "e2", "backlog",
		`"`, `\`, "<", ">", "&", "\t", "\n", "\x00", "\x1f", "\x7f",
		"é", "Ω", "日本", "\u2028", "\u2029", "\xff", "\xc3", "\xed\xa0\x80",
	}
	ndjsonFloats = []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, -123456.789,
		1e-6, math.Nextafter(1e-6, 0), -1e-6, math.Nextafter(-1e-6, 0),
		1e21, math.Nextafter(1e21, 0), -1e21, math.Nextafter(-1e21, 0),
		1e-7, 1.5e-9, 1e-10, 1e-100, 5e-324, 1e20, 1e22, 1.7976931348623157e308,
		math.NaN(), math.Inf(1), math.Inf(-1),
	}
)

// randomEvent draws an event of a random type whose every field is
// zero, a boundary value or random, so each shape's omitempty rules, the
// float format's switches and the string fallback all get exercised.
func randomEvent(rng *rand.Rand) Event {
	str := func() string {
		if rng.Intn(3) == 0 {
			return ""
		}
		s := ""
		for n := rng.Intn(6); n >= 0; n-- {
			if rng.Intn(4) == 0 {
				s += ndjsonRunes[rng.Intn(len(ndjsonRunes))]
			} else {
				s += string(rune('a' + rng.Intn(26)))
			}
		}
		return s
	}
	float := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return ndjsonFloats[rng.Intn(len(ndjsonFloats))]
		case 1:
			return rng.NormFloat64()
		case 2:
			return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
		default:
			return math.Float64frombits(rng.Uint64())
		}
	}
	integer := func() int64 {
		switch rng.Intn(3) {
		case 0:
			return 0
		case 1:
			return int64(rng.Intn(200) - 100)
		default:
			return int64(rng.Uint64())
		}
	}
	typ := ndjsonTypes[rng.Intn(len(ndjsonTypes))]
	if rng.Intn(20) == 0 {
		typ = str()
	}
	return Event{
		Type: typ, Tag: str(), T: time.Duration(integer()),
		X: float(), Z: float(),
		Glyph: str(), Dist: float(), Margin: float(), Points: int(integer()),
		Confidence: float(), Hypotheses: int(integer()), Switched: rng.Intn(2) == 0,
		Seq: uint64(integer()), Dropped: int(integer()),
		Tier: int(integer()), FromTier: int(integer()), Reason: str(),
		minTier: uint8(rng.Intn(3)),
	}
}

// TestEventNDJSONMatchesEncodingJSON: the hand-written NDJSON encoder
// writes every event byte for byte as encoding/json did, on fixed edge
// cases and on random events of every type.
func TestEventNDJSONMatchesEncodingJSON(t *testing.T) {
	negZero := math.Copysign(0, -1)
	cases := []Event{
		{},
		{Type: "point"}, {Type: "glyph"}, {Type: "drop"}, {Type: "end"},
		{Type: "tier"}, {Type: "stroke"},
		{Type: "point", X: negZero, Z: negZero, Dist: negZero, Confidence: negZero},
		{Type: "point", Tag: "e20034120000000000001234", T: 12345678901, X: 0.123456789, Z: -1.5,
			Confidence: -0.0123, Hypotheses: 3, Switched: true, Seq: 77},
		{Type: "glyph", Tag: "pen", T: 300 * time.Millisecond, Glyph: "b", Dist: 0.5, Margin: 0.25, Points: 17},
		{Type: "drop", Dropped: 9},
		{Type: "tier", Tier: 0, FromTier: 1, Reason: "backlog", X: math.NaN()},
		{Type: "stroke", Tag: "\u2028"},
		{Type: "point", X: math.NaN()},
		{Type: "point", Z: math.Inf(1)},
		{Type: "end", Confidence: math.Inf(-1)},
		{Type: "glyph", Dist: math.NaN()},
		{Type: "glyph", Margin: math.Inf(-1)},
		{Type: "point", Tag: "<a>&\"b\\", Glyph: "é", Reason: "line\u2028sep\u2029"},
		{Type: "point", Tag: "\xff\xfe", Glyph: "\x00\x1f\x7f", Reason: "日本"},
		{Type: "tier", Reason: "<>&"},
		{Type: "stroke", Tag: " "},
		{Type: "a<b", Tag: "x"},
	}
	for _, f := range ndjsonFloats {
		cases = append(cases, Event{Type: "point", X: f, Z: -f, Dist: f, Margin: -f, Confidence: f})
	}
	for _, ev := range cases {
		checkNDJSON(t, ev)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50000; i++ {
		checkNDJSON(t, randomEvent(rng))
	}
}

// TestEventNDJSONEncodesEveryField fills every exported Event field by
// reflection and checks each shape against the oracle, which encodes
// whatever fields Event has: a field added without a line in
// appendNDJSON fails here, and so does one of a kind this test cannot
// fill until the test learns it.
func TestEventNDJSONEncodesEveryField(t *testing.T) {
	var ev Event
	v := reflect.ValueOf(&ev).Elem()
	for i := 0; i < v.NumField(); i++ {
		f, sf := v.Field(i), v.Type().Field(i)
		if !sf.IsExported() {
			continue
		}
		switch f.Kind() {
		case reflect.String:
			f.SetString("f" + strconv.Itoa(i))
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(i + 1))
		case reflect.Uint64:
			f.SetUint(uint64(i + 1))
		case reflect.Float64:
			f.SetFloat(float64(i) + 0.5)
		case reflect.Bool:
			f.SetBool(true)
		default:
			t.Fatalf("Event.%s has kind %s, which this test does not fill", sf.Name, f.Kind())
		}
	}
	for _, typ := range append(ndjsonTypes, ev.Type) {
		ev.Type = typ
		checkNDJSON(t, ev)
	}
}

// FuzzEventNDJSON is TestEventNDJSONMatchesEncodingJSON's differential
// check on fuzzer-chosen events: kind picks one of the six event types,
// or typ when it is past them.
func FuzzEventNDJSON(f *testing.F) {
	for kind := range len(ndjsonTypes) + 1 {
		f.Add(uint8(kind), "", "e20034120000000000001234", int64(5e9), 0.25, -1.5, "a", 0.5, 0.125,
			17, -0.01, 3, kind%2 == 0, uint64(9), 4, 1, 2, "backlog")
	}
	f.Add(uint8(0), "", "<&>", int64(-1), math.Copysign(0, -1), 1e21, "\u2028", 1e-7, 9.999999999999999e-7,
		0, math.NaN(), 0, false, uint64(0), 0, 0, 0, "\xff")
	f.Add(uint8(9), "a\"b", "", int64(0), math.Inf(1), 0.0, "", 0.0, 0.0, 0, 0.0, 0, false, uint64(0), 0, 0, 0, "")
	f.Fuzz(func(t *testing.T, kind uint8, typ, tag string, tns int64, x, z float64, glyph string, dist, margin float64,
		points int, conf float64, hyps int, switched bool, seq uint64, dropped, tier, from int, reason string) {
		if int(kind) < len(ndjsonTypes) {
			typ = ndjsonTypes[kind]
		}
		checkNDJSON(t, Event{
			Type: typ, Tag: tag, T: time.Duration(tns), X: x, Z: z,
			Glyph: glyph, Dist: dist, Margin: margin, Points: points,
			Confidence: conf, Hypotheses: hyps, Switched: switched, Seq: seq,
			Dropped: dropped, Tier: tier, FromTier: from, Reason: reason,
		})
	})
}

// liveBatch is a group commit's worth of what the emitter makes: points
// of a 24-digit EPC tag, one in eight of them thinned into T0, then a
// stroke closure (T2) and its glyph.
func liveBatch(points int) []Event {
	const tag = "e20034120000000000001234"
	var evs []Event
	for i := 0; i < points; i++ {
		ev := Event{
			Type: "point", Tag: tag, T: 12*time.Second + time.Duration(i)*25*time.Millisecond,
			X: 0.5 + 0.0123456789*float64(i), Z: 1.25 - 0.00987654321*float64(i),
			Confidence: -0.0123456789 * float64(i+1), Hypotheses: 1 + i%4, Switched: i == 7,
			minTier: 1,
		}
		if i%t0DecimateEvery == 0 {
			ev.minTier = 0
		}
		evs = append(evs, ev)
	}
	last := evs[len(evs)-1].T
	return append(evs,
		Event{Type: "stroke", Tag: tag, T: last, Points: points, minTier: 2},
		Event{Type: "glyph", Tag: tag, T: last, Glyph: "b", Dist: 0.123456789, Margin: 0.0456789, Points: points, minTier: 1})
}

// TestFlushEmitAllocs gates the group commit at two allocations per tier
// and encoding it builds, however many events the batch holds: each
// event is encoded once, straight into a buffer sized up front. Four
// subscribers make it build T0 NDJSON, T1 NDJSON and binary, and T2
// binary.
func TestFlushEmitAllocs(t *testing.T) {
	reg := testRegistry(t, RegistryConfig{})
	sess, err := reg.Open(SessionSpec{ID: "flush-allocs"})
	if err != nil {
		t.Fatal(err)
	}
	opts := []SubscribeOptions{
		{Tier: Tier0, encoding: encNDJSON},
		{Tier: Tier1, encoding: encNDJSON},
		{Tier: Tier1, encoding: encBinary},
		{Tier: Tier2, encoding: encBinary},
	}
	const built = 4
	var subs []*Subscriber
	for _, o := range opts {
		sub, err := sess.Subscribe(o)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sub)
	}
	events := liveBatch(64)
	flush := func() {
		sess.emitMu.Lock()
		sess.emitBuf = append(sess.emitBuf, events...)
		sess.flushEmitLocked()
		sess.emitMu.Unlock()
		for i, sub := range subs {
			select {
			case b := <-sub.ch:
				if len(b.ndjson)+len(b.binary) == 0 {
					t.Fatalf("subscriber %d got an empty batch", i)
				}
			default:
				t.Fatalf("subscriber %d got no batch", i)
			}
		}
	}
	flush() // both of the session's swapped event buffers grow once
	flush()
	allocs := testing.AllocsPerRun(50, flush)
	if allocs > 2*built {
		t.Fatalf("a flush of %d events to %d tier encodings makes %v allocs, want <= %d", len(events), built, allocs, 2*built)
	}
	t.Logf("a flush of %d events to %d tier encodings makes %v allocs", len(events), built, allocs)
}

// BenchmarkEventEncode times one event's encoding (one op is one event),
// NDJSON and binary, over a live batch's points, stroke and glyph.
func BenchmarkEventEncode(b *testing.B) {
	events := liveBatch(62)
	for _, enc := range []struct {
		name   string
		encode func([]byte, *Event) []byte
	}{{"ndjson", appendNDJSON}, {"binary", appendEventFrame}} {
		b.Run("encoding="+enc.name, func(b *testing.B) {
			buf := make([]byte, 0, 512)
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				buf = enc.encode(buf[:0], &events[i%len(events)])
			}
		})
	}
}
