package server

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"
	"time"

	"rfidraw/internal/faultgen"
)

// fuzzEventStream is the canonical valid event stream the fuzzer
// mutates: every event type the encoder frames, with representative
// field values. The committed seed corpus under
// testdata/fuzz/FuzzEventFrame holds this stream plus
// faultgen.Corruptions variants of it (truncations, bit flips, length
// tampering, junk insertion) so every fuzz run starts from the wire
// damage the fault harness models.
func fuzzEventStream(tb testing.TB, points int) []byte {
	tb.Helper()
	var buf []byte
	for i := 0; i < points; i++ {
		buf = appendEventFrame(buf, &Event{
			Type: "point", Tag: "tag-1",
			T: time.Duration(i) * 5 * time.Millisecond,
			X: 0.1 * float64(i), Z: -0.2 * float64(i),
			Confidence: 0.9, Hypotheses: 3, Switched: i%2 == 1,
			Seq: uint64(i + 1),
		})
	}
	buf = appendEventFrame(buf, &Event{
		Type: "glyph", Tag: "tag-1", T: 250 * time.Millisecond,
		Glyph: "A", Dist: 0.42, Margin: 0.17, Points: points,
	})
	buf = appendEventFrame(buf, &Event{Type: "drop", Dropped: 7})
	buf = appendEventFrame(buf, &Event{
		Type: "stroke", Tag: "tag-1", T: 250 * time.Millisecond, Points: points,
	})
	buf = appendEventFrame(buf, &Event{
		Type: "tier", Tier: 1, FromTier: 2, Reason: "backlog",
	})
	buf = appendEventFrame(buf, &Event{Type: "end"})
	return buf
}

// checkWireEvent asserts a decoded event upholds the decoder's
// contract: a known type, and no NaN-poisoned counters smuggled into
// integer fields (floats may be anything — the CRC vouches for them).
func checkWireEvent(t *testing.T, ev Event) {
	t.Helper()
	switch ev.Type {
	case "point", "glyph", "drop", "end", "tier", "stroke":
	default:
		t.Fatalf("decoded event with unknown type %q", ev.Type)
	}
}

// FuzzEventFrame drives arbitrary bytes through the strict event
// decoder. It may reject a stream (ErrBadEventFrame) but never panic,
// surface any other error class, or mis-decode: every event it accepts
// re-encodes to a frame that decodes back to the same bytes, and no
// input yields more events than its bytes could frame.
func FuzzEventFrame(f *testing.F) {
	clean := fuzzEventStream(f, 6)
	f.Add(clean)
	for _, c := range faultgen.Corruptions(1, clean, 16) {
		f.Add(c)
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		strict := NewEventReader(bytes.NewReader(data))
		decoded := 0
		for {
			ev, err := strict.Next()
			if err != nil {
				if !errors.Is(err, io.EOF) && !errors.Is(err, ErrBadEventFrame) {
					t.Fatalf("strict: unexpected error class: %v", err)
				}
				break
			}
			checkWireEvent(t, ev)
			frame := appendEventFrame(nil, &ev)
			again, err := NewEventReader(bytes.NewReader(frame)).Next()
			if err != nil || !bytes.Equal(appendEventFrame(nil, &again), frame) {
				t.Fatalf("strict: %+v does not survive a re-encode: %+v, %v", ev, again, err)
			}
			decoded++
		}
		// The smallest frame (end: header + type byte) is 9 bytes.
		if decoded > len(data)/9 {
			t.Fatalf("strict: decoded %d events from %d bytes", decoded, len(data))
		}
	})
}

// TestEventFrameRoundTrip pins the codec: every event type survives an
// encode/decode round trip with its serialized fields intact.
func TestEventFrameRoundTrip(t *testing.T) {
	events := []Event{
		{Type: "point", Tag: "pen", T: 125 * time.Millisecond, X: 1.25, Z: -0.75,
			Confidence: 0.875, Hypotheses: 4, Switched: true, Seq: 42},
		{Type: "point", Tag: "pen", T: 130 * time.Millisecond, X: math.Pi, Z: 0,
			Confidence: 1, Hypotheses: 1, Switched: false, Seq: 43},
		{Type: "glyph", Tag: "pen", T: 300 * time.Millisecond, Glyph: "B",
			Dist: 0.5, Margin: 0.25, Points: 17},
		{Type: "drop", Dropped: 9},
		{Type: "tier", Tier: 0, FromTier: 1, Reason: "backlog"},
		{Type: "tier", Tier: 2, FromTier: 1, Reason: "recovered"},
		{Type: "stroke", Tag: "pen", T: 300 * time.Millisecond, Points: 17},
		{Type: "end"},
	}
	var buf []byte
	for i := range events {
		buf = appendEventFrame(buf, &events[i])
	}
	r := NewEventReader(bytes.NewReader(buf))
	for i, want := range events {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("event %d round-tripped to %+v, want %+v", i, got, want)
		}
	}
	if _, err := r.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("want io.EOF after last event, got %v", err)
	}
}

// TestEventStrictRejectsCorruptCRC pins strict mode's whole point: a
// flipped payload bit fails the stream with ErrBadEventFrame.
func TestEventStrictRejectsCorruptCRC(t *testing.T) {
	buf := appendEventFrame(nil, &Event{Type: "drop", Dropped: 3})
	buf[len(buf)-1] ^= 0x01
	r := NewEventReader(bytes.NewReader(buf))
	if _, err := r.Next(); !errors.Is(err, ErrBadEventFrame) {
		t.Fatalf("want ErrBadEventFrame on CRC damage, got %v", err)
	}
}

// chunkReader hands its bytes out at most k per Read, the way a socket
// delivers a stream in arbitrary segments.
type chunkReader struct {
	b []byte
	k int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.b[:min(r.k, len(r.b))])
	r.b = r.b[n:]
	return n, nil
}

// TestEventReaderChunkedStream: a valid stream decodes intact however
// the transport splits it. A frame whose header arrives before its
// payload makes the reader's second Peek slide the buffered bytes; the
// CRC must be read from the frame that Peek returned, not from the
// header slice taken before it.
func TestEventReaderChunkedStream(t *testing.T) {
	stream := fuzzEventStream(t, 40)
	var want []Event
	whole := NewEventReader(bytes.NewReader(stream))
	for {
		ev, err := whole.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, ev)
	}
	for k := 1; k <= 80; k++ {
		r := NewEventReader(&chunkReader{b: stream, k: k})
		for i := 0; ; i++ {
			ev, err := r.Next()
			if errors.Is(err, io.EOF) {
				if i != len(want) {
					t.Fatalf("%d-byte reads: stream ended after %d of %d events", k, i, len(want))
				}
				break
			}
			if err != nil {
				t.Fatalf("%d-byte reads: event %d: %v", k, i, err)
			}
			if i >= len(want) || ev != want[i] {
				t.Fatalf("%d-byte reads: event %d decoded to %+v", k, i, ev)
			}
		}
	}
}
