package server

// Binary event-stream encoding: the compact wire format the stream
// endpoint serves when a subscriber negotiates ?encoding=binary (or
// Accept: application/x-rfidraw-events) instead of the default NDJSON.
//
// Framing reuses the write-ahead log's discipline — length prefix, then
// a CRC-32 of the payload, then the payload — so a reader detects
// corruption (the CRC) and fails the stream on it rather than
// mis-decode:
//
//	uint32  payload length (big endian, excluding the 8-byte header)
//	uint32  CRC-32 (IEEE) of the payload
//	...     payload: uint8 event type + type-specific fields
//
// Event types and payloads (integers big endian, floats IEEE 754 bits,
// durations nanoseconds, strings uint8-length-prefixed UTF-8):
//
//	0x01 point  tag, t, x, z, confidence, hypotheses(u32), flags(u8,
//	            bit0 = switched), seq(u64)
//	0x02 glyph  tag, t, glyph, dist, margin, points(u32)
//	0x03 drop   dropped(u32)
//	0x04 end    (no fields)
//	0x05 tier   tier(u8), from(u8), reason
//	0x06 stroke tag, t, points(u32)
//
// The encoding carries exactly the fields NDJSON serializes for each
// event type, so a binary stream decodes to the same Event values as
// the NDJSON stream of the same session (asserted by the encoding
// equivalence gates).

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"time"
)

// EventStreamContentType is the binary event stream's media type; the
// stream endpoint negotiates it via the Accept header or the
// ?encoding=binary query parameter.
const EventStreamContentType = "application/x-rfidraw-events"

// EventMaxPayload bounds one event frame's payload; larger lengths are
// rejected as corrupt framing. Generous: the largest legal payload (a
// glyph with maximal strings) is under 600 bytes.
const EventMaxPayload = 1 << 12

// eventFrameHeader is the frame header size: length + CRC.
const eventFrameHeader = 8

// Event frame type bytes.
const (
	eventTypePoint  = 0x01
	eventTypeGlyph  = 0x02
	eventTypeDrop   = 0x03
	eventTypeEnd    = 0x04
	eventTypeTier   = 0x05
	eventTypeStroke = 0x06
)

// ErrBadEventFrame reports malformed binary event framing: a corrupt
// length, a failed CRC, an unknown type or a payload that does not
// decode.
var ErrBadEventFrame = errors.New("server: bad event frame")

// appendEventString appends one uint8-length-prefixed string (truncated
// to 255 bytes; tags and glyphs are far shorter).
func appendEventString(dst []byte, s string) []byte {
	if len(s) > 255 {
		s = s[:255]
	}
	dst = append(dst, byte(len(s)))
	return append(dst, s...)
}

// appendEventFrame appends one framed binary event to dst and returns
// the extended slice. Unknown event types append nothing.
func appendEventFrame(dst []byte, ev *Event) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // length + CRC, fixed up below
	switch ev.Type {
	case "point":
		dst = append(dst, eventTypePoint)
		dst = appendEventString(dst, ev.Tag)
		dst = binary.BigEndian.AppendUint64(dst, uint64(int64(ev.T)))
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(ev.X))
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(ev.Z))
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(ev.Confidence))
		dst = binary.BigEndian.AppendUint32(dst, uint32(ev.Hypotheses))
		var flags byte
		if ev.Switched {
			flags |= 1
		}
		dst = append(dst, flags)
		dst = binary.BigEndian.AppendUint64(dst, ev.Seq)
	case "glyph":
		dst = append(dst, eventTypeGlyph)
		dst = appendEventString(dst, ev.Tag)
		dst = binary.BigEndian.AppendUint64(dst, uint64(int64(ev.T)))
		dst = appendEventString(dst, ev.Glyph)
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(ev.Dist))
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(ev.Margin))
		dst = binary.BigEndian.AppendUint32(dst, uint32(ev.Points))
	case "drop":
		dst = append(dst, eventTypeDrop)
		dst = binary.BigEndian.AppendUint32(dst, uint32(ev.Dropped))
	case "end":
		dst = append(dst, eventTypeEnd)
	case "tier":
		dst = append(dst, eventTypeTier)
		dst = append(dst, byte(ev.Tier), byte(ev.FromTier))
		dst = appendEventString(dst, ev.Reason)
	case "stroke":
		dst = append(dst, eventTypeStroke)
		dst = appendEventString(dst, ev.Tag)
		dst = binary.BigEndian.AppendUint64(dst, uint64(int64(ev.T)))
		dst = binary.BigEndian.AppendUint32(dst, uint32(ev.Points))
	default:
		return dst[:start]
	}
	payload := dst[start+eventFrameHeader:]
	binary.BigEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.BigEndian.PutUint32(dst[start+4:], crc32.ChecksumIEEE(payload))
	return dst
}

// EventReader decodes a binary event stream.
type EventReader struct {
	r *bufio.Reader
}

// NewEventReader wraps an io.Reader (normally a stream response body).
// The reader is strict: any malformed frame fails the stream with
// ErrBadEventFrame.
func NewEventReader(r io.Reader) *EventReader {
	return &EventReader{r: bufio.NewReaderSize(r, EventMaxPayload+eventFrameHeader)}
}

// Next reads the next event. It returns io.EOF at a clean end of stream
// and ErrBadEventFrame on a malformed frame.
func (r *EventReader) Next() (Event, error) {
	hdr, err := r.r.Peek(eventFrameHeader)
	if err != nil {
		if len(hdr) == 0 {
			return Event{}, err // clean EOF between frames, or IO error
		}
		if errors.Is(err, io.EOF) {
			return Event{}, fmt.Errorf("%w: truncated header: %v", ErrBadEventFrame, io.ErrUnexpectedEOF)
		}
		return Event{}, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n == 0 || n > EventMaxPayload {
		return Event{}, fmt.Errorf("%w: payload length %d", ErrBadEventFrame, n)
	}
	frame, err := r.r.Peek(eventFrameHeader + int(n))
	if err != nil {
		if errors.Is(err, io.EOF) {
			return Event{}, fmt.Errorf("%w: truncated payload: %v", ErrBadEventFrame, io.ErrUnexpectedEOF)
		}
		return Event{}, err
	}
	// Read the CRC from frame, not hdr: the second Peek may have slid the
	// buffered bytes, leaving hdr pointing at stale memory.
	payload := frame[eventFrameHeader:]
	if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(frame[4:eventFrameHeader]) {
		return Event{}, fmt.Errorf("%w: CRC mismatch", ErrBadEventFrame)
	}
	ev, err := decodeEventPayload(payload)
	if err != nil {
		return Event{}, err
	}
	if _, err := r.r.Discard(eventFrameHeader + int(n)); err != nil {
		return Event{}, err
	}
	return ev, nil
}

// eventCursor is a bounds-checked payload reader: every take fails soft
// (ok=false) instead of slicing out of range, so decodeEventPayload can
// never panic on adversarial input.
type eventCursor struct {
	b  []byte
	ok bool
}

func (c *eventCursor) take(n int) []byte {
	if !c.ok || len(c.b) < n {
		c.ok = false
		return nil
	}
	out := c.b[:n]
	c.b = c.b[n:]
	return out
}

func (c *eventCursor) u8() byte {
	b := c.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (c *eventCursor) u32() uint32 {
	b := c.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (c *eventCursor) u64() uint64 {
	b := c.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (c *eventCursor) f64() float64 { return math.Float64frombits(c.u64()) }

func (c *eventCursor) str() string { return string(c.take(int(c.u8()))) }

// decodeEventPayload validates and decodes one frame payload.
func decodeEventPayload(payload []byte) (Event, error) {
	c := &eventCursor{b: payload, ok: true}
	typ := c.u8()
	var ev Event
	switch typ {
	case eventTypePoint:
		ev.Type = "point"
		ev.Tag = c.str()
		ev.T = time.Duration(int64(c.u64()))
		ev.X = c.f64()
		ev.Z = c.f64()
		ev.Confidence = c.f64()
		ev.Hypotheses = int(c.u32())
		ev.Switched = c.u8()&1 != 0
		ev.Seq = c.u64()
	case eventTypeGlyph:
		ev.Type = "glyph"
		ev.Tag = c.str()
		ev.T = time.Duration(int64(c.u64()))
		ev.Glyph = c.str()
		ev.Dist = c.f64()
		ev.Margin = c.f64()
		ev.Points = int(c.u32())
	case eventTypeDrop:
		ev.Type = "drop"
		ev.Dropped = int(c.u32())
	case eventTypeEnd:
		ev.Type = "end"
	case eventTypeTier:
		ev.Type = "tier"
		ev.Tier = int(c.u8())
		ev.FromTier = int(c.u8())
		ev.Reason = c.str()
	case eventTypeStroke:
		ev.Type = "stroke"
		ev.Tag = c.str()
		ev.T = time.Duration(int64(c.u64()))
		ev.Points = int(c.u32())
	default:
		return Event{}, fmt.Errorf("%w: unknown type 0x%02x", ErrBadEventFrame, typ)
	}
	if !c.ok || len(c.b) != 0 {
		return Event{}, fmt.Errorf("%w: type 0x%02x payload length %d", ErrBadEventFrame, typ, len(payload))
	}
	return ev, nil
}
