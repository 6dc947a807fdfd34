// Package readerwire defines the binary TCP protocol between RFID readers
// and the tracking host, replacing the vendor API of the paper's prototype
// (the ThingMagic readers stream per-reply phase reports to a MATLAB
// pipeline; here simulated readers stream to a Go pipeline).
//
// # Wire format
//
// Every message is length-prefixed:
//
//	uint32  payload length (big endian, excluding itself)
//	uint8   message type
//	...     type-specific payload
//
// Message types:
//
//	0x01 Hello        reader announces itself: readerID, antenna count,
//	                  sweep interval
//	0x02 PhaseReport  one tag reply: time, readerID, antennaID, EPC,
//	                  phase, power
//	0x03 Bye          clean shutdown
//
// Integers are big endian; floats are IEEE 754 bits; durations are
// nanoseconds. The format is versioned by the Hello's proto field.
package readerwire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"rfidraw/internal/rfid"
)

// ProtoVersion identifies this wire format revision.
const ProtoVersion = 1

// MaxPayload bounds a message payload; anything larger is rejected as
// corrupt framing.
const MaxPayload = 1 << 16

// Message type bytes.
const (
	TypeHello       = 0x01
	TypePhaseReport = 0x02
	TypeBye         = 0x03
)

// Hello is the stream-opening announcement.
type Hello struct {
	Proto         uint8
	ReaderID      uint8
	AntennaCount  uint8
	SweepInterval time.Duration
}

// Bye is the clean end-of-stream marker.
type Bye struct{}

// Message is a decoded wire message: exactly one of the fields is set.
//
// Report points at a report the Reader owns and decodes every report
// into, so decoding allocates nothing per report. It is valid only until
// the next call to Next or NextBuffered on the same Reader; a caller that
// keeps a report copies it (rep := *msg.Report) before reading on.
type Message struct {
	Hello  *Hello
	Report *rfid.Report
	Bye    *Bye
}

// Writer encodes messages onto a stream.
type Writer struct {
	w *bufio.Writer
	// buf holds the message being built: a 4-byte length slot, then the
	// payload. Each message goes to w in one write, so writing a report
	// allocates nothing.
	buf []byte
}

// NewWriter wraps an io.Writer (normally a net.Conn).
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w), buf: make([]byte, 0, 64)}
}

// begin starts a message of type typ in w.buf, behind its length slot.
func (w *Writer) begin(typ byte) []byte {
	return append(w.buf[:0], 0, 0, 0, 0, typ)
}

// send fills in the length of the message b that begin started and
// writes it.
func (w *Writer) send(b []byte) error {
	binary.BigEndian.PutUint32(b, uint32(len(b)-4))
	w.buf = b[:0]
	_, err := w.w.Write(b)
	return err
}

// WriteHello sends the stream announcement.
func (w *Writer) WriteHello(h Hello) error {
	b := append(w.begin(TypeHello), h.Proto, h.ReaderID, h.AntennaCount)
	b = binary.BigEndian.AppendUint64(b, uint64(h.SweepInterval))
	if err := w.send(b); err != nil {
		return err
	}
	return w.w.Flush()
}

// WriteReport sends one phase report. Reports are buffered; call Flush to
// push them to the network.
func (w *Writer) WriteReport(r rfid.Report) error {
	if r.ReaderID < 0 || r.ReaderID > 255 || r.AntennaID < 0 || r.AntennaID > 255 {
		return fmt.Errorf("readerwire: reader/antenna id out of byte range: %d/%d", r.ReaderID, r.AntennaID)
	}
	b := append(w.begin(TypePhaseReport), byte(r.ReaderID), byte(r.AntennaID))
	b = binary.BigEndian.AppendUint64(b, uint64(r.Time))
	b = append(b, r.EPC[:]...)
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(r.PhaseRad))
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(r.PowerDB))
	return w.send(b)
}

// WriteBye sends the end-of-stream marker and flushes.
func (w *Writer) WriteBye() error {
	if err := w.send(w.begin(TypeBye)); err != nil {
		return err
	}
	return w.w.Flush()
}

// Flush pushes buffered reports to the underlying writer.
func (w *Writer) Flush() error { return w.w.Flush() }

// Reader decodes messages from a stream.
type Reader struct {
	r *bufio.Reader
	// rep is the report every PhaseReport decodes into; Message.Report
	// points at it (see Message).
	rep rfid.Report
	// resync makes Next scan forward for the next valid frame instead of
	// failing the stream on a malformed one (see NewResyncReader).
	resync  bool
	resyncs int
}

// NewReader wraps an io.Reader (normally a net.Conn). The reader is
// strict: any malformed frame fails the stream with ErrBadFrame.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReaderSize(r, MaxPayload+8)}
}

// NewResyncReader wraps an io.Reader like NewReader but makes Next
// self-healing: when a frame is malformed — a corrupted length, an unknown
// type, an out-of-range payload, a short read mid-frame — the reader
// slides forward one byte at a time until it locks onto the next valid
// frame header instead of erroring out the whole stream. A partial frame
// at the very end of the stream (a mid-frame disconnect) reads as a clean
// io.EOF. Use it on the serving side, where a reconnecting reader must not
// lose its whole session to one damaged frame.
func NewResyncReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReaderSize(r, MaxPayload+8), resync: true}
}

// Resyncs reports how many bytes Next has skipped hunting for valid
// frames; zero on an undamaged stream.
func (r *Reader) Resyncs() int { return r.resyncs }

// ErrBadFrame reports malformed framing or payloads.
var ErrBadFrame = errors.New("readerwire: bad frame")

// Next reads the next message. It returns io.EOF at a clean end of stream
// (after Bye or when the connection closes between frames). In strict mode
// malformed frames return ErrBadFrame; in resync mode (NewResyncReader)
// they are skipped.
func (r *Reader) Next() (Message, error) {
	for {
		msg, err := r.next()
		if err == nil || !r.resync || !errors.Is(err, ErrBadFrame) {
			return msg, err
		}
		// Malformed frame: slide one byte and hunt for the next header.
		if _, derr := r.r.Discard(1); derr != nil {
			return Message{}, io.EOF
		}
		r.resyncs++
	}
}

// NextBuffered decodes the next message only when a complete frame is
// already sitting in the reader's internal buffer: it never blocks on
// the underlying stream. ok is false when the buffer holds no complete
// frame (the caller should fall back to the blocking Next, which fills
// the buffer). Burst-mode ingest uses it to drain every report a single
// socket read delivered before paying the next read syscall.
//
// Error behavior matches Next: in resync mode malformed buffered bytes
// are skipped (counted by Resyncs); in strict mode they return
// ErrBadFrame.
func (r *Reader) NextBuffered() (Message, bool, error) {
	for {
		buffered := r.r.Buffered()
		if buffered < 4 {
			return Message{}, false, nil
		}
		hdr, _ := r.r.Peek(4) // cannot fail: 4 bytes are buffered
		n := binary.BigEndian.Uint32(hdr)
		if n == 0 || n > MaxPayload {
			if r.resync {
				r.r.Discard(1)
				r.resyncs++
				continue
			}
			return Message{}, false, fmt.Errorf("%w: payload length %d", ErrBadFrame, n)
		}
		if buffered < 4+int(n) {
			// The frame's tail has not arrived yet; let the caller block
			// on Next for it.
			return Message{}, false, nil
		}
		frame, _ := r.r.Peek(4 + int(n)) // cannot fail: fully buffered
		msg, err := r.decodePayload(frame[4:])
		if err != nil {
			if r.resync && errors.Is(err, ErrBadFrame) {
				r.r.Discard(1)
				r.resyncs++
				continue
			}
			return Message{}, false, err
		}
		if _, err := r.r.Discard(4 + int(n)); err != nil {
			return Message{}, false, err
		}
		return msg, true, nil
	}
}

// next decodes one message without consuming any bytes until the whole
// frame has validated, so resync mode can rescan from the next byte.
func (r *Reader) next() (Message, error) {
	hdr, err := r.r.Peek(4)
	if err != nil {
		if len(hdr) == 0 {
			return Message{}, err // clean EOF between frames, or IO error
		}
		if errors.Is(err, io.EOF) {
			if r.resync {
				// 1–3 trailing bytes: an unfinishable partial header.
				return Message{}, io.EOF
			}
			return Message{}, fmt.Errorf("%w: truncated header: %v", ErrBadFrame, io.ErrUnexpectedEOF)
		}
		return Message{}, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n == 0 || n > MaxPayload {
		return Message{}, fmt.Errorf("%w: payload length %d", ErrBadFrame, n)
	}
	frame, err := r.r.Peek(4 + int(n))
	if err != nil {
		if errors.Is(err, io.EOF) {
			if r.resync && !plausibleFrame(frame) {
				// The "frame" this length implies runs past the end of
				// the stream and does not even start like a real
				// message: treat it as corruption and keep scanning.
				return Message{}, fmt.Errorf("%w: truncated payload: %v", ErrBadFrame, io.ErrUnexpectedEOF)
			}
			if r.resync {
				// A truncated but plausible final frame: the sender
				// disconnected mid-frame. End of stream.
				return Message{}, io.EOF
			}
			return Message{}, fmt.Errorf("%w: truncated payload: %v", ErrBadFrame, io.ErrUnexpectedEOF)
		}
		return Message{}, err
	}
	msg, err := r.decodePayload(frame[4:])
	if err != nil {
		return Message{}, err
	}
	if _, err := r.r.Discard(4 + int(n)); err != nil {
		return Message{}, err
	}
	return msg, nil
}

// payloadLen is the single source of truth for each message type's exact
// payload length (type byte included); ok is false for unknown types.
// decodePayload and plausibleFrame must agree on these, so they both
// consult this table.
func payloadLen(typ byte) (n int, ok bool) {
	switch typ {
	case TypeHello:
		return 1 + 3 + 8, true
	case TypePhaseReport:
		return 1 + 2 + 8 + 12 + 8 + 8, true
	case TypeBye:
		return 1, true
	default:
		return 0, false
	}
}

// plausibleFrame reports whether a partial frame (header plus however much
// payload arrived) starts like a genuine message: a known type byte and a
// length consistent with that type.
func plausibleFrame(partial []byte) bool {
	if len(partial) < 5 {
		return len(partial) == 4 // length alone: cannot disprove
	}
	want, ok := payloadLen(partial[4])
	return ok && binary.BigEndian.Uint32(partial) == uint32(want)
}

// decodePayload validates and decodes one frame payload. A report is
// decoded into r.rep.
func (r *Reader) decodePayload(payload []byte) (Message, error) {
	if want, ok := payloadLen(payload[0]); ok && len(payload) != want {
		return Message{}, fmt.Errorf("%w: type 0x%02x length %d, want %d", ErrBadFrame, payload[0], len(payload), want)
	}
	switch payload[0] {
	case TypeHello:
		h := &Hello{
			Proto:         payload[1],
			ReaderID:      payload[2],
			AntennaCount:  payload[3],
			SweepInterval: time.Duration(binary.BigEndian.Uint64(payload[4:])),
		}
		if h.Proto != ProtoVersion {
			return Message{}, fmt.Errorf("%w: protocol version %d, want %d", ErrBadFrame, h.Proto, ProtoVersion)
		}
		return Message{Hello: h}, nil
	case TypePhaseReport:
		phase := math.Float64frombits(binary.BigEndian.Uint64(payload[23:31]))
		if math.IsNaN(phase) || phase < 0 || phase >= 2*math.Pi+1e-9 {
			return Message{}, fmt.Errorf("%w: phase %v out of range", ErrBadFrame, phase)
		}
		rep := &r.rep
		*rep = rfid.Report{
			ReaderID:  int(payload[1]),
			AntennaID: int(payload[2]),
			Time:      time.Duration(binary.BigEndian.Uint64(payload[3:11])),
			PhaseRad:  phase,
			PowerDB:   math.Float64frombits(binary.BigEndian.Uint64(payload[31:39])),
		}
		copy(rep.EPC[:], payload[11:23])
		return Message{Report: rep}, nil
	case TypeBye:
		return Message{Bye: &Bye{}}, nil
	default:
		return Message{}, fmt.Errorf("%w: unknown type 0x%02x", ErrBadFrame, payload[0])
	}
}
