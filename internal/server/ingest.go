package server

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"time"

	"rfidraw/internal/obs"
	"rfidraw/internal/readerwire"
	"rfidraw/internal/rfid"
)

// IngestPreamble opens every ingest connection: one ASCII line
// "RFIDRAWD/1 <session-id>\n" before the standard readerwire stream, so
// the gateway can route many concurrent readers onto their sessions
// without changing the wire protocol readers already speak.
const IngestPreamble = "RFIDRAWD/1"

// maxPreamble bounds the preamble line; anything longer is a bad client.
const maxPreamble = 256

// ingestBurst caps how many reports one ingest connection batches into
// a single OfferBatch: after a blocking read delivers a report, the
// gateway drains whatever further reports that socket read buffered (up
// to this cap) and offers them as one burst — one ingest-lock hold, one
// WAL commit and one engine message per shard instead of one per report.
const ingestBurst = 256

// serveIngest accepts reader connections until the listener closes.
func (s *Server) serveIngest(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handleIngest(conn)
		}()
	}
}

// handleIngest runs one reader connection: preamble, then a resync-read
// readerwire stream fanned into the session. A reader may disconnect and
// reconnect freely — the session and its trackers persist, and the
// resync reader survives damaged or partial frames (it re-locks on the
// next frame header instead of dropping the connection).
func (s *Server) handleIngest(conn net.Conn) {
	defer conn.Close()
	s.metrics.IngestConns.Add(1)
	if !s.addPendingIngest(conn) {
		return // server is shutting down
	}
	sess, r, err := s.ingestHandshake(conn)
	if err != nil {
		s.removePendingIngest(conn)
		s.logger.Warn("ingest handshake failed", "remote", conn.RemoteAddr(), "err", err)
		return
	}
	// Hand ownership to the session before leaving the pending set, so
	// a concurrent shutdown always finds the conn in one of the two.
	err = sess.addReader(conn)
	s.removePendingIngest(conn)
	if err != nil {
		return
	}
	defer sess.removeReader(conn)
	defer func() {
		if n := int64(r.Resyncs()); n > 0 {
			sess.resyncs.Add(n)
			s.metrics.ResyncBytes.Add(n)
			sess.timeline.Record(obs.EventResync, "bytes="+strconv.FormatInt(n, 10))
		}
	}()

	// Per-reader sequencing: a reader's clock must not regress. Reports
	// that do are dropped (and counted) instead of corrupting the
	// session's merge; cross-reader skew is the session reorder buffer's
	// job, not ours.
	lastTime := make(map[int]time.Duration)
	sawHello := false
	// Burst mode: after each blocking read, drain every further message
	// that read already buffered (NextBuffered never touches the socket)
	// and hand the accumulated reports to the session as ONE OfferBatch
	// instead of one per report. Under load a single read delivers tens
	// of frames, so the per-call cost (the ingest lock, the WAL commit,
	// the engine hand-off) amortizes across the burst. OfferBatch runs on
	// this goroutine, so while it waits for the lock or a full engine
	// shard the socket is not read: the reader's TCP connection is the
	// ingest queue and its backpressure.
	burst := make([]rfid.Report, 0, ingestBurst)
	flush := func() error {
		if len(burst) == 0 {
			return nil
		}
		err := sess.OfferBatch(burst)
		burst = burst[:0]
		return err
	}
	for {
		msg, err := r.Next()
		if err != nil {
			if !errors.Is(err, io.EOF) {
				s.logger.Warn("ingest stream error", "remote", conn.RemoteAddr(), "err", err)
			}
			return
		}
		for {
			switch {
			case msg.Hello != nil:
				// Flush first so reports that preceded a mid-stream
				// re-announcement reach the session before the new sweep.
				if flush() != nil {
					return
				}
				sawHello = true
				if err := sess.announceSweep(msg.Hello.SweepInterval); err != nil {
					return
				}
			case msg.Report != nil:
				if !sawHello {
					break // protocol requires Hello first; drop strays
				}
				// The reader decodes every report into one it owns:
				// copy it before the next read.
				rep := *msg.Report
				if last, ok := lastTime[rep.ReaderID]; ok && rep.Time < last {
					sess.outOfOrder.Add(1)
					s.metrics.ReportsOutOfOrder.Add(1)
					break
				}
				lastTime[rep.ReaderID] = rep.Time
				burst = append(burst, rep)
				if len(burst) == cap(burst) {
					if flush() != nil {
						return // session closed under us
					}
				}
			case msg.Bye != nil:
				// Clean end of this reader's stream; keep the connection open
				// in case the reader re-announces (Hello) on the same conn.
			}
			var ok bool
			msg, ok, err = r.NextBuffered()
			if err != nil {
				flush()
				s.logger.Warn("ingest stream error", "remote", conn.RemoteAddr(), "err", err)
				return
			}
			if !ok {
				break // buffer drained: block on the next read
			}
		}
		if flush() != nil {
			return
		}
	}
}

// addPendingIngest / removePendingIngest / closePendingIngest track
// connections that no session owns yet, so shutdown can cut their
// handshake short instead of waiting out the read deadline.
func (s *Server) addPendingIngest(conn net.Conn) bool {
	s.pendingMu.Lock()
	defer s.pendingMu.Unlock()
	if s.pendingShutdown {
		return false
	}
	s.pendingIngest[conn] = struct{}{}
	return true
}

func (s *Server) removePendingIngest(conn net.Conn) {
	s.pendingMu.Lock()
	delete(s.pendingIngest, conn)
	s.pendingMu.Unlock()
}

func (s *Server) closePendingIngest() {
	s.pendingMu.Lock()
	s.pendingShutdown = true
	for conn := range s.pendingIngest {
		conn.Close()
	}
	s.pendingMu.Unlock()
}

// ingestHandshake reads the preamble line and resolves the session.
func (s *Server) ingestHandshake(conn net.Conn) (*Session, *readerwire.Reader, error) {
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	defer conn.SetReadDeadline(time.Time{})
	line, rest, err := readLine(conn, maxPreamble)
	if err != nil {
		return nil, nil, fmt.Errorf("preamble: %w", err)
	}
	fields := strings.Fields(line)
	if len(fields) != 2 || fields[0] != IngestPreamble {
		return nil, nil, fmt.Errorf("bad preamble %q", line)
	}
	sess, ok := s.reg.Get(fields[1])
	if !ok {
		fmt.Fprintf(conn, "ERR unknown session %s\n", fields[1])
		return nil, nil, fmt.Errorf("unknown session %q", fields[1])
	}
	// Any bytes read past the newline belong to the wire stream.
	return sess, readerwire.NewResyncReader(io.MultiReader(strings.NewReader(rest), conn)), nil
}

// readLine reads up to max bytes to the first newline, returning the line
// (without the newline) and any extra bytes read past it.
func readLine(r io.Reader, max int) (line, rest string, err error) {
	buf := make([]byte, 0, 64)
	one := make([]byte, 64)
	for len(buf) < max {
		n, err := r.Read(one)
		if n > 0 {
			buf = append(buf, one[:n]...)
			if i := strings.IndexByte(string(buf), '\n'); i >= 0 {
				return strings.TrimRight(string(buf[:i]), "\r"), string(buf[i+1:]), nil
			}
		}
		if err != nil {
			return "", "", err
		}
	}
	return "", "", fmt.Errorf("line exceeds %d bytes", max)
}
