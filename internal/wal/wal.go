// Package wal is the durability layer of the serving stack: a per-session
// write-ahead log of the canonical resequenced report stream. The session
// appends every report *after* the cross-reader reorder buffer has
// released it, so the log is exactly the stream the tracking engine saw,
// in the order it saw it — which makes a replay of the log reproduce the
// live trace bit for bit (the same one-core-two-schedulers property the
// batch/streaming equivalence gate enforces, extended to disk).
//
// Appends are group-committed: an append frames its record into the
// log's buffer, and Log.Commit writes every pending record with one write
// call. The session commits each released batch before any of its
// reports reaches the engine, so a process crash loses no record of a traced
// report.
//
// # Layout
//
// Each session owns one directory under the store root, named by its
// (filesystem-safe) session ID, holding numbered segment files:
//
//	<root>/<session-id>/00000001.wal
//	<root>/<session-id>/00000002.wal
//	...
//
// Segments rotate by size. Every segment opens with
// a meta record, so any segment is self-describing. Closing a log
// compacts the session to a single 00000000.wal segment (which sorts
// before all append segments and is authoritative when present, making
// compaction crash-safe: a crash between the rename and the deletion of
// the old segments leaves a readable, de-duplicated session).
//
// # Record framing
//
// Every record is length- and CRC-framed:
//
//	uint32  payload length (big endian, excluding the 8-byte frame)
//	uint32  CRC-32 (IEEE) of the payload
//	...     payload: type byte + type-specific fields
//
// Record types: meta (session identity, sweep cadence), report (one
// sequenced reader report), flush (the session drained and closed open
// sweeps — replays must flush there too, or they diverge from the live
// trace), close (clean end of session).
//
// # Recovery
//
// Reading is resync-tolerant in the readerwire spirit: a damaged record
// (bad CRC, implausible length) makes the reader slide forward byte by
// byte until it locks onto the next valid frame instead of abandoning
// the session; a torn tail (the process died mid-append, or the last
// sector never hit the platter) drops exactly the torn record and
// nothing else.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"rfidraw/internal/rfid"
)

// Record type bytes.
const (
	typeMeta   = 0x01
	typeReport = 0x02
	typeFlush  = 0x03
	typeClose  = 0x04
)

// walVersion identifies the record format revision inside meta records.
const walVersion = 1

// maxPayload bounds a record payload; anything larger is rejected as
// corrupt framing (the largest real payload is a meta record with a
// 64-byte session ID).
const maxPayload = 1 << 12

// frameHeader is the fixed per-record framing overhead.
const frameHeader = 8

// Options tunes a Store.
type Options struct {
	// SegmentBytes rotates the active segment once it grows past this.
	// Default 4 MiB.
	SegmentBytes int64
	// SyncEvery fsyncs the active segment every N report appends; 1
	// syncs every append (maximum durability, one fsync per report).
	// Flush and close records always sync, and a sync commits the
	// pending records first. Default 64.
	SyncEvery int
	// NoSync disables fsync entirely (tests and benchmarks).
	NoSync bool
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.SyncEvery <= 0 {
		o.SyncEvery = 64
	}
	return o
}

// Meta identifies a logged session.
type Meta struct {
	// ID is the session's registry identity (filesystem-safe by the
	// registry's ID charset).
	ID string
	// Created is the session's creation time.
	Created time.Time
	// Sweep is the session's per-tag reader cadence — a replay needs it
	// to rebuild the tracking pipeline the live session ran.
	Sweep time.Duration
	// Geometry names the session's antenna geometry (deploy registry
	// name); "" is the default deployment. A replay rebuilds the same
	// steering tables the live session positioned with. Stored in a
	// formerly reserved meta byte, so logs written before geometries
	// existed decode to "".
	Geometry string
	// Search carries the session's per-session vote-search override, if
	// any: a replay must rebuild the same steering tables the live
	// session searched with, or the retrace diverges. Stored in formerly
	// reserved meta bytes, so older logs decode to the zero value (no
	// override).
	Search SearchMeta
}

// SearchMeta is the wire form of a per-session search override in the
// meta record. The zero value means "no override" (deployment default).
type SearchMeta struct {
	// Mode is 0 (no override), 1 (hierarchical) or 2 (dense).
	Mode uint8
	// TopK and Levels mirror the search configuration's fields (the
	// registry validates they fit a byte before opening the session).
	TopK   uint8
	Levels uint8
}

// Record is one decoded log entry.
type Record struct {
	// Seq is the session-scoped record sequence number (reports and
	// flushes share one monotonic counter).
	Seq uint64
	// Type is one of RecordReport, RecordFlush, RecordClose.
	Type RecordType
	// Report carries the reader report for RecordReport entries.
	Report rfid.Report
}

// RecordType enumerates replayable record kinds.
type RecordType uint8

// Replayable record kinds, in the order a session emits them.
const (
	RecordReport RecordType = iota + 1
	RecordFlush
	RecordClose
)

// Stats summarizes one session's log as recovered from disk.
type Stats struct {
	// Records, Reports and Flushes count decoded entries.
	Records, Reports, Flushes int
	// LastSeq is the highest sequence number seen.
	LastSeq uint64
	// CleanClose reports a close record was found (the session shut down
	// cleanly rather than crashing).
	CleanClose bool
	// TornBytes counts bytes dropped or skipped recovering damaged or
	// torn records; 0 on an undamaged log.
	TornBytes int64
	// Segments and Bytes describe the on-disk footprint.
	Segments int
	Bytes    int64
}

// Usage is a store-wide footprint summary for metrics.
type Usage struct {
	Sessions, Segments int
	Bytes              int64
}

// Store is a directory of per-session logs.
type Store struct {
	dir  string
	opts Options

	// mu serializes session create/remove against directory scans.
	mu sync.Mutex
}

// Open opens (creating if needed) a store rooted at dir.
func Open(dir string, opts Options) (*Store, error) {
	if dir == "" {
		return nil, errors.New("wal: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	return &Store{dir: dir, opts: opts.withDefaults()}, nil
}

// sessionDir maps a session ID onto its directory.
func (st *Store) sessionDir(id string) string { return filepath.Join(st.dir, id) }

// Create starts a fresh log for a session, truncating any retained log
// under the same ID (the registry guarantees ID uniqueness among live
// and recovered sessions; a leftover directory is a forgotten one).
func (st *Store) Create(meta Meta) (*Log, error) {
	if err := validateMeta(meta); err != nil {
		return nil, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	dir := st.sessionDir(meta.ID)
	if err := os.RemoveAll(dir); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{dir: dir, meta: meta, opts: st.opts, nextSeg: 1}
	if err := l.rotate(); err != nil {
		return nil, err
	}
	return l, nil
}

// AppendTo reopens a retained session log for appending — the resume
// path: a parked (recovered) session coming back live must extend its
// record, never truncate it. A compacted 00000000.wal (authoritative
// when present) is renamed into the ordinary segment sequence so it is
// no longer authoritative over the segments appended after it; then a
// fresh segment opens with the given meta. The caller owns sequence
// continuity: new records must carry sequence numbers past the retained
// head, and the close record already mid-log replays as a flush (the
// boundary the session drained at when it was parked).
func (st *Store) AppendTo(meta Meta) (*Log, error) {
	if err := validateMeta(meta); err != nil {
		return nil, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	dir := st.sessionDir(meta.ID)
	matches, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	if len(matches) == 0 {
		return nil, fmt.Errorf("wal: session %s: no retained log to append to", meta.ID)
	}
	sort.Strings(matches)
	nextSeg := 1
	if filepath.Base(matches[0]) == compactedName {
		// The compacted segment holds the whole session; anything else is
		// a straggler from a crash mid-compaction and already folded in.
		for _, m := range matches[1:] {
			os.Remove(m)
		}
		if err := os.Rename(matches[0], filepath.Join(dir, fmt.Sprintf("%08d.wal", 1))); err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		nextSeg = 2
	} else {
		last := strings.TrimSuffix(filepath.Base(matches[len(matches)-1]), ".wal")
		n, err := strconv.Atoi(last)
		if err != nil {
			return nil, fmt.Errorf("wal: session %s: segment %q: %w", meta.ID, last, err)
		}
		nextSeg = n + 1
	}
	l := &Log{dir: dir, meta: meta, opts: st.opts, nextSeg: nextSeg}
	if err := l.rotate(); err != nil {
		return nil, err
	}
	return l, nil
}

// validateMeta checks the fields Create/AppendTo encode into the meta
// record.
func validateMeta(meta Meta) error {
	if meta.ID == "" {
		return errors.New("wal: empty session ID")
	}
	if len(meta.Geometry) > 255 {
		return fmt.Errorf("wal: geometry name %d bytes long", len(meta.Geometry))
	}
	return nil
}

// Sessions lists the IDs with retained logs.
func (st *Store) Sessions() ([]string, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var ids []string
	for _, e := range entries {
		if e.IsDir() {
			ids = append(ids, e.Name())
		}
	}
	sort.Strings(ids)
	return ids, nil
}

// Remove deletes a session's log.
func (st *Store) Remove(id string) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return os.RemoveAll(st.sessionDir(id))
}

// Usage walks the store and reports its footprint (metrics scrapes).
func (st *Store) Usage() Usage {
	var u Usage
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return u
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		u.Sessions++
		segs, err := segmentFiles(filepath.Join(st.dir, e.Name()))
		if err != nil {
			continue
		}
		u.Segments += len(segs)
		for _, seg := range segs {
			if fi, err := os.Stat(seg); err == nil {
				u.Bytes += fi.Size()
			}
		}
	}
	return u
}

// Scan reads a session's log without retaining records: its meta and
// summary stats. It never fails on damaged records — they are counted in
// Stats.TornBytes — only on an unreadable directory or a log whose meta
// cannot be recovered from any segment.
func (st *Store) Scan(id string) (Meta, Stats, error) {
	var meta Meta
	var haveMeta bool
	var stats Stats
	err := st.replay(id, 0, func(r Record) error {
		stats.Records++
		switch r.Type {
		case RecordReport:
			stats.Reports++
		case RecordFlush:
			stats.Flushes++
		case RecordClose:
			stats.CleanClose = true
		}
		if r.Seq > stats.LastSeq {
			stats.LastSeq = r.Seq
		}
		return nil
	}, &meta, &haveMeta, &stats)
	if err != nil {
		return Meta{}, Stats{}, err
	}
	if !haveMeta {
		return Meta{}, Stats{}, fmt.Errorf("wal: session %s: no recoverable meta record", id)
	}
	return meta, stats, nil
}

// Replay streams a session's records through fn in order. upTo > 0 stops
// after the record with that sequence number has been delivered — the
// catch-up reader uses it to stop at the live head it snapshotted, which
// also makes reading concurrently-appended logs safe (everything at or
// below a synced head is complete on disk). fn errors abort the replay.
func (st *Store) Replay(id string, upTo uint64, fn func(Record) error) error {
	var meta Meta
	var haveMeta bool
	var stats Stats
	return st.replay(id, upTo, fn, &meta, &haveMeta, &stats)
}

// errStopReplay signals the upTo cutoff internally.
var errStopReplay = errors.New("wal: stop replay")

func (st *Store) replay(id string, upTo uint64, fn func(Record) error, meta *Meta, haveMeta *bool, stats *Stats) error {
	segs, err := segmentFiles(st.sessionDir(id))
	if err != nil {
		return fmt.Errorf("wal: session %s: %w", id, err)
	}
	if len(segs) == 0 {
		return fmt.Errorf("wal: session %s: no segments", id)
	}
	stats.Segments = len(segs)
	for _, seg := range segs {
		if err := readSegment(seg, upTo, fn, meta, haveMeta, stats); err != nil {
			if errors.Is(err, errStopReplay) {
				return nil
			}
			return fmt.Errorf("wal: session %s: %w", id, err)
		}
	}
	return nil
}

// segmentFiles lists a session's segments in replay order. A compacted
// 00000000.wal is authoritative: when present (a clean close, or a crash
// between compaction's rename and its cleanup of the old segments) it
// holds the whole session, so the append segments are ignored.
func segmentFiles(dir string) ([]string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil {
		return nil, err
	}
	sort.Strings(matches)
	if len(matches) > 0 && filepath.Base(matches[0]) == compactedName {
		return matches[:1], nil
	}
	return matches, nil
}

// readSegment decodes one segment file, resync-scanning past damage.
func readSegment(path string, upTo uint64, fn func(Record) error, meta *Meta, haveMeta *bool, stats *Stats) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	stats.Bytes += int64(len(data))
	off := 0
	for off < len(data) {
		payload, frameLen, ok := decodeFrame(data[off:])
		if !ok {
			// Damaged or torn: slide one byte and hunt for the next valid
			// frame. At the tail this consumes the torn record and stops.
			stats.TornBytes++
			off++
			continue
		}
		off += frameLen
		rec, m, err := decodePayload(payload)
		if err != nil {
			// CRC-valid but semantically bad (version skew): count and skip.
			stats.TornBytes += int64(frameLen)
			continue
		}
		if m != nil {
			if !*haveMeta {
				*meta, *haveMeta = *m, true
			}
			continue
		}
		if err := fn(rec); err != nil {
			return err
		}
		if upTo > 0 && rec.Seq >= upTo {
			return errStopReplay
		}
	}
	return nil
}

// decodeFrame validates one frame at the head of b, returning its payload
// and total frame length. ok is false when the bytes cannot be a complete,
// CRC-valid frame.
func decodeFrame(b []byte) (payload []byte, frameLen int, ok bool) {
	if len(b) < frameHeader {
		return nil, 0, false
	}
	n := binary.BigEndian.Uint32(b)
	if n == 0 || n > maxPayload || len(b) < frameHeader+int(n) {
		return nil, 0, false
	}
	payload = b[frameHeader : frameHeader+int(n)]
	if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(b[4:]) {
		return nil, 0, false
	}
	return payload, frameHeader + int(n), true
}

// decodePayload decodes a CRC-valid payload into a Record or a Meta.
func decodePayload(p []byte) (Record, *Meta, error) {
	switch p[0] {
	case typeMeta:
		if len(p) < 26 || p[1] != walVersion {
			return Record{}, nil, fmt.Errorf("wal: meta version %d", p[1])
		}
		// p[18] was reserved (always zero) before geometries existed; it
		// now carries the geometry-name length, with the name appended
		// after the ID. Old logs decode to Geometry "".
		geoLen := int(p[18])
		idLen := int(p[25])
		if len(p) != 26+idLen+geoLen {
			return Record{}, nil, fmt.Errorf("wal: meta length %d", len(p))
		}
		return Record{}, &Meta{
			Created:  time.Unix(0, int64(binary.BigEndian.Uint64(p[2:]))),
			Sweep:    time.Duration(binary.BigEndian.Uint64(p[10:])),
			Search:   SearchMeta{Mode: p[19], TopK: p[20], Levels: p[21]},
			ID:       string(p[26 : 26+idLen]),
			Geometry: string(p[26+idLen:]),
		}, nil
	case typeReport:
		if len(p) != reportPayloadLen {
			return Record{}, nil, fmt.Errorf("wal: report length %d", len(p))
		}
		rec := Record{Type: RecordReport, Seq: binary.BigEndian.Uint64(p[1:])}
		rec.Report.Time = time.Duration(binary.BigEndian.Uint64(p[9:]))
		rec.Report.ReaderID = int(p[17])
		rec.Report.AntennaID = int(p[18])
		copy(rec.Report.EPC[:], p[19:31])
		rec.Report.PhaseRad = math.Float64frombits(binary.BigEndian.Uint64(p[31:]))
		rec.Report.PowerDB = math.Float64frombits(binary.BigEndian.Uint64(p[39:]))
		return rec, nil, nil
	case typeFlush, typeClose:
		if len(p) != 9 {
			return Record{}, nil, fmt.Errorf("wal: marker length %d", len(p))
		}
		typ := RecordFlush
		if p[0] == typeClose {
			typ = RecordClose
		}
		return Record{Type: typ, Seq: binary.BigEndian.Uint64(p[1:])}, nil, nil
	default:
		return Record{}, nil, fmt.Errorf("wal: unknown record type 0x%02x", p[0])
	}
}

// reportPayloadLen is the exact report payload size: type + seq + time +
// reader + antenna + EPC + phase + power.
const reportPayloadLen = 1 + 8 + 8 + 1 + 1 + 12 + 8 + 8

// compactedName is the single-segment form of a closed session.
const compactedName = "00000000.wal"

// Log is one session's open, appendable log. It is not safe for
// concurrent use: the caller serializes appends (the session's ingest
// lock).
// Appended records stay pending in the log's buffer until Commit, or a
// Sync, writes them.
type Log struct {
	dir  string
	meta Meta
	opts Options

	f        *os.File
	nextSeg  int
	segBytes int64
	appends  int    // report appends since the last sync
	pending  []byte // framed records not yet written
	bytes    int64
	closed   bool
}

// rotate closes the active segment (if any) and opens the next, writing
// its opening meta record.
func (l *Log) rotate() error {
	if l.f != nil {
		if err := l.syncClose(); err != nil {
			return err
		}
	}
	path := filepath.Join(l.dir, fmt.Sprintf("%08d.wal", l.nextSeg))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.f, l.segBytes = f, 0
	l.nextSeg++
	return l.seal(l.encodeMeta(), true)
}

// frame starts a record after the pending ones: the frame header slots,
// zeroed, for seal to fill in once the payload follows them.
func (l *Log) frame() []byte {
	return append(l.pending, make([]byte, frameHeader)...)
}

// encodeMeta frames the meta payload.
func (l *Log) encodeMeta() []byte {
	p := l.frame()
	p = append(p, typeMeta, walVersion)
	p = binary.BigEndian.AppendUint64(p, uint64(l.meta.Created.UnixNano()))
	p = binary.BigEndian.AppendUint64(p, uint64(l.meta.Sweep))
	p = append(p, byte(len(l.meta.Geometry)))
	// Three formerly reserved bytes carry the search override (zero = no
	// override, which is also what pre-search logs decode to).
	p = append(p, l.meta.Search.Mode, l.meta.Search.TopK, l.meta.Search.Levels)
	p = append(p, 0, 0, 0) // reserved
	p = append(p, byte(len(l.meta.ID)))
	p = append(p, l.meta.ID...)
	p = append(p, l.meta.Geometry...)
	return p
}

// seal completes the record that frame started at the end of buf (the
// pending records grown by it) — the payload's length and CRC into the
// header slots — and keeps it pending, maintaining the sync policy. sync
// forces a Sync regardless of the policy.
func (l *Log) seal(buf []byte, sync bool) error {
	if l.closed {
		return errors.New("wal: log closed")
	}
	rec := buf[len(l.pending):]
	payload := rec[frameHeader:]
	binary.BigEndian.PutUint32(rec, uint32(len(payload)))
	binary.BigEndian.PutUint32(rec[4:], crc32.ChecksumIEEE(payload))
	l.pending = buf
	n := int64(len(rec))
	l.segBytes += n
	l.bytes += n
	if sync {
		return l.Sync()
	}
	l.appends++
	if l.appends >= l.opts.SyncEvery {
		return l.Sync()
	}
	return nil
}

// AppendReport logs one sequenced report, rotating the segment first if
// the active one is over its size budget. The record is written by the
// next Commit, or by the Sync that every SyncEvery-th append runs.
func (l *Log) AppendReport(seq uint64, rep rfid.Report) error {
	if l.segBytes >= l.opts.SegmentBytes {
		if err := l.rotate(); err != nil {
			return err
		}
	}
	p := l.frame()
	p = append(p, typeReport)
	p = binary.BigEndian.AppendUint64(p, seq)
	p = binary.BigEndian.AppendUint64(p, uint64(rep.Time))
	p = append(p, byte(rep.ReaderID), byte(rep.AntennaID))
	p = append(p, rep.EPC[:]...)
	p = binary.BigEndian.AppendUint64(p, math.Float64bits(rep.PhaseRad))
	p = binary.BigEndian.AppendUint64(p, math.Float64bits(rep.PowerDB))
	return l.seal(p, false)
}

// AppendFlush logs a session drain (always synced: a flush is the boundary
// retrace and catch-up snapshot at, so it must be durable and complete
// on disk when the append returns).
func (l *Log) AppendFlush(seq uint64) error { return l.appendMarker(typeFlush, seq) }

// appendClose logs the clean end of the session.
func (l *Log) appendClose(seq uint64) error { return l.appendMarker(typeClose, seq) }

func (l *Log) appendMarker(typ byte, seq uint64) error {
	p := l.frame()
	p = append(p, typ)
	p = binary.BigEndian.AppendUint64(p, seq)
	return l.seal(p, true)
}

// Commit writes every pending record with one write call.
func (l *Log) Commit() error {
	if len(l.pending) == 0 {
		return nil
	}
	_, err := l.f.Write(l.pending)
	l.pending = l.pending[:0]
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

// Sync commits the pending records and fsyncs the active segment.
func (l *Log) Sync() error {
	l.appends = 0
	if err := l.Commit(); err != nil {
		return err
	}
	if l.opts.NoSync || l.f == nil {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

// Bytes reports the total bytes this log has appended.
func (l *Log) Bytes() int64 { return l.bytes }

// Segments reports how many segment files this log has opened over its
// lifetime; an increase between observations means a rotation happened.
func (l *Log) Segments() int { return l.nextSeg }

// syncClose flushes and closes the active segment file.
func (l *Log) syncClose() error {
	if err := l.Sync(); err != nil {
		return err
	}
	err := l.f.Close()
	l.f = nil
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

// Close appends a close record carrying seq, syncs, and compacts the
// session to a single segment. Idempotent.
func (l *Log) Close(seq uint64) error {
	if l.closed {
		return nil
	}
	if err := l.appendClose(seq); err != nil {
		return err
	}
	if err := l.syncClose(); err != nil {
		return err
	}
	l.closed = true
	return compact(l.dir)
}

// Abandon writes the pending records and closes the active segment
// without a close record or compaction, leaving the log as a crash after
// a commit would (tests and shutdown paths that must not mutate the
// on-disk state).
func (l *Log) Abandon() error {
	if l.closed {
		return nil
	}
	l.closed = true
	return l.syncClose()
}

// compactBuffer is the size of compaction's write buffer: a closed
// session's records go out in 64 KiB writes instead of two write calls
// per record.
const compactBuffer = 64 << 10

// compact rewrites a session's segments into the single authoritative
// 00000000.wal: temp file, fsync, rename, then delete the append
// segments. A crash at any point leaves a recoverable session — before
// the rename the temp file is ignored; after it the compacted segment
// wins over any stragglers.
func compact(dir string) error {
	segs, err := segmentFiles(dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if len(segs) == 1 && filepath.Base(segs[0]) == compactedName {
		return nil
	}
	tmp := filepath.Join(dir, "compact.tmp")
	out, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	w := bufio.NewWriterSize(out, compactBuffer)
	hdr := make([]byte, frameHeader)
	metaWritten := false
	var werr error
	writeFrame := func(payload []byte) {
		if werr != nil {
			return
		}
		binary.BigEndian.PutUint32(hdr, uint32(len(payload)))
		binary.BigEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
		if _, err := w.Write(hdr); err != nil {
			werr = err
			return
		}
		_, werr = w.Write(payload)
	}
	// Re-frame the decoded records: damage is shed here, so a compacted
	// session is always pristine. Only the first recoverable meta record
	// is kept (segments each open with one for self-description).
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			out.Close()
			os.Remove(tmp)
			return fmt.Errorf("wal: %w", err)
		}
		off := 0
		for off < len(data) {
			payload, frameLen, ok := decodeFrame(data[off:])
			if !ok {
				off++
				continue
			}
			off += frameLen
			if payload[0] == typeMeta {
				if !metaWritten {
					writeFrame(payload)
					metaWritten = true
				}
				continue
			}
			writeFrame(payload)
		}
	}
	if werr == nil {
		werr = w.Flush()
	}
	if werr == nil {
		werr = out.Sync()
	}
	if cerr := out.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: compact: %w", werr)
	}
	if err := os.Rename(tmp, filepath.Join(dir, compactedName)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: compact: %w", err)
	}
	for _, seg := range segs {
		if filepath.Base(seg) != compactedName {
			os.Remove(seg)
		}
	}
	return nil
}
