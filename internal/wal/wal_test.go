package wal

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"rfidraw/internal/rfid"
)

// testMeta is a fixed session identity for the round-trip tests.
func testMeta() Meta {
	return Meta{ID: "sess-1", Created: time.Unix(0, 1234567890), Sweep: 50 * time.Millisecond}
}

// testReports fabricates n deterministic reports.
func testReports(n int) []rfid.Report {
	rng := rand.New(rand.NewSource(42))
	out := make([]rfid.Report, n)
	for i := range out {
		out[i] = rfid.Report{
			Time:      time.Duration(i) * 10 * time.Millisecond,
			ReaderID:  i % 2,
			AntennaID: 1 + i%4,
			EPC:       rfid.RandomEPC(rng),
			PhaseRad:  rng.Float64() * 6.28,
			PowerDB:   -30 - rng.Float64()*10,
		}
	}
	return out
}

// writeLog appends reports (with a flush every flushEvery reports) and
// returns the store. close_ appends the clean-close record and compacts.
func writeLog(t *testing.T, dir string, opts Options, reports []rfid.Report, flushEvery int, close_ bool) *Store {
	t.Helper()
	st, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	l, err := st.Create(testMeta())
	if err != nil {
		t.Fatal(err)
	}
	seq := uint64(0)
	for i, rep := range reports {
		seq++
		if err := l.AppendReport(seq, rep); err != nil {
			t.Fatal(err)
		}
		if flushEvery > 0 && (i+1)%flushEvery == 0 {
			seq++
			if err := l.AppendFlush(seq); err != nil {
				t.Fatal(err)
			}
		}
	}
	if close_ {
		seq++
		if err := l.Close(seq); err != nil {
			t.Fatal(err)
		}
	} else if err := l.Abandon(); err != nil {
		t.Fatal(err)
	}
	return st
}

// collect replays a session into a slice.
func collect(t *testing.T, st *Store, id string, upTo uint64) []Record {
	t.Helper()
	var out []Record
	if err := st.Replay(id, upTo, func(r Record) error {
		out = append(out, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestWALAppendZeroAllocs gates the serving path's durability step at
// zero allocations: with fsync off (NoSync, as BenchmarkWALAppend runs
// it), one released batch of 16 reports frames into the log's buffer and
// commits with one write without allocating.
func TestWALAppendZeroAllocs(t *testing.T) {
	store, err := Open(t.TempDir(), Options{NoSync: true, SegmentBytes: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	log, err := store.Create(testMeta())
	if err != nil {
		t.Fatal(err)
	}
	rep := testReports(1)[0]
	seq := uint64(0)
	allocs := testing.AllocsPerRun(200, func() {
		for range 16 {
			seq++
			rep.Time += 6 * time.Millisecond
			if err := log.AppendReport(seq, rep); err != nil {
				t.Fatal(err)
			}
		}
		if err := log.Commit(); err != nil {
			t.Fatal(err)
		}
	})
	if err := log.Abandon(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("a 16-report append and commit costs %v allocations, want 0", allocs)
	}
}

// TestCommitWritesPendingRecords: appended records stay in the log's
// buffer until Commit writes them together, and a sync — every
// SyncEvery-th report append and every flush — commits first, so the
// fsync cadence is the appends' own.
func TestCommitWritesPendingRecords(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{NoSync: true, SyncEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	l, err := st.Create(testMeta())
	if err != nil {
		t.Fatal(err)
	}
	size := func() int64 {
		t.Helper()
		fi, err := os.Stat(filepath.Join(dir, "sess-1", "00000001.wal"))
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	const report, marker = frameHeader + reportPayloadLen, frameHeader + 9
	meta := size()
	reports := testReports(5)
	for i, want := range []int64{0, 0, 2 * report, 4 * report, 4 * report} {
		if err := l.AppendReport(uint64(i+1), reports[i]); err != nil {
			t.Fatal(err)
		}
		if got := size() - meta; got != want {
			t.Fatalf("after append %d the segment holds %d record bytes, want %d", i+1, got, want)
		}
		if i == 1 {
			if err := l.Commit(); err != nil {
				t.Fatal(err)
			}
			if got := size() - meta; got != 2*report {
				t.Fatalf("commit wrote %d record bytes, want %d", got, 2*report)
			}
		}
	}
	if err := l.AppendFlush(6); err != nil {
		t.Fatal(err)
	}
	if got := size() - meta; got != 5*report+marker {
		t.Fatalf("after the flush the segment holds %d record bytes, want %d", got, 5*report+marker)
	}
	if err := l.Abandon(); err != nil {
		t.Fatal(err)
	}
}

// TestRoundTrip: meta, reports, flush markers and the close record
// survive a write/read cycle byte-exactly, with clean stats.
func TestRoundTrip(t *testing.T) {
	reports := testReports(100)
	st := writeLog(t, t.TempDir(), Options{NoSync: true}, reports, 10, true)

	meta, stats, err := st.Scan("sess-1")
	if err != nil {
		t.Fatal(err)
	}
	if meta.ID != "sess-1" || meta.Sweep != 50*time.Millisecond || !meta.Created.Equal(time.Unix(0, 1234567890)) {
		t.Fatalf("meta = %+v", meta)
	}
	if stats.Reports != 100 || stats.Flushes != 10 || !stats.CleanClose {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.TornBytes != 0 {
		t.Fatalf("undamaged log reports %d torn bytes", stats.TornBytes)
	}

	recs := collect(t, st, "sess-1", 0)
	ri := 0
	for _, rec := range recs {
		if rec.Type != RecordReport {
			continue
		}
		if rec.Report != reports[ri] {
			t.Fatalf("report %d: %+v != %+v", ri, rec.Report, reports[ri])
		}
		ri++
	}
	if ri != len(reports) {
		t.Fatalf("replayed %d reports, want %d", ri, len(reports))
	}
}

// TestRotationAndCompaction: a tiny segment budget forces many segments;
// replay spans them all, and a clean close compacts to the single
// authoritative segment with identical content.
func TestRotationAndCompaction(t *testing.T) {
	dir := t.TempDir()
	reports := testReports(200)
	st := writeLog(t, dir, Options{NoSync: true, SegmentBytes: 512}, reports, 0, false)

	segs, err := segmentFiles(st.sessionDir("sess-1"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("512-byte budget produced only %d segments", len(segs))
	}
	before := collect(t, st, "sess-1", 0)

	// Compact (as a clean close would) and re-read: same records.
	if err := compact(st.sessionDir("sess-1")); err != nil {
		t.Fatal(err)
	}
	segs, _ = segmentFiles(st.sessionDir("sess-1"))
	if len(segs) != 1 || filepath.Base(segs[0]) != compactedName {
		t.Fatalf("post-compaction segments: %v", segs)
	}
	after := collect(t, st, "sess-1", 0)
	if len(before) != len(after) {
		t.Fatalf("compaction changed record count %d -> %d", len(before), len(after))
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("record %d changed: %+v -> %+v", i, before[i], after[i])
		}
	}
	// Meta must still be recoverable from the compacted form.
	if meta, _, err := st.Scan("sess-1"); err != nil || meta.ID != "sess-1" {
		t.Fatalf("compacted scan: meta=%+v err=%v", meta, err)
	}
}

// TestCompactKeepsRecordBytes: compacting a log several times larger
// than compaction's write buffer, over several segments, writes exactly
// the segments' bytes in order with every meta record after the first
// dropped — each record's frame unchanged, none lost at a buffer boundary.
func TestCompactKeepsRecordBytes(t *testing.T) {
	dir := t.TempDir()
	st := writeLog(t, dir, Options{NoSync: true, SegmentBytes: 64 << 10}, testReports(8000), 100, false)
	segs, err := segmentFiles(st.sessionDir("sess-1"))
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	metas := 0
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off < len(data); {
			payload, n, ok := decodeFrame(data[off:])
			if !ok {
				t.Fatalf("%s: bad frame at %d", seg, off)
			}
			if payload[0] != typeMeta || metas == 0 {
				want = append(want, data[off:off+n]...)
			}
			if payload[0] == typeMeta {
				metas++
			}
			off += n
		}
	}
	if metas < 3 || len(want) < 4*compactBuffer {
		t.Fatalf("test premise broken: %d segments, %d bytes", metas, len(want))
	}
	if err := compact(st.sessionDir("sess-1")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(st.sessionDir("sess-1"), compactedName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("compacted %d bytes differ from the %d bytes of the segments' records", len(got), len(want))
	}
}

// TestUpToStopsAtHead: Replay(upTo) must deliver records through the
// given seq and nothing after — the catch-up reader's contract.
func TestUpToStopsAtHead(t *testing.T) {
	st := writeLog(t, t.TempDir(), Options{NoSync: true}, testReports(50), 10, true)
	recs := collect(t, st, "sess-1", 23)
	if len(recs) == 0 || recs[len(recs)-1].Seq != 23 {
		t.Fatalf("upTo=23 ended at seq %d (%d records)", recs[len(recs)-1].Seq, len(recs))
	}
}

// TestTornTailRecovery is the satellite gate: truncate the last segment
// at EVERY byte offset inside the final record and assert recovery never
// panics, drops exactly the torn record, and replays the undamaged
// prefix intact.
func TestTornTailRecovery(t *testing.T) {
	src := t.TempDir()
	reports := testReports(30)
	writeLog(t, src, Options{NoSync: true}, reports, 0, false)
	seg := filepath.Join(src, "sess-1", "00000001.wal")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	lastFrame := frameHeader + reportPayloadLen
	full := collect(t, mustOpen(t, src), "sess-1", 0)
	if len(full) != 30 {
		t.Fatalf("intact log has %d records, want 30", len(full))
	}

	for cut := len(data) - lastFrame + 1; cut < len(data); cut++ {
		dir := t.TempDir()
		if err := os.MkdirAll(filepath.Join(dir, "sess-1"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "sess-1", "00000001.wal"), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		st := mustOpen(t, dir)
		meta, stats, err := st.Scan("sess-1")
		if err != nil {
			t.Fatalf("cut=%d: scan: %v", cut, err)
		}
		if meta.ID != "sess-1" {
			t.Fatalf("cut=%d: meta lost: %+v", cut, meta)
		}
		if stats.Reports != 29 {
			t.Fatalf("cut=%d: recovered %d reports, want 29 (only the torn record drops)", cut, stats.Reports)
		}
		if stats.TornBytes == 0 {
			t.Fatalf("cut=%d: truncation not accounted", cut)
		}
		recs := collect(t, st, "sess-1", 0)
		for i, rec := range recs {
			if rec != full[i] {
				t.Fatalf("cut=%d: record %d diverged from undamaged prefix", cut, i)
			}
		}
	}
}

// TestMidSegmentCorruptionResyncs: flipping bytes inside a middle record
// loses that record only; the reader re-locks on the next frame.
func TestMidSegmentCorruptionResyncs(t *testing.T) {
	dir := t.TempDir()
	writeLog(t, dir, Options{NoSync: true}, testReports(20), 0, false)
	seg := filepath.Join(dir, "sess-1", "00000001.wal")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt record #10's payload (meta record is first; records are
	// fixed-size after it).
	metaLen := frameHeader + 26 + len("sess-1")
	off := metaLen + 9*(frameHeader+reportPayloadLen) + frameHeader + 5
	for i := 0; i < 4; i++ {
		data[off+i] ^= 0xff
	}
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	st := mustOpen(t, dir)
	_, stats, err := st.Scan("sess-1")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Reports != 19 {
		t.Fatalf("recovered %d reports, want 19 (one corrupted)", stats.Reports)
	}
	if stats.TornBytes == 0 {
		t.Fatal("corruption not accounted")
	}
}

// TestSessionsListAndRemove covers the store-level directory API.
func TestSessionsListAndRemove(t *testing.T) {
	dir := t.TempDir()
	st := writeLog(t, dir, Options{NoSync: true}, testReports(5), 0, true)
	l2, err := st.Create(Meta{ID: "sess-2", Created: time.Now(), Sweep: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(1); err != nil {
		t.Fatal(err)
	}
	ids, err := st.Sessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != "sess-1" || ids[1] != "sess-2" {
		t.Fatalf("sessions = %v", ids)
	}
	u := st.Usage()
	if u.Sessions != 2 || u.Segments < 2 || u.Bytes == 0 {
		t.Fatalf("usage = %+v", u)
	}
	if err := st.Remove("sess-1"); err != nil {
		t.Fatal(err)
	}
	if ids, _ = st.Sessions(); len(ids) != 1 || ids[0] != "sess-2" {
		t.Fatalf("sessions after remove = %v", ids)
	}
}

func mustOpen(t *testing.T, dir string) *Store {
	t.Helper()
	st, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestGoldenBytes pins the frozen on-disk format: a fixed log (a meta
// with a geometry and a search override, one report, a flush and the
// close) compacts to exactly these bytes. Framing, field order and
// encoding are all covered, which the round-trip tests alone cannot
// see: a change symmetric in writer and reader still round-trips.
func TestGoldenBytes(t *testing.T) {
	st, err := Open(t.TempDir(), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	l, err := st.Create(Meta{
		ID: "golden", Created: time.Unix(0, 1234567890), Sweep: 50 * time.Millisecond,
		Geometry: "rotated", Search: SearchMeta{Mode: 2, TopK: 3, Levels: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := rfid.Report{
		Time: 1500 * time.Millisecond, ReaderID: 1, AntennaID: 3,
		EPC:      rfid.EPC{0xe2, 0x00, 0x68, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99},
		PhaseRad: 1.25, PowerDB: -31.5,
	}
	if err := l.AppendReport(1, rep); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendFlush(2); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(3); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(st.sessionDir("golden"), compactedName))
	if err != nil {
		t.Fatal(err)
	}
	const want = "" +
		// meta: len, crc, type, version, created, sweep, geometry len,
		// search (mode, top_k, levels), reserved, id len, id, geometry
		"00000027" + "1a35b4c8" + "0101" + "00000000499602d2" + "0000000002faf080" + "07" +
		"020301" + "000000" + "06" + "676f6c64656e" + "726f7461746564" +
		// report: len, crc, type, seq, time, reader, antenna, EPC,
		// phase, power
		"0000002f" + "c0ede0c1" + "02" + "0000000000000001" + "0000000059682f00" + "01" + "03" +
		"e20068112233445566778899" + "3ff4000000000000" + "c03f800000000000" +
		// flush and close: len, crc, type, seq
		"00000009" + "318a4947" + "03" + "0000000000000002" +
		"00000009" + "22ec1418" + "04" + "0000000000000003"
	if g := hex.EncodeToString(got); g != want {
		t.Fatalf("log bytes changed:\n got %s\nwant %s", g, want)
	}
}
