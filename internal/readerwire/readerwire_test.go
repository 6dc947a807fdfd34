package readerwire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"rfidraw/internal/rfid"
)

func sampleReport(rng *rand.Rand, t time.Duration) rfid.Report {
	return rfid.Report{
		Time:      t,
		ReaderID:  rng.Intn(2),
		AntennaID: 1 + rng.Intn(8),
		EPC:       rfid.RandomEPC(rng),
		PhaseRad:  rng.Float64() * 2 * math.Pi,
		PowerDB:   -40 + rng.Float64()*30,
	}
}

func TestRoundTripMessages(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	hello := Hello{Proto: ProtoVersion, ReaderID: 1, AntennaCount: 4, SweepInterval: 25 * time.Millisecond}
	if err := w.WriteHello(hello); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	reports := make([]rfid.Report, 50)
	for i := range reports {
		reports[i] = sampleReport(rng, time.Duration(i)*time.Millisecond)
		if err := w.WriteReport(reports[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.WriteBye(); err != nil {
		t.Fatal(err)
	}

	r := NewReader(&buf)
	msg, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if msg.Hello == nil || *msg.Hello != hello {
		t.Fatalf("hello = %+v", msg.Hello)
	}
	for i := range reports {
		msg, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if msg.Report == nil {
			t.Fatalf("message %d not a report", i)
		}
		if *msg.Report != reports[i] {
			t.Fatalf("report %d mismatch:\n got %+v\nwant %+v", i, *msg.Report, reports[i])
		}
	}
	msg, err = r.Next()
	if err != nil || msg.Bye == nil {
		t.Fatalf("expected bye, got %+v err %v", msg, err)
	}
	if _, err := r.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("after bye want EOF, got %v", err)
	}
}

func TestWriterRejectsOutOfRangeIDs(t *testing.T) {
	w := NewWriter(&bytes.Buffer{})
	if err := w.WriteReport(rfid.Report{ReaderID: 300}); err == nil {
		t.Fatal("oversized reader ID should error")
	}
	if err := w.WriteReport(rfid.Report{AntennaID: -1}); err == nil {
		t.Fatal("negative antenna ID should error")
	}
}

func TestReaderRejectsCorruptFrames(t *testing.T) {
	cases := map[string][]byte{
		"zero length":  {0, 0, 0, 0},
		"huge length":  {0xff, 0xff, 0xff, 0xff},
		"unknown type": {0, 0, 0, 1, 0x7f},
		"short hello":  {0, 0, 0, 2, TypeHello, 1},
		"short report": {0, 0, 0, 3, TypePhaseReport, 0, 1},
		"long bye":     {0, 0, 0, 2, TypeBye, 0},
		"trunc header": {0, 0},
		"wrong proto": func() []byte {
			var buf bytes.Buffer
			w := NewWriter(&buf)
			if err := w.WriteHello(Hello{Proto: 99}); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}(),
	}
	for name, raw := range cases {
		r := NewReader(bytes.NewReader(raw))
		if _, err := r.Next(); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: want ErrBadFrame, got %v", name, err)
		}
	}
}

func TestReaderRejectsBadPhase(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	rng := rand.New(rand.NewSource(2))
	rep := sampleReport(rng, 0)
	rep.PhaseRad = 17 // out of [0, 2π)
	if err := w.WriteReport(rep); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	if _, err := r.Next(); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("want ErrBadFrame, got %v", err)
	}
}

// Property: any report with in-range fields survives a round trip.
func TestQuickReportRoundTrip(t *testing.T) {
	f := func(readerID, antennaID uint8, ns int64, epc [12]byte, phaseFrac float64, power float64) bool {
		if math.IsNaN(phaseFrac) || math.IsInf(phaseFrac, 0) || math.IsNaN(power) {
			return true
		}
		rep := rfid.Report{
			Time:      time.Duration(ns & math.MaxInt64),
			ReaderID:  int(readerID),
			AntennaID: int(antennaID),
			EPC:       rfid.EPC(epc),
			PhaseRad:  math.Mod(math.Abs(phaseFrac), 2*math.Pi),
			PowerDB:   power,
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.WriteReport(rep); err != nil {
			return false
		}
		if err := w.Flush(); err != nil {
			return false
		}
		msg, err := NewReader(&buf).Next()
		if err != nil || msg.Report == nil {
			return false
		}
		return *msg.Report == rep
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// wireReports renders n reports, with no Hello or Bye, as wire bytes.
func wireReports(tb testing.TB, n int) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < n; i++ {
		if err := w.WriteReport(sampleReport(rng, time.Duration(i)*time.Millisecond)); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestDecodeZeroAllocs gates the ingest gateway's decode at zero
// allocations per report: a blocking Next, then every frame already
// buffered, over a stream several buffer fills long. Every report
// decodes into the Reader's own, and each one read back is the one
// written, though all share that storage.
func TestDecodeZeroAllocs(t *testing.T) {
	const reports = 4096
	wire := wireReports(t, reports)
	var want []rfid.Report
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < reports; i++ {
		want = append(want, sampleReport(rng, time.Duration(i)*time.Millisecond))
	}
	src := bytes.NewReader(wire)
	r := NewResyncReader(src)
	allocs := testing.AllocsPerRun(10, func() {
		src.Reset(wire)
		n := 0
		for {
			msg, err := r.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			for ok := true; ok; {
				if msg.Report == nil || n >= reports || *msg.Report != want[n] {
					t.Fatalf("message %d decoded as %+v", n, msg)
				}
				n++
				if msg, ok, err = r.NextBuffered(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if n != reports {
			t.Fatalf("decoded %d of %d reports", n, reports)
		}
	})
	if allocs != 0 {
		t.Fatalf("decoding %d reports makes %v allocs, want 0", reports, allocs)
	}
}

// TestWriteReportZeroAllocs gates every Go reader client's encode at
// zero allocations per report: each message is built behind its length
// slot in the Writer's buffer and written once.
func TestWriteReportZeroAllocs(t *testing.T) {
	w := NewWriter(io.Discard)
	rep := sampleReport(rand.New(rand.NewSource(7)), 0)
	allocs := testing.AllocsPerRun(1000, func() {
		rep.Time += time.Millisecond
		if err := w.WriteReport(rep); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("WriteReport makes %v allocs per report, want 0", allocs)
	}
}

// BenchmarkReaderDecode times the ingest gateway's decode per report
// (one op is one report), NextBuffered first and Next when the buffer
// runs dry, over a 4096-report stream read again from its start at EOF.
func BenchmarkReaderDecode(b *testing.B) {
	wire := wireReports(b, 4096)
	src := bytes.NewReader(wire)
	r := NewResyncReader(src)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; {
		msg, ok, err := r.NextBuffered()
		if err != nil {
			b.Fatal(err)
		}
		if !ok {
			if msg, err = r.Next(); errors.Is(err, io.EOF) {
				src.Reset(wire)
				continue
			} else if err != nil {
				b.Fatal(err)
			}
		}
		if msg.Report != nil {
			i++
		}
	}
}
