package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"net/http"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"rfidraw/internal/wal"
)

// knobJSON is k's JSON object, key by key.
func knobJSON(t *testing.T, k Knobs) map[string]json.RawMessage {
	t.Helper()
	raw, err := json.Marshal(k)
	if err != nil {
		t.Fatal(err)
	}
	return knobKeys(t, raw)
}

// knobKeys picks the runtime-knob keys out of a JSON object (a Knobs
// record, or a ControlState that inlines one).
func knobKeys(t *testing.T, raw []byte) map[string]json.RawMessage {
	t.Helper()
	var all map[string]json.RawMessage
	if err := json.Unmarshal(raw, &all); err != nil {
		t.Fatalf("%v: %s", err, raw)
	}
	out := map[string]json.RawMessage{}
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Knobs{})) {
		key, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		v, ok := all[key]
		if !ok {
			t.Fatalf("knob key %q missing from %s", key, raw)
		}
		out[key] = v
	}
	return out
}

// postConfig sends a raw POST /v1/control/config body.
func postConfig(t *testing.T, base, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(base+"/v1/control/config", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, []byte(readBody(t, resp))
}

// getControl fetches GET /v1/control's raw body.
func getControl(t *testing.T, base string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/control")
	if err != nil {
		t.Fatal(err)
	}
	return []byte(readBody(t, resp))
}

// TestKnobs is the runtime-knob table: every field round-trips under
// its JSON key through POST /v1/control/config's answer, GET
// /v1/control and Registry.Knobs; every invalid value is refused at both
// entries and leaves every knob as it was; a 0 threshold or capacity
// restores the default, a negative threshold disables its policy, and a
// null search restores the deployment default.
func TestKnobs(t *testing.T) {
	srv, _ := obsServer(t, nil)
	reg := srv.reg
	base := "http://" + srv.HTTPAddr()

	// The views that must agree with the record the registry publishes.
	views := func() map[string]map[string]json.RawMessage {
		return map[string]map[string]json.RawMessage{
			"GET /v1/control": knobKeys(t, getControl(t, base)),
			"Registry.Knobs":  knobJSON(t, reg.Knobs()),
		}
	}
	agree := func(label string, want map[string]json.RawMessage, got map[string]map[string]json.RawMessage) {
		t.Helper()
		for view, keys := range got {
			for key, raw := range want {
				if !bytes.Equal(keys[key], raw) {
					t.Errorf("%s: %s %s = %s, want %s", label, view, key, keys[key], raw)
				}
			}
		}
	}

	// Round trip: one key per patch, each set to a value off its default.
	set := Knobs{
		IdleMS:        45_000,
		RetainMS:      3_600_000,
		ShedThreshold: 0.8,
		ParkThreshold: 0.4,
		Capacity:      Capacity{SearchEvalsPerSec: 1234},
		Search:        &SearchJSON{Mode: "dense", TopK: 3, Levels: 2},
		TraceSampleN:  7,
		LogLevel:      "warn",
	}
	setJSON := knobJSON(t, set)
	if n := reflect.TypeOf(Knobs{}).NumField(); len(setJSON) != n {
		t.Fatalf("%d knob keys for %d fields", len(setJSON), n)
	}
	want := knobJSON(t, reg.Knobs())
	for _, key := range slices.Sorted(maps.Keys(setJSON)) {
		if bytes.Equal(want[key], setJSON[key]) {
			t.Fatalf("%s: test value %s is the default", key, setJSON[key])
		}
		status, body := postConfig(t, base, fmt.Sprintf(`{%q:%s}`, key, setJSON[key]))
		if status != http.StatusOK {
			t.Fatalf("patch %s: status %d: %s", key, status, body)
		}
		want[key] = setJSON[key]
		got := views()
		got["POST answer"] = knobKeys(t, body)
		agree("set "+key, want, got)
	}
	if !reflect.DeepEqual(reg.Knobs(), set) {
		t.Fatalf("knobs after the round trip = %+v, want %+v", reg.Knobs(), set)
	}
	// The search knob is what a session opened without one runs.
	sess, err := reg.Open(SessionSpec{ID: "default-search"})
	if err != nil {
		t.Fatal(err)
	}
	if got := toSearchJSON(sess.Search()); !reflect.DeepEqual(got, set.Search) {
		t.Fatalf("session search = %+v, want the knob's %+v", got, set.Search)
	}

	// Refusals: each invalid value is a 400 over HTTP and ErrBadSpec in
	// Go, and changes nothing.
	for _, body := range []string{
		`{"idle_ms":0}`,
		`{"idle_ms":-5}`,
		`{"retain_ms":-1}`,
		`{"capacity":{"search_evals_per_sec":-1}}`,
		`{"search":{"mode":"sideways"}}`,
		`{"search":{"top_k":300}}`,
		`{"search":{"levels":-1}}`,
		`{"trace_sample_n":-1}`,
		`{"log_level":"shouting"}`,
		`{"park_threshold":0.8}`,                     // park = shed
		`{"park_threshold":0.95}`,                    // park > shed
		`{"shed_threshold":0.3}`,                     // shed below park
		`{"shed_threshold":0.7,"park_threshold":0}`,  // below the default park
		`{"shed_threshold":0,"park_threshold":0.95}`, // above the default shed
		`{"wal_sync_every":1}`,                       // a removed knob
		`{"idle_ms":30000,"idle_msec":1}`,            // a typo beside a valid key
		`{"capacity":{"wal_bytes_per_sec":1}}`,       // a removed capacity field
		`{"idle_ms":"soon"}`,
		`{"idle_ms":`,
	} {
		status, resp := postConfig(t, base, body)
		if status != http.StatusBadRequest || !bytes.Contains(resp, []byte(`"bad_request"`)) {
			t.Errorf("patch %s: status %d (%s), want 400 bad_request", body, status, resp)
		}
		if err := reg.UpdateKnobs([]byte(body)); !errors.Is(err, ErrBadSpec) {
			t.Errorf("UpdateKnobs(%s) = %v, want ErrBadSpec", body, err)
		}
		agree("refused "+body, want, views())
	}

	// Defaults and disabling: 0 restores a threshold's or the capacity's
	// default, a negative threshold disables its policy.
	for _, tc := range []struct {
		body, key, want string
	}{
		{`{"shed_threshold":0}`, "shed_threshold", "0.9"},
		{`{"park_threshold":0}`, "park_threshold", "0.75"},
		{`{"capacity":{"search_evals_per_sec":0}}`, "capacity", `{"search_evals_per_sec":5000000}`},
		{`{"park_threshold":-1}`, "park_threshold", "-1"},
		{`{"shed_threshold":-1,"park_threshold":0.95}`, "park_threshold", "0.95"},
		{`{"search":null}`, "search", "null"},
	} {
		status, body := postConfig(t, base, tc.body)
		if status != http.StatusOK {
			t.Fatalf("patch %s: status %d: %s", tc.body, status, body)
		}
		want = knobKeys(t, body)
		if got := string(want[tc.key]); got != tc.want {
			t.Errorf("patch %s: %s = %s, want %s", tc.body, tc.key, got, tc.want)
		}
		agree("patch "+tc.body, want, views())
	}
}

// TestKnobSeedsFollowTheRules: NewRegistry takes a zero seed's default
// and refuses a seed that breaks a knob rule — the thresholds' effective
// values included.
func TestKnobSeedsFollowTheRules(t *testing.T) {
	reg := testRegistry(t, RegistryConfig{})
	k := reg.Knobs()
	want := Knobs{IdleMS: 120_000, ShedThreshold: 0.9, ParkThreshold: 0.75,
		Capacity: Capacity{SearchEvalsPerSec: 5e6}, LogLevel: "info"}
	if !reflect.DeepEqual(k, want) {
		t.Fatalf("default knobs = %+v, want %+v", k, want)
	}
	for _, tc := range []struct {
		name string
		cfg  RegistryConfig
		ok   bool
	}{
		{"negative idle", RegistryConfig{IdleTimeout: -time.Second}, false},
		{"negative retain", RegistryConfig{RetainFor: -time.Second}, false},
		{"negative capacity", RegistryConfig{Capacity: Capacity{SearchEvalsPerSec: -1}}, false},
		{"negative trace sampling", RegistryConfig{TraceSampleN: -1}, false},
		{"park above shed", RegistryConfig{ShedThreshold: 0.5, ParkThreshold: 0.6}, false},
		{"park equal to shed", RegistryConfig{ShedThreshold: 0.5, ParkThreshold: 0.5}, false},
		{"park above the default shed", RegistryConfig{ParkThreshold: 0.95}, false},
		{"the default park above shed", RegistryConfig{ShedThreshold: 0.5}, false},
		{"shedding disabled", RegistryConfig{ShedThreshold: -1, ParkThreshold: 0.95}, true},
		{"parking disabled", RegistryConfig{ShedThreshold: 0.2, ParkThreshold: -1}, true},
		{"both disabled", RegistryConfig{ShedThreshold: -1, ParkThreshold: -1}, true},
	} {
		tc.cfg.NewEngine = testFactory(t)
		tc.cfg.NoRecognize = true
		reg, err := NewRegistry(tc.cfg)
		if reg != nil {
			reg.Close()
		}
		if tc.ok && err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		if !tc.ok && !errors.Is(err, ErrBadSpec) {
			t.Errorf("%s: NewRegistry = %v, want ErrBadSpec", tc.name, err)
		}
	}
}

// TestKnobsConcurrent races knob writers, readers and a session's ingest
// (which reads trace_sample_n per released batch). Each writer counts its own
// key up, so a patch applied to a stale copy would publish the other
// key going backwards; a reader's copy, or a patch decoded onto the next
// record, never writes through to the published search. Meant for
// -race.
func TestKnobsConcurrent(t *testing.T) {
	run, _ := scenario(t)
	reg := testRegistry(t, RegistryConfig{NoRecognize: true})
	sess, err := reg.Open(SessionSpec{ID: "pump", Sweep: perTagSweep(run)})
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 2000
	var wg, writers sync.WaitGroup
	start := make(chan struct{})
	write := func(patch func(i int) string) {
		defer wg.Done()
		defer writers.Done()
		<-start
		for i := 1; i <= rounds; i++ {
			if err := reg.UpdateKnobs([]byte(patch(i))); err != nil {
				t.Error(err)
				return
			}
		}
	}
	wg.Add(5)
	writers.Add(2)
	go write(func(i int) string { return fmt.Sprintf(`{"trace_sample_n":%d}`, i) })
	go write(func(i int) string {
		// Decoded onto a copy whose search may be set: the decoder
		// writes into the copy's search block.
		if i == rounds {
			return fmt.Sprintf(`{"retain_ms":%d,"search":null}`, i)
		}
		return fmt.Sprintf(`{"retain_ms":%d,"search":{"top_k":%d}}`, i, i%8)
	})
	done := make(chan struct{})
	go func() {
		writers.Wait()
		close(done)
	}()
	go func() {
		defer wg.Done()
		<-start
		var last Knobs
		for {
			select {
			case <-done:
				return
			default:
			}
			k := reg.Knobs()
			if k.TraceSampleN < last.TraceSampleN || k.RetainMS < last.RetainMS {
				t.Errorf("lost update: %+v after %+v", k, last)
				return
			}
			last = k
			if k.Search != nil {
				k.Search.TopK = 99 // a caller's copy is its own
			}
		}
	}()
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < rounds/10; i++ {
			if _, err := reg.Open(SessionSpec{ID: fmt.Sprintf("r%d", i)}); err != nil {
				t.Error(err)
				return
			}
			reg.Remove(fmt.Sprintf("r%d", i))
		}
	}()
	go func() {
		defer wg.Done()
		<-start
		feedSession(t, run, sess)
	}()
	close(start)
	wg.Wait()
	k := reg.Knobs()
	if k.TraceSampleN != rounds || k.RetainMS != rounds {
		t.Fatalf("lost update: %+v", k)
	}
	if k.Search != nil {
		t.Fatalf("search = %+v after a null patch", k.Search)
	}
	if err := reg.UpdateKnobs([]byte(`{"search":{"top_k":5}}`)); err != nil {
		t.Fatal(err)
	}
	k = reg.Knobs()
	k.Search.TopK = 99
	if reg.Knobs().Search.TopK != 5 {
		t.Fatal("a caller's copy wrote through to the published search")
	}
}

// TestGCLoopFollowsIdleKnob: the gc loop re-derives its wait from the
// published idle knob, so a daemon started with a long idle deadline
// and patched down to a short one expires an idle session within the
// new bound (idle plus max(idle/4, 1s)), not a wait sized for the old
// deadline (30 s at the default 2 minutes).
func TestGCLoopFollowsIdleKnob(t *testing.T) {
	srv, cl := obsServer(t, testRegistry(t, RegistryConfig{IdleTimeout: 2 * time.Minute, NoRecognize: true}))
	if _, err := srv.reg.Open(SessionSpec{ID: "idle"}); err != nil {
		t.Fatal(err)
	}
	// Give the loop time to arm its first (30 s) wait.
	time.Sleep(100 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	patched := time.Now()
	if _, err := cl.UpdateControl(ctx, map[string]any{"idle_ms": 200}); err != nil {
		t.Fatal(err)
	}
	bound := 200*time.Millisecond + time.Second + time.Second // idle + tick + slack
	for {
		if _, ok := srv.reg.Get("idle"); !ok {
			break
		}
		if time.Since(patched) > bound {
			t.Fatalf("idle session still registered %v after idle_ms was lowered to 200", time.Since(patched))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRecoveredRecordHeap bounds what a restart-recovered record costs:
// its span ring and timeline grow on demand, so a record that never
// samples a span holds its metadata and one timeline event, not the
// fixed rings (about 30 KB) it used to.
func TestRecoveredRecordHeap(t *testing.T) {
	reg := testRegistry(t, RegistryConfig{NoRecognize: true})
	meta := wal.Meta{ID: "recovered", Created: time.Now(), Sweep: 100 * time.Millisecond}
	stats := wal.Stats{Records: 10, Reports: 9, LastSeq: 10, CleanClose: true}
	const n = 500
	records := make([]*Session, n)
	var before, after runtime.MemStats
	// Two collections empty the sync.Pool victim caches first, so what
	// earlier tests pooled (an engine shard kit keeps its report slices)
	// is not freed inside the measured window, which would read as a
	// negative heap.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range records {
		records[i] = newRecoveredSession(reg, meta, stats)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	per := float64(after.HeapAlloc-before.HeapAlloc) / n
	runtime.KeepAlive(records)
	t.Logf("recovered record: %.0f bytes of heap", per)
	if per > 8<<10 {
		t.Fatalf("recovered record holds %.0f bytes of heap, want under 8 KB", per)
	}
}

// TestSubscriberQueueHeap bounds what attaching a subscriber costs: its
// queue holds pointers to shared encoded batches, so the default
// 256-slot queue is 2 KB of pointers, not 256 events of about 190 bytes.
func TestSubscriberQueueHeap(t *testing.T) {
	const n = 64
	reg := testRegistry(t, RegistryConfig{NoRecognize: true, MaxSubscribers: n})
	sess, err := reg.Open(SessionSpec{ID: "queue-heap"})
	if err != nil {
		t.Fatal(err)
	}
	subs := make([]*Subscriber, n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range subs {
		if subs[i], err = sess.Subscribe(SubscribeOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	per := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n
	runtime.KeepAlive(subs)
	t.Logf("default subscriber: %.0f bytes of heap", per)
	if per > 8<<10 {
		t.Fatalf("a default subscriber adds %.0f bytes of heap, want under 8 KB", per)
	}
}

// TestCreateRefusesUnknownKeys: POST /v1/sessions and the retrace verb
// decode strictly, so a body with a key the daemon does not have — the
// removed per-session "wal" policy, or a typo — is a 400: the create
// opens nothing, and the retrace does not run under the default search.
func TestCreateRefusesUnknownKeys(t *testing.T) {
	run, _ := scenario(t)
	srv, _ := obsServer(t, walControlRegistry(t, t.TempDir(), RegistryConfig{}))
	sess, err := srv.reg.Open(SessionSpec{ID: "recorded", Sweep: perTagSweep(run)})
	if err != nil {
		t.Fatal(err)
	}
	feedSession(t, run, sess)
	base := "http://" + srv.HTTPAddr()
	for _, row := range []struct{ path, body string }{
		{"/v1/sessions", `{"id":"w","wal":{"disable":true}}`},
		{"/v1/sessions", `{"id":"w","sweep_msec":25}`},
		{"/v1/sessions/recorded/retrace", `{"serach":{"mode":"dense"}}`},
	} {
		resp, err := http.Post(base+row.path, "application/json", strings.NewReader(row.body))
		if err != nil {
			t.Fatal(err)
		}
		raw := readBody(t, resp)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(raw, `"bad_request"`) {
			t.Errorf("POST %s %s: status %d (%s), want 400 bad_request", row.path, row.body, resp.StatusCode, raw)
		}
	}
	if srv.reg.Len() != 1 {
		t.Fatalf("refused creates opened %d sessions", srv.reg.Len()-1)
	}
	if n := srv.reg.Metrics().Retraces.Load(); n != 0 {
		t.Fatalf("a refused retrace ran %d retraces", n)
	}
}
