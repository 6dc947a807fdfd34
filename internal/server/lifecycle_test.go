package server

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"rfidraw/internal/realtime"
)

// lifecycleCounts is the bookkeeping a lifecycle verb may move: the
// live-slot count and the session, subscriber, shed and retrace metrics.
type lifecycleCounts struct {
	live, active, retained, closed, parked, expired, resumed, retraces, subs, shed int64
}

func countLifecycle(reg *Registry) lifecycleCounts {
	m := reg.Metrics()
	return lifecycleCounts{
		live:     reg.live.Load(),
		active:   m.SessionsActive.Load(),
		retained: m.SessionsRetained.Load(),
		closed:   m.SessionsClosed.Load(),
		parked:   m.SessionsParked.Load(),
		expired:  m.SessionsExpired.Load(),
		resumed:  m.SessionsResumed.Load(),
		retraces: m.Retraces.Load(),
		subs:     m.SubscribersActive.Load(),
		shed:     m.Shed.Load(),
	}
}

func (a lifecycleCounts) minus(b lifecycleCounts) lifecycleCounts {
	return lifecycleCounts{
		a.live - b.live, a.active - b.active, a.retained - b.retained, a.closed - b.closed,
		a.parked - b.parked, a.expired - b.expired, a.resumed - b.resumed,
		a.retraces - b.retraces, a.subs - b.subs, a.shed - b.shed,
	}
}

// errKept is what the expiry verbs report, in the table below, when
// they leave the session where it was.
var errKept = errors.New("not expired")

// lifecycleCell is one session brought into a lifecycle state, under a
// registry of its own.
type lifecycleCell struct {
	t    *testing.T
	reg  *Registry
	sess *Session
}

const lifecycleID = "s"

// lifecycleStates brings a recorded session into each state. Every cell
// starts from the same record, restart-recovered from a copy of its log;
// the live states resume it (a live session with a durable record).
// "claimed" is a park or idle expiry caught between its claim and its
// teardown: the test holds the claim, and after the verb finishes it the
// way park does (stop, then keep).
var lifecycleStates = []struct {
	name  string
	enter func(c *lifecycleCell)
}{
	{"live", func(c *lifecycleCell) { c.resume() }},
	{"attached", func(c *lifecycleCell) {
		c.resume()
		conn, peer := net.Pipe()
		c.t.Cleanup(func() { conn.Close(); peer.Close() })
		if err := c.sess.addReader(conn); err != nil {
			c.t.Fatal(err)
		}
		if _, err := c.sess.Subscribe(SubscribeOptions{Buffer: 64}); err != nil {
			c.t.Fatal(err)
		}
	}},
	{"claimed", func(c *lifecycleCell) {
		c.resume()
		if !c.sess.claim(time.Time{}, 0) {
			c.t.Fatal("live session could not be claimed")
		}
	}},
	{"parked", func(c *lifecycleCell) {
		c.resume()
		if err := c.reg.Park(lifecycleID); err != nil {
			c.t.Fatal(err)
		}
	}},
	{"recovered", func(c *lifecycleCell) {}},
	{"gone", func(c *lifecycleCell) {
		c.resume()
		c.sess.Close()
	}},
}

func (c *lifecycleCell) resume() {
	s, err := c.reg.Resume(lifecycleID)
	if err != nil {
		c.t.Fatal(err)
	}
	c.sess = s
}

// lifecycleVerbs are the operations the table applies to each state.
var lifecycleVerbs = []struct {
	name string
	run  func(c *lifecycleCell) error
}{
	{"reader attach", func(c *lifecycleCell) error {
		conn, peer := net.Pipe()
		c.t.Cleanup(func() { conn.Close(); peer.Close() })
		return c.sess.addReader(conn)
	}},
	{"subscribe", func(c *lifecycleCell) error {
		_, err := c.sess.Subscribe(SubscribeOptions{Buffer: 64})
		return err
	}},
	{"subscribe from", func(c *lifecycleCell) error {
		// A one-slot queue nobody reads holds the catch-up replay
		// attached: it blocks on its second point.
		_, err := c.sess.SubscribeFrom(0, SubscribeOptions{Buffer: 1})
		return err
	}},
	{"drain", func(c *lifecycleCell) error {
		req := httptest.NewRequest(http.MethodPost, "/v1/sessions/"+lifecycleID+"/drain", nil)
		req.SetPathValue("id", lifecycleID)
		rec := httptest.NewRecorder()
		New(c.reg, "", "").handleDrain(rec, req)
		resp := rec.Result()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode == http.StatusOK {
			return nil
		}
		return decodeAPIError(resp, body)
	}},
	{"park", func(c *lifecycleCell) error { return c.reg.Park(lifecycleID) }},
	{"resume", func(c *lifecycleCell) error {
		_, err := c.reg.Resume(lifecycleID)
		return err
	}},
	{"delete", func(c *lifecycleCell) error {
		if !c.reg.Remove(lifecycleID) {
			return ErrUnknownSession
		}
		return nil
	}},
	{"idle expiry", func(c *lifecycleCell) error {
		return expired(c.reg.ExpireIdle(time.Now().Add(time.Hour), time.Minute))
	}},
	{"idle expiry, not due", func(c *lifecycleCell) error {
		ids := c.reg.ExpireIdle(time.Now(), time.Hour)
		ids = append(ids, c.reg.ExpireIdle(time.Now().Add(time.Hour), 0)...)
		return expired(ids)
	}},
	{"retained expiry", func(c *lifecycleCell) error {
		return expired(c.reg.ExpireRetained(time.Now().Add(2*time.Hour), time.Hour))
	}},
	{"retained expiry, not due", func(c *lifecycleCell) error {
		return expired(c.reg.ExpireRetained(time.Now(), time.Hour))
	}},
	{"retrace", func(c *lifecycleCell) error {
		_, _, err := c.sess.Retrace(nil)
		return err
	}},
	{"registry close", func(c *lifecycleCell) error {
		c.reg.Close()
		return nil
	}},
	{"get", func(c *lifecycleCell) error {
		if _, ok := c.reg.Get(lifecycleID); !ok {
			return ErrUnknownSession
		}
		return nil
	}},
	{"list", func(c *lifecycleCell) error {
		for _, s := range c.reg.List() {
			if s.ID == lifecycleID {
				return nil
			}
		}
		return ErrUnknownSession
	}},
	{"open", func(c *lifecycleCell) error {
		_, err := c.reg.Open(SessionSpec{ID: lifecycleID})
		return err
	}},
}

func expired(ids []string) error {
	if slices.Contains(ids, lifecycleID) {
		return nil
	}
	return errKept
}

// lifecycleOutcome is one table cell: the verb's error, the State() of
// the registry entry for the ID afterwards ("absent" once it left the
// table) and of the session the verb was applied to, and the change in
// lifecycleCounts.
type lifecycleOutcome struct {
	err          error
	entry, state string
	delta        lifecycleCounts
}

// The table's shorthand: the bookkeeping of a claimed session's teardown
// finished by park (stop, keep), of a parked record leaving the table,
// and of a live session stopping.
var (
	claimDone = lifecycleCounts{active: -1, closed: 1, retained: 1}
	dropKept  = lifecycleCounts{retained: -1}
	stopLive  = lifecycleCounts{live: -1, active: -1, closed: 1}
)

func stays(err error, state string) lifecycleOutcome {
	return lifecycleOutcome{err: err, entry: state, state: state}
}

// goneStays is a closed session's outcome: an unclaimed Close took it
// out of the table, and the verb leaves it there.
func goneStays(err error) lifecycleOutcome {
	return lifecycleOutcome{err: err, entry: "absent", state: "closed"}
}

func claimedStays(err error) lifecycleOutcome {
	return lifecycleOutcome{err: err, entry: "recovered", state: "recovered", delta: claimDone}
}

func with(o lifecycleOutcome, d lifecycleCounts) lifecycleOutcome {
	o.delta = d
	return o
}

// lifecycleTable is the reference model: verb → state → outcome.
var lifecycleTable = map[string]map[string]lifecycleOutcome{
	"reader attach": {
		"live":      stays(nil, "live"),
		"attached":  stays(nil, "live"),
		"claimed":   claimedStays(ErrSessionClosed),
		"parked":    stays(ErrSessionClosed, "recovered"),
		"recovered": stays(ErrSessionClosed, "recovered"),
		"gone":      goneStays(ErrSessionClosed),
	},
	"subscribe": {
		"live":      with(stays(nil, "live"), lifecycleCounts{subs: 1}),
		"attached":  with(stays(nil, "live"), lifecycleCounts{subs: 1}),
		"claimed":   claimedStays(ErrSessionClosed),
		"parked":    stays(ErrSessionClosed, "recovered"),
		"recovered": stays(ErrSessionClosed, "recovered"),
		"gone":      goneStays(ErrSessionClosed),
	},
	"subscribe from": {
		"live":      with(stays(nil, "live"), lifecycleCounts{subs: 1}),
		"attached":  with(stays(nil, "live"), lifecycleCounts{subs: 1}),
		"claimed":   claimedStays(ErrSessionClosed),
		"parked":    with(stays(nil, "recovered"), lifecycleCounts{subs: 1}),
		"recovered": with(stays(nil, "recovered"), lifecycleCounts{subs: 1}),
		"gone":      goneStays(ErrSessionClosed),
	},
	"drain": {
		"live":      stays(nil, "live"),
		"attached":  stays(nil, "live"),
		"claimed":   claimedStays(ErrNotLive),
		"parked":    stays(ErrNotLive, "recovered"),
		"recovered": stays(ErrNotLive, "recovered"),
		"gone":      goneStays(ErrUnknownSession),
	},
	"park": {
		"live":      with(stays(nil, "recovered"), lifecycleCounts{live: -1, active: -1, closed: 1, parked: 1, retained: 1}),
		"attached":  with(stays(nil, "recovered"), lifecycleCounts{live: -1, active: -1, closed: 1, parked: 1, retained: 1, subs: -1}),
		"claimed":   claimedStays(ErrNotLive),
		"parked":    stays(nil, "recovered"),
		"recovered": stays(nil, "recovered"),
		"gone":      goneStays(ErrUnknownSession),
	},
	"resume": {
		"live":      stays(ErrNotParked, "live"),
		"attached":  stays(ErrNotParked, "live"),
		"claimed":   claimedStays(ErrNotParked),
		"parked":    {entry: "live", state: "closed", delta: lifecycleCounts{live: 1, active: 1, retained: -1, resumed: 1}},
		"recovered": {entry: "live", state: "closed", delta: lifecycleCounts{live: 1, active: 1, retained: -1, resumed: 1}},
		"gone":      goneStays(ErrUnknownSession),
	},
	"delete": {
		"live":      {entry: "absent", state: "closed", delta: stopLive},
		"attached":  {entry: "absent", state: "closed", delta: lifecycleCounts{live: -1, active: -1, closed: 1, subs: -1}},
		"claimed":   claimedStays(ErrUnknownSession),
		"parked":    {entry: "absent", state: "closed", delta: dropKept},
		"recovered": {entry: "absent", state: "closed", delta: dropKept},
		"gone":      goneStays(ErrUnknownSession),
	},
	"idle expiry": {
		"live":      with(stays(nil, "recovered"), lifecycleCounts{live: -1, active: -1, closed: 1, expired: 1, retained: 1}),
		"attached":  stays(errKept, "live"),
		"claimed":   claimedStays(errKept),
		"parked":    stays(errKept, "recovered"),
		"recovered": stays(errKept, "recovered"),
		"gone":      goneStays(errKept),
	},
	"idle expiry, not due": {
		"live":      stays(errKept, "live"),
		"attached":  stays(errKept, "live"),
		"claimed":   claimedStays(errKept),
		"parked":    stays(errKept, "recovered"),
		"recovered": stays(errKept, "recovered"),
		"gone":      goneStays(errKept),
	},
	"retained expiry": {
		"live":      stays(errKept, "live"),
		"attached":  stays(errKept, "live"),
		"claimed":   claimedStays(errKept),
		"parked":    {entry: "absent", state: "closed", delta: lifecycleCounts{retained: -1, expired: 1}},
		"recovered": {entry: "absent", state: "closed", delta: lifecycleCounts{retained: -1, expired: 1}},
		"gone":      goneStays(errKept),
	},
	"retained expiry, not due": {
		"live":      stays(errKept, "live"),
		"attached":  stays(errKept, "live"),
		"claimed":   claimedStays(errKept),
		"parked":    stays(errKept, "recovered"),
		"recovered": stays(errKept, "recovered"),
		"gone":      goneStays(errKept),
	},
	"retrace": {
		"live":      with(stays(nil, "live"), lifecycleCounts{retraces: 1}),
		"attached":  with(stays(nil, "live"), lifecycleCounts{retraces: 1}),
		"claimed":   with(claimedStays(nil), lifecycleCounts{active: -1, closed: 1, retained: 1, retraces: 1}),
		"parked":    with(stays(nil, "recovered"), lifecycleCounts{retraces: 1}),
		"recovered": with(stays(nil, "recovered"), lifecycleCounts{retraces: 1}),
		"gone":      with(goneStays(nil), lifecycleCounts{retraces: 1}),
	},
	"registry close": {
		"live":      {entry: "absent", state: "closed", delta: stopLive},
		"attached":  {entry: "absent", state: "closed", delta: lifecycleCounts{live: -1, active: -1, closed: 1, subs: -1}},
		"claimed":   {entry: "absent", state: "closed", delta: lifecycleCounts{active: -1, closed: 1}},
		"parked":    {entry: "absent", state: "closed", delta: dropKept},
		"recovered": {entry: "absent", state: "closed", delta: dropKept},
		"gone":      goneStays(nil),
	},
	"get": {
		"live":      stays(nil, "live"),
		"attached":  stays(nil, "live"),
		"claimed":   claimedStays(nil),
		"parked":    stays(nil, "recovered"),
		"recovered": stays(nil, "recovered"),
		"gone":      goneStays(ErrUnknownSession),
	},
	"list": {
		"live":      stays(nil, "live"),
		"attached":  stays(nil, "live"),
		"claimed":   claimedStays(nil),
		"parked":    stays(nil, "recovered"),
		"recovered": stays(nil, "recovered"),
		"gone":      goneStays(ErrUnknownSession),
	},
	"open": {
		"live":      stays(ErrSessionExists, "live"),
		"attached":  stays(ErrSessionExists, "live"),
		"claimed":   claimedStays(ErrSessionExists),
		"parked":    stays(ErrSessionExists, "recovered"),
		"recovered": stays(ErrSessionExists, "recovered"),
		"gone":      {entry: "live", state: "closed", delta: lifecycleCounts{live: 1, active: 1}},
	},
}

// TestLifecycleTransitions drives every lifecycle verb against every
// session state and checks the verb's error, where the session ends up
// and what the bookkeeping did, against lifecycleTable: the state
// machine written out as a reference model.
func TestLifecycleTransitions(t *testing.T) {
	run, _ := scenario(t)
	record := t.TempDir()
	rec := walRegistry(t, record)
	sess, err := rec.Open(SessionSpec{ID: lifecycleID, Sweep: perTagSweep(run)})
	if err != nil {
		t.Fatal(err)
	}
	feedSession(t, run, sess)
	rec.Close()

	for _, st := range lifecycleStates {
		for _, verb := range lifecycleVerbs {
			want, ok := lifecycleTable[verb.name][st.name]
			if !ok {
				t.Fatalf("no table entry for %s × %s", verb.name, st.name)
			}
			t.Run(st.name+"/"+verb.name, func(t *testing.T) {
				c := newLifecycleCell(t, record)
				st.enter(c)
				before := countLifecycle(c.reg)
				err := verb.run(c)
				if st.name == "claimed" {
					c.sess.stop()
					c.reg.keep(c.sess)
				}
				c.check(err, before, want)
			})
		}
	}
	t.Run("closing/attach", attachRacingClose)
	t.Run("expiring/attach and detach", attachDetachRacingExpiry)
	t.Run("full/resume", func(t *testing.T) {
		// Resume takes a MaxSessions slot as an open does: on a full node
		// the record stays parked and the refusal counts as shed.
		dir := t.TempDir()
		copyTree(t, record, dir)
		c := &lifecycleCell{t: t, reg: walControlRegistry(t, dir, RegistryConfig{MaxSessions: 1})}
		c.sess, _ = c.reg.Get(lifecycleID)
		if _, err := c.reg.Open(SessionSpec{ID: "other"}); err != nil {
			t.Fatal(err)
		}
		before := countLifecycle(c.reg)
		_, err := c.reg.Resume(lifecycleID)
		c.check(err, before, with(stays(ErrSessionLimit, "recovered"), lifecycleCounts{shed: 1}))
	})
	t.Run("deleting/pressure park", func(t *testing.T) {
		// A pressure-park candidate deleted between the candidate scan and
		// its park: Remove has taken the entry out of the table but not yet
		// closed the session. The park must refuse, and the delete win.
		c := newLifecycleCell(t, record)
		c.resume()
		c.reg.mu.Lock()
		delete(c.reg.sessions, lifecycleID)
		c.reg.mu.Unlock()
		before := countLifecycle(c.reg)
		err := c.reg.parkSession(c.sess, "pressure")
		c.sess.Close()
		c.reg.forget(c.sess)
		c.check(err, before, lifecycleOutcome{err: ErrUnknownSession, entry: "absent", state: "closed", delta: stopLive})
	})
}

// newLifecycleCell restart-recovers a copy of the recorded log under a
// registry of its own.
func newLifecycleCell(t *testing.T, record string) *lifecycleCell {
	dir := t.TempDir()
	copyTree(t, record, dir)
	c := &lifecycleCell{t: t, reg: walControlRegistry(t, dir, RegistryConfig{})}
	c.sess, _ = c.reg.Get(lifecycleID)
	return c
}

// check compares a verb's outcome with the table's.
func (c *lifecycleCell) check(err error, before lifecycleCounts, want lifecycleOutcome) {
	t := c.t
	t.Helper()
	if !errors.Is(err, want.err) || (want.err == nil) != (err == nil) {
		t.Errorf("error = %v, want %v", err, want.err)
	}
	entry := "absent"
	if cur, ok := c.reg.Get(lifecycleID); ok {
		entry = cur.State()
	}
	if entry != want.entry {
		t.Errorf("registry entry state = %s, want %s", entry, want.entry)
	}
	if got := c.sess.State(); got != want.state {
		t.Errorf("session state = %s, want %s", got, want.state)
	}
	if d := countLifecycle(c.reg).minus(before); d != want.delta {
		t.Errorf("bookkeeping delta = %+v, want %+v", d, want.delta)
	}
}

// attachRacingClose is the table's row for the one deliberate
// tightening: an attach that lands while an unclaimed Close is still
// tearing the session down is refused, where it used to be admitted and
// then swept. The loop is left unstarted, so the teardown holds at
// "waiting for the loop" until the attaches have been tried.
func attachRacingClose(t *testing.T) {
	reg := testRegistry(t, RegistryConfig{NoRecognize: true})
	s := sessionShell(reg, SessionSpec{ID: "closing"}, resumeState{})
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for s.State() == "live" {
		if time.Now().After(deadline) {
			t.Fatal("Close never left the live state")
		}
		time.Sleep(time.Millisecond)
	}
	before := countLifecycle(reg)
	if _, err := s.Subscribe(SubscribeOptions{}); !errors.Is(err, ErrSessionClosed) {
		t.Errorf("subscribe during Close: %v, want ErrSessionClosed", err)
	}
	conn, peer := net.Pipe()
	defer peer.Close()
	if err := s.addReader(conn); !errors.Is(err, ErrSessionClosed) {
		t.Errorf("reader attach during Close: %v, want ErrSessionClosed", err)
	}
	if d := countLifecycle(reg).minus(before); d != (lifecycleCounts{}) {
		t.Errorf("refused attaches moved the bookkeeping: %+v", d)
	}
	close(s.loopDone) // the loop exits; the teardown completes
	<-closed
}

// attachDetachRacingExpiry is the row for a reader that attaches and
// detaches between idle expiry's first, lock-free look at a session and
// its claim under the session lock. The test holds that lock while the
// claim waits for it and plays the attach and the detach under it, as
// addReader and removeReader do: the claim must see the refreshed
// activity stamp and leave the session live.
func attachDetachRacingExpiry(t *testing.T) {
	reg := testRegistry(t, RegistryConfig{NoRecognize: true})
	s, err := reg.Open(SessionSpec{ID: "busy"})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	s.lastActive.Store(now.Add(-time.Hour).UnixNano())
	s.emitMu.Lock()
	claimed := make(chan bool)
	go func() { claimed <- s.claim(now, time.Minute) }()
	if !awaitBlocked("(*Session).claim") {
		s.emitMu.Unlock()
		t.Fatal("the claim never waited for the session lock")
	}
	conn, peer := net.Pipe()
	defer peer.Close()
	defer conn.Close()
	s.readers[conn] = struct{}{}
	s.touch()
	delete(s.readers, conn)
	s.emitMu.Unlock()
	if <-claimed {
		t.Error("idle expiry claimed a session that was attached to after its first look")
	}
	if got := s.State(); got != "live" {
		t.Errorf("session state = %s, want live", got)
	}
}

// awaitBlocked waits up to 10 s for a goroutine running fn to park on
// a mutex, reporting whether one did.
func awaitBlocked(fn string) bool {
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		n := runtime.Stack(buf, true)
		for _, g := range strings.Split(string(buf[:n]), "\n\n") {
			header, _, _ := strings.Cut(g, "\n")
			if strings.Contains(header, "[sync.Mutex.Lock") && strings.Contains(g, fn) {
				return true
			}
		}
	}
	return false
}

// TestLifecycleVerbsRace races the lifecycle verbs against one durable
// session — park, delete, idle expiry, unclaimed close, subscribe and
// reader attach — and checks, once they all return, that the
// bookkeeping agrees with the table whatever order they landed in:
// every live session is counted active, every parked record retained,
// every attached subscriber active, and a session out of the table is
// gone with its subscriber ended.
func TestLifecycleVerbsRace(t *testing.T) {
	run, _ := scenario(t)
	reports := realtime.MergeStreams(run.ReportsRF...)[:200]
	reg := walControlRegistry(t, t.TempDir(), RegistryConfig{MaxSessions: 4096})
	for i := 0; i < 50; i++ {
		id := fmt.Sprintf("race-%d", i)
		sess, err := reg.Open(SessionSpec{ID: id, Sweep: perTagSweep(run)})
		if err != nil {
			t.Fatal(err)
		}
		for _, rep := range reports {
			if err := sess.Offer(rep); err != nil {
				t.Fatal(err)
			}
		}
		if err := sess.Flush(); err != nil {
			t.Fatal(err)
		}
		conn, peer := net.Pipe()
		var sub *Subscriber
		verbs := []func(){
			func() { reg.Park(id) },
			func() { reg.Remove(id) },
			func() { reg.ExpireIdle(time.Now().Add(time.Hour), time.Minute) },
			func() { sess.Close() },
			func() { sub, _ = sess.Subscribe(SubscribeOptions{Buffer: 1024}) },
			func() { sess.addReader(conn) },
		}
		var wg sync.WaitGroup
		for _, v := range slices.Backward(verbs) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				v()
			}()
		}
		wg.Wait()

		cur, inTable := reg.Get(id)
		switch {
		case !inTable && sess.State() != "closed":
			t.Fatalf("iteration %d: session out of the table is %s", i, sess.State())
		case inTable && cur != sess:
			t.Fatalf("iteration %d: entry replaced", i)
		}
		if sub != nil && sess.State() != "live" {
			for range sub.Events() {
			} // a subscriber of a session no longer live has been ended
		}
		var live, retained, subs int64
		for _, s := range reg.List() {
			switch s.State() {
			case "live":
				live++
			case "recovered":
				retained++
			}
			subs += int64(s.Subscribers())
		}
		if !inTable {
			subs += int64(sess.Subscribers())
		}
		if reg.live.Load() != live {
			t.Fatalf("iteration %d: live count %d, table says %d", i, reg.live.Load(), live)
		}
		m := reg.Metrics()
		if m.SessionsActive.Load() != live || m.SessionsRetained.Load() != retained || m.SubscribersActive.Load() != subs {
			t.Fatalf("iteration %d: active/retained/subscribers gauges %d/%d/%d, table says %d/%d/%d",
				i, m.SessionsActive.Load(), m.SessionsRetained.Load(), m.SubscribersActive.Load(), live, retained, subs)
		}
		if sub != nil {
			sub.Close()
		}
		reg.Remove(id)
		conn.Close()
		peer.Close()
	}
}

// BenchmarkTableScan times the registry's whole-table walks on a table
// of retained records, as a daemon that keeps every parked record
// (-retain 0, the default) accumulates, plus eight live sessions: a
// quiet idle-expiry and retained-expiry tick, Open's admission check
// (made twice per Open) and the congestion refresh. The records are
// bare table entries: the walks read only the entry's state and stamp.
func BenchmarkTableScan(b *testing.B) {
	for _, retained := range []int{1000, 10000} {
		reg := walControlRegistry(b, b.TempDir(), RegistryConfig{MaxSessions: 64})
		for i := 0; i < 8; i++ {
			if _, err := reg.Open(SessionSpec{ID: fmt.Sprintf("live-%d", i)}); err != nil {
				b.Fatal(err)
			}
		}
		reg.mu.Lock()
		for i := 0; i < retained; i++ {
			s := &Session{ID: fmt.Sprintf("kept-%d", i), reg: reg}
			s.state.Store(uint32(stateRecovered))
			s.stopOnce.Do(func() {})
			s.touch()
			reg.sessions[s.ID] = s
		}
		reg.mu.Unlock()
		walks := []struct {
			name string
			walk func(now time.Time)
		}{
			{"expire-idle", func(now time.Time) { reg.ExpireIdle(now, time.Hour) }},
			{"expire-retained", func(now time.Time) { reg.ExpireRetained(now, time.Hour) }},
			{"admit", func(time.Time) { reg.admitLocked("absent") }},
			{"congestion", func(now time.Time) { reg.RefreshCongestion(now) }},
		}
		for _, w := range walks {
			b.Run(fmt.Sprintf("%s/retained=%d", w.name, retained), func(b *testing.B) {
				now := time.Now()
				for range b.N {
					w.walk(now)
				}
			})
		}
	}
}
