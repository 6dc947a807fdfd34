package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"rfidraw/internal/obs"
	"rfidraw/internal/readerwire"
	"rfidraw/internal/rfid"
)

// APIError is the typed form of the daemon's JSON error envelope
// ({"error": {"code", "message", "retry_after_ms"}}). errors.Is matches
// it against the server sentinels (ErrSessionLimit, ErrOverloaded, …)
// by code, so callers branch on sentinel, not on status text.
type APIError struct {
	// StatusCode is the HTTP status the error arrived with.
	StatusCode int
	// Code is the envelope's stable machine-readable code.
	Code string
	// Message is the human-readable description.
	Message string
	// RetryAfter is the server's suggested backoff (429 responses; zero
	// otherwise).
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	if e.RetryAfter > 0 {
		return fmt.Sprintf("server: %s (%d %s, retry after %s)", e.Message, e.StatusCode, e.Code, e.RetryAfter)
	}
	return fmt.Sprintf("server: %s (%d %s)", e.Message, e.StatusCode, e.Code)
}

// Is maps envelope codes back onto the package's error sentinels
// through the same table the server answers with.
func (e *APIError) Is(target error) bool {
	for _, ec := range errorCodes {
		if ec.err == target {
			return e.Code == ec.code
		}
	}
	return false
}

// decodeAPIError turns a non-2xx response into an *APIError; a body that
// is not the error envelope becomes the message verbatim.
func decodeAPIError(resp *http.Response, raw []byte) *APIError {
	e := &APIError{StatusCode: resp.StatusCode, Message: strings.TrimSpace(string(raw))}
	var env errorEnvelope
	if json.Unmarshal(raw, &env) == nil && env.Error.Message != "" {
		e.Code, e.Message = env.Error.Code, env.Error.Message
		e.RetryAfter = time.Duration(env.Error.RetryAfterMS) * time.Millisecond
	}
	if e.RetryAfter == 0 {
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
			e.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	if e.Message == "" {
		e.Message = resp.Status
	}
	return e
}

// Client is a minimal rfidrawd client: session lifecycle over the HTTP
// API, report replay over the ingest gateway and event stream
// consumption (NDJSON or binary). cmd/loadgen and the daemon-mode
// examples share it.
type Client struct {
	// BaseURL is the daemon's HTTP API root, e.g. "http://127.0.0.1:8090".
	BaseURL string
	// Ingest is the ingest gateway address, e.g. "127.0.0.1:7070". When
	// empty it is learned from the create-session response.
	Ingest string
	// HTTP overrides the HTTP client; nil uses a default with no overall
	// timeout (streams are long-lived).
	HTTP *http.Client
	// Encoding selects the stream wire encoding Subscribe negotiates:
	// "" or "ndjson" for the NDJSON default, "binary" for the
	// length-prefixed CRC-framed binary encoding. Decoded Events are
	// identical either way.
	Encoding string
	// Tier selects the trace tier Subscribe negotiates: "" for the T1
	// default (today's full stream), "0" for the decimated dashboard
	// tier, "1" explicit, or "2" for full plus diagnostic detail.
	Tier string
	// SubscribeBuffer is the event-channel depth Subscribe allocates;
	// <= 0 takes the default 64.
	SubscribeBuffer int
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return &http.Client{}
}

// send is every API request's one path: body, when non-nil, goes out as
// JSON; a response with the wanted status is returned for the caller to
// read and close, any other is drained into an *APIError.
func (c *Client) send(ctx context.Context, method, path string, body any, want int) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		defer resp.Body.Close()
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		return nil, decodeAPIError(resp, raw)
	}
	return resp, nil
}

// call is send plus a JSON decode of the response into out; with out
// nil the body is drained unread, so the connection can be reused.
func (c *Client) call(ctx context.Context, method, path string, body any, want int, out any) error {
	resp, err := c.send(ctx, method, path, body, want)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if out == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// CreateSession opens a session from a spec; spec.ID == "" lets the
// daemon assign one. The returned ID addresses the other calls. A
// daemon at its hard session cap answers 503 (errors.Is
// ErrSessionLimit); one shedding by congestion score answers 429
// (errors.Is ErrOverloaded) with the suggested backoff in the
// APIError's RetryAfter.
func (c *Client) CreateSession(ctx context.Context, spec SessionSpec) (string, error) {
	fields := map[string]any{
		"id":       spec.ID,
		"sweep_ms": float64(spec.Sweep) / float64(time.Millisecond),
	}
	if spec.Geometry != "" {
		fields["geometry"] = spec.Geometry
	}
	if spec.Search != nil {
		fields["search"] = toSearchJSON(spec.Search)
	}
	if spec.WAL != (WALPolicy{}) {
		fields["wal"] = walPolicyJSON{Disable: spec.WAL.Disable, SyncEvery: spec.WAL.SyncEvery}
	}
	var out struct {
		ID     string `json:"id"`
		Ingest string `json:"ingest"`
	}
	if err := c.call(ctx, http.MethodPost, "/v1/sessions", fields, http.StatusCreated, &out); err != nil {
		return "", err
	}
	if c.Ingest == "" {
		c.Ingest = out.Ingest
	}
	return out.ID, nil
}

// DeleteSession closes a session (and forgets its retained record).
func (c *Client) DeleteSession(ctx context.Context, id string) error {
	return c.call(ctx, http.MethodDelete, "/v1/sessions/"+id, nil, http.StatusNoContent, nil)
}

// Subscribe attaches to a session's live event stream — NDJSON by
// default, or the binary encoding when c.Encoding is "binary" — and
// decodes it onto the returned channel until the stream ends or the
// context is cancelled. The channel is closed at end of stream; a
// terminal decode or transport error is delivered on the (buffered)
// error channel.
func (c *Client) Subscribe(ctx context.Context, id string) (<-chan Event, <-chan error, error) {
	return c.subscribe(ctx, "/v1/sessions/"+id+"/stream")
}

// SubscribeFrom attaches with WAL catch-up: the stream starts with the
// session's recorded history replayed from log sequence from (0 = all),
// then splices onto the live stream (daemons started with a data dir).
func (c *Client) SubscribeFrom(ctx context.Context, id string, from uint64) (<-chan Event, <-chan error, error) {
	return c.subscribe(ctx, fmt.Sprintf("/v1/sessions/%s/stream?from=%d", id, from))
}

// streamURL appends the client's encoding and tier selections to a
// stream path.
func (c *Client) streamURL(url string) (string, bool, error) {
	appendParam := func(url, param string) string {
		sep := "?"
		if strings.Contains(url, "?") {
			sep = "&"
		}
		return url + sep + param
	}
	var binary bool
	switch c.Encoding {
	case "", "ndjson":
	case "binary":
		url, binary = appendParam(url, "encoding=binary"), true
	default:
		return "", false, fmt.Errorf("server: unknown client encoding %q (want ndjson or binary)", c.Encoding)
	}
	switch c.Tier {
	case "":
	case "0", "1", "2":
		url = appendParam(url, "tier="+c.Tier)
	default:
		return "", false, fmt.Errorf("server: unknown client tier %q (want 0, 1 or 2)", c.Tier)
	}
	return url, binary, nil
}

func (c *Client) subscribe(ctx context.Context, path string) (<-chan Event, <-chan error, error) {
	path, binary, err := c.streamURL(path)
	if err != nil {
		return nil, nil, err
	}
	resp, err := c.send(ctx, http.MethodGet, path, nil, http.StatusOK)
	if err != nil {
		return nil, nil, err
	}
	buffer := c.SubscribeBuffer
	if buffer <= 0 {
		buffer = 64
	}
	events := make(chan Event, buffer)
	errs := make(chan error, 1)
	deliver := func(ev Event) bool {
		select {
		case events <- ev:
			return true
		case <-ctx.Done():
			return false
		}
	}
	go func() {
		defer close(events)
		defer resp.Body.Close()
		if binary {
			// Strict decode: the daemon's stream is a reliable transport,
			// so a malformed frame is a real fault worth surfacing, not
			// something to silently resync over.
			er := NewEventReader(resp.Body)
			for {
				ev, err := er.Next()
				if err != nil {
					if !errors.Is(err, io.EOF) && ctx.Err() == nil {
						errs <- err
					}
					return
				}
				if !deliver(ev) {
					return
				}
			}
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		for sc.Scan() {
			var ev Event
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				errs <- err
				return
			}
			if !deliver(ev) {
				return
			}
		}
		if err := sc.Err(); err != nil && ctx.Err() == nil {
			errs <- err
		}
	}()
	return events, errs, nil
}

// DialIngest opens a reader connection bound to a session and sends the
// stream-opening Hello. The caller streams reports on the returned
// ReaderStream and closes it.
func (c *Client) DialIngest(sessionID string, hello readerwire.Hello) (*ReaderStream, error) {
	if c.Ingest == "" {
		return nil, fmt.Errorf("server: client has no ingest address (create a session first)")
	}
	conn, err := net.DialTimeout("tcp", c.Ingest, 5*time.Second)
	if err != nil {
		return nil, err
	}
	if _, err := fmt.Fprintf(conn, "%s %s\n", IngestPreamble, sessionID); err != nil {
		conn.Close()
		return nil, err
	}
	w := readerwire.NewWriter(conn)
	if err := w.WriteHello(hello); err != nil {
		conn.Close()
		return nil, err
	}
	return &ReaderStream{conn: conn, w: w}, nil
}

// ReaderStream is one live reader connection into the ingest gateway.
type ReaderStream struct {
	conn net.Conn
	w    *readerwire.Writer
	sent int64
}

// Send writes one report (buffered; Flush pushes to the network).
func (rs *ReaderStream) Send(rep rfid.Report) error {
	if err := rs.w.WriteReport(rep); err != nil {
		return err
	}
	rs.sent++
	return nil
}

// Sent reports how many reports this stream has written, so a replay
// harness can turn a run into a throughput without re-deriving which
// loops completed. Not safe to call concurrently with Send.
func (rs *ReaderStream) Sent() int64 { return rs.sent }

// Flush pushes buffered reports.
func (rs *ReaderStream) Flush() error { return rs.w.Flush() }

// Close sends Bye and closes the connection.
func (rs *ReaderStream) Close() error {
	_ = rs.w.WriteBye()
	return rs.conn.Close()
}

// Replay streams a time-ordered report slice, paced by the reports' own
// timestamps scaled by pace (1 = real time, 0 = unpaced), with offset
// added to every report time (for looping a scenario). It flushes every
// 10 ms of stream time and returns on the first write error or context
// cancellation.
func (rs *ReaderStream) Replay(ctx context.Context, reports []rfid.Report, pace float64, offset time.Duration, start time.Time) error {
	return rs.ReplaySkewed(ctx, reports, pace, offset, start, 0)
}

// ReplaySkewed is Replay for a reader whose clock runs clockSkew ahead
// of true time: timestamps go out as stamped, but the send schedule is
// the true wall clock (stamp − clockSkew). That is how a skewed reader
// behaves on the wire — it emits at true time, stamped by its own clock.
// Pacing by the stamp instead would re-serialize the streams and hide
// exactly the cross-reader disorder an injected clock fault exists to
// create.
func (rs *ReaderStream) ReplaySkewed(ctx context.Context, reports []rfid.Report, pace float64, offset time.Duration, start time.Time, clockSkew time.Duration) error {
	const flushEvery = 10 * time.Millisecond
	lastFlush := time.Duration(-1)
	for _, rep := range reports {
		t := rep.Time + offset
		sched := t - clockSkew
		if pace > 0 {
			target := start.Add(time.Duration(float64(sched) / pace))
			if sleep := time.Until(target); sleep > 0 {
				select {
				case <-time.After(sleep):
				case <-ctx.Done():
					return ctx.Err()
				}
			}
		}
		rep.Time = t
		if err := rs.Send(rep); err != nil {
			return err
		}
		if sched-lastFlush >= flushEvery {
			if err := rs.Flush(); err != nil {
				return err
			}
			lastFlush = sched
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
	}
	return rs.Flush()
}

// MetricsContentType is the Prometheus text exposition format version
// the daemon serves and this client requires.
const MetricsContentType = "text/plain; version=0.0.4"

// FetchMetrics grabs the raw /metrics text (soak tooling and the
// loadgen latency cross-check). It fails on any non-200 status and on a
// Content-Type other than the Prometheus text exposition format, so a
// proxy error page or a misrouted endpoint can never masquerade as an
// empty scrape.
func (c *Client) FetchMetrics(ctx context.Context) (string, error) {
	resp, err := c.send(ctx, http.MethodGet, "/metrics", nil, http.StatusOK)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != MetricsContentType {
		return "", fmt.Errorf("server: /metrics served unexpected Content-Type %q (want %q)", ct, MetricsContentType)
	}
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}

// FetchTrace dumps a session's sampled stage spans (NDJSON from
// GET /v1/sessions/{id}/trace), oldest first.
func (c *Client) FetchTrace(ctx context.Context, id string) ([]obs.Span, error) {
	resp, err := c.send(ctx, http.MethodGet, "/v1/sessions/"+id+"/trace", nil, http.StatusOK)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var spans []obs.Span
	dec := json.NewDecoder(resp.Body)
	for {
		var sp obs.Span
		if err := dec.Decode(&sp); err != nil {
			if errors.Is(err, io.EOF) {
				return spans, nil
			}
			return spans, err
		}
		spans = append(spans, sp)
	}
}

// FetchEvents fetches a session's diagnostic timeline
// (GET /v1/sessions/{id}/events).
func (c *Client) FetchEvents(ctx context.Context, id string) ([]obs.TimelineEvent, uint64, error) {
	var out sessionEvents
	if err := c.call(ctx, http.MethodGet, "/v1/sessions/"+id+"/events", nil, http.StatusOK, &out); err != nil {
		return nil, 0, err
	}
	return out.Events, out.Total, nil
}

// Retrace replays a session's WAL through a fresh pipeline on the
// daemon, optionally under an overridden search mode ("", "hierarchical"
// or "dense"), and returns the per-tag results. Raw is the exact body of
// a successful response, for byte-level determinism checks.
func (c *Client) Retrace(ctx context.Context, id, mode string) (*RetraceSummary, []byte, error) {
	body := map[string]any{}
	if mode != "" {
		body["search"] = map[string]any{"mode": mode}
	}
	resp, err := c.send(ctx, http.MethodPost, "/v1/sessions/"+id+"/retrace", body, http.StatusOK)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	var sum RetraceSummary
	if err := json.Unmarshal(raw, &sum); err != nil {
		return nil, raw, err
	}
	return &sum, raw, nil
}

// Control fetches the node's control-plane state: congestion score and
// components, runtime knobs, and every session's cost.
func (c *Client) Control(ctx context.Context) (*ControlState, error) {
	var st ControlState
	if err := c.call(ctx, http.MethodGet, "/v1/control", nil, http.StatusOK, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// UpdateControl mutates the node's runtime knobs (POST
// /v1/control/config body shape; absent fields keep their value) and
// returns the post-mutation state.
func (c *Client) UpdateControl(ctx context.Context, patch ControlPatchJSON) (*ControlState, error) {
	var st ControlState
	if err := c.call(ctx, http.MethodPost, "/v1/control/config", patch, http.StatusOK, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// ParkSession parks a live durable session (idempotent).
func (c *Client) ParkSession(ctx context.Context, id string) error {
	return c.call(ctx, http.MethodPost, "/v1/sessions/"+id+"/park", nil, http.StatusOK, nil)
}

// ResumeSession brings a parked session back live.
func (c *Client) ResumeSession(ctx context.Context, id string) error {
	return c.call(ctx, http.MethodPost, "/v1/sessions/"+id+"/resume", nil, http.StatusOK, nil)
}

// DrainSession flushes a live session's pipeline to subscribers and WAL.
func (c *Client) DrainSession(ctx context.Context, id string) error {
	return c.call(ctx, http.MethodPost, "/v1/sessions/"+id+"/drain", nil, http.StatusOK, nil)
}
