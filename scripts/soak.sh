#!/usr/bin/env bash
# Soak gate: drive a race-enabled rfidrawd with loadgen, fail on goroutine
# leaks (pre-load vs post-drain /metrics scrapes), on unpopulated stage
# latency histograms, on a client/server latency-accounting divergence
# (loadgen -server-check-ms), or on an empty mid-load pprof CPU profile,
# and leave the latency percentile report (SOAK JSON) for the CI
# artifact step.
#
# Env knobs: SOAK_SESSIONS (8), SOAK_DURATION (30s), SOAK_OUT
# (SOAK_latency.json), SOAK_PACE (1).
set -euo pipefail

HTTP=127.0.0.1:18090
INGEST=127.0.0.1:17070
PPROF=127.0.0.1:16060
SESSIONS="${SOAK_SESSIONS:-8}"
DURATION="${SOAK_DURATION:-30s}"
PACE="${SOAK_PACE:-1}"
OUT="${SOAK_OUT:-SOAK_latency.json}"
# Goroutine growth tolerated between the two scrapes: idle HTTP conns and
# GC workers wobble a little; a leaked session is dozens.
SLACK=8

mkdir -p bin
go build -race -o bin/rfidrawd ./cmd/rfidrawd
go build -o bin/loadgen ./cmd/loadgen

bin/rfidrawd -http "$HTTP" -ingest "$INGEST" -idle 30s -pprof-addr "$PPROF" &
DAEMON=$!
trap 'kill "$DAEMON" 2>/dev/null || true' EXIT

for _ in $(seq 1 100); do
  curl -sf "http://$HTTP/healthz" >/dev/null 2>&1 && break
  sleep 0.2
done
curl -sf "http://$HTTP/healthz" >/dev/null

goroutines() { curl -sf "http://$HTTP/metrics" | awk '/^rfidrawd_goroutines /{print $2}'; }
BEFORE="$(goroutines)"
echo "soak: goroutines before load: $BEFORE"

# loadgen cross-checks the daemon's own rfidrawd_report_latency_seconds
# histogram against the client-observed latency (-server-check-ms): the
# server-side interpolated p99 must not exceed the client p99 by more
# than the tolerance, and the histogram must have gained observations.
bin/loadgen -daemon "http://$HTTP" -sessions "$SESSIONS" -duration "$DURATION" -pace "$PACE" \
  -server-check-ms 500 -out "$OUT" &
LOADGEN=$!

# Mid-load CPU profile: the opt-in pprof endpoint must serve a
# non-empty profile while the daemon is actually working.
sleep 3
curl -sf "http://$PPROF/debug/pprof/profile?seconds=5" -o soak_cpu.pprof
if [ ! -s soak_cpu.pprof ]; then
  echo "soak: pprof CPU profile is empty" >&2
  exit 1
fi
echo "soak: captured mid-load CPU profile ($(wc -c <soak_cpu.pprof) bytes)"
rm -f soak_cpu.pprof

wait "$LOADGEN"
echo "soak: loadgen report:"
cat "$OUT"

# The multi-hypothesis tracing core must surface its observability: the
# hypothesis gauge and the leader-switch/retirement counters have to be
# present on /metrics (values may legitimately be 0 after drain).
METRICS="$(curl -sf "http://$HTTP/metrics")"
for m in rfidrawd_hypotheses_active rfidrawd_leader_switches_total rfidrawd_hypothesis_retirements_total; do
  if ! grep -q "^$m " <<<"$METRICS"; then
    echo "soak: /metrics missing $m" >&2
    exit 1
  fi
done
echo "soak: hypothesis metrics present"

# Every pipeline stage's latency histogram must have been populated by
# the load: a stage whose +Inf bucket stayed at zero means its stamps
# are not wired through the serving path.
for st in ingest reorder wal_append engine_offer emit write; do
  C="$(echo "$METRICS" | grep -F "rfidrawd_stage_seconds_bucket{stage=\"$st\",le=\"+Inf\"}" | awk '{print $2}')"
  if [ "${C:-0}" -eq 0 ]; then
    echo "soak: stage histogram $st never observed anything under load" >&2
    exit 1
  fi
done
echo "soak: all stage histograms populated"

# loadgen deletes its sessions; give the daemon a moment to fully drain.
sleep 5
AFTER="$(goroutines)"
echo "soak: goroutines after drain: $AFTER (before: $BEFORE, slack: $SLACK)"
if [ "$AFTER" -gt $((BEFORE + SLACK)) ]; then
  echo "soak: goroutine leak: $BEFORE -> $AFTER" >&2
  exit 1
fi

# The daemon must still be healthy and empty.
curl -sf "http://$HTTP/healthz" | grep -q '"sessions":0'
echo "soak: OK"

# ── Phase 2: kill-and-recover ────────────────────────────────────────────
# SIGKILL a durable (-data-dir) daemon mid-load, restart it over the same
# directory, and assert (a) every mid-flight session is rehydrated in the
# recovered state, (b) retrace serves from the recovered record and is
# deterministic (two runs byte-identical).
kill "$DAEMON" 2>/dev/null || true
wait "$DAEMON" 2>/dev/null || true

DATA_DIR="$(mktemp -d)"
RECOVER_SESSIONS="${SOAK_RECOVER_SESSIONS:-4}"
bin/rfidrawd -http "$HTTP" -ingest "$INGEST" -idle 30s -data-dir "$DATA_DIR" &
DAEMON=$!
trap 'kill -9 "$DAEMON" 2>/dev/null || true; rm -rf "$DATA_DIR"' EXIT
for _ in $(seq 1 100); do
  curl -sf "http://$HTTP/healthz" >/dev/null 2>&1 && break
  sleep 0.2
done

# Drive load and kill the daemon out from under it.
bin/loadgen -daemon "http://$HTTP" -sessions "$RECOVER_SESSIONS" -duration 60s -pace "$PACE" \
  >/dev/null 2>&1 &
LOADGEN=$!
sleep 8
echo "soak: SIGKILL rfidrawd mid-load"
kill -9 "$DAEMON"
wait "$LOADGEN" 2>/dev/null || true  # loadgen fails when its daemon dies; expected

bin/rfidrawd -http "$HTTP" -ingest "$INGEST" -idle 30s -data-dir "$DATA_DIR" &
DAEMON=$!
for _ in $(seq 1 100); do
  curl -sf "http://$HTTP/healthz" >/dev/null 2>&1 && break
  sleep 0.2
done

RECOVERED="$(curl -sf "http://$HTTP/metrics" | awk '/^rfidrawd_sessions_recovered_total /{print $2}')"
echo "soak: sessions recovered after restart: $RECOVERED (want $RECOVER_SESSIONS)"
if [ "$RECOVERED" -lt "$RECOVER_SESSIONS" ]; then
  echo "soak: recovery lost sessions: $RECOVERED < $RECOVER_SESSIONS" >&2
  exit 1
fi
STATES="$(curl -sf "http://$HTTP/v1/sessions")"
if grep -q '"state":"live"' <<<"$STATES"; then
  echo "soak: recovered daemon reports live sessions it never served" >&2
  exit 1
fi

# Retrace equivalence: two retraces of the same recovered record must be
# byte-identical and non-empty.
SID="$(echo "$STATES" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p' | head -1)"
curl -sf -X POST "http://$HTTP/v1/sessions/$SID/retrace" -d '{}' -o rt1.json
curl -sf -X POST "http://$HTTP/v1/sessions/$SID/retrace" -d '{}' -o rt2.json
if ! cmp -s rt1.json rt2.json; then
  echo "soak: retrace of $SID is nondeterministic" >&2
  exit 1
fi
if ! grep -q '"t_ns"' rt1.json; then
  echo "soak: retrace of $SID returned no trajectory points" >&2
  exit 1
fi
rm -f rt1.json rt2.json
echo "soak: kill-and-recover OK ($RECOVERED sessions, retrace deterministic)"

# ── Phase 3: adversarial scenario corpus ─────────────────────────────────
# Drive every named fault profile (internal/corpus) through a fresh
# durable daemon with loadgen -profile: injected clock skew, duplicate
# floods, reader death and the multiroom geometry must all produce trace
# points, keep retrace deterministic, and leak no goroutines. The drift
# profile's 40ms skew exceeds the 25ms reorder window, so the
# reorder-late counter must move.
kill -9 "$DAEMON" 2>/dev/null || true
wait "$DAEMON" 2>/dev/null || true
rm -rf "$DATA_DIR"

ADV_SESSIONS="${SOAK_ADV_SESSIONS:-2}"
ADV_DURATION="${SOAK_ADV_DURATION:-8s}"
ADV_PACE="${SOAK_ADV_PACE:-4}"
DATA_DIR="$(mktemp -d)"
bin/rfidrawd -http "$HTTP" -ingest "$INGEST" -idle 30s -data-dir "$DATA_DIR" &
DAEMON=$!
for _ in $(seq 1 100); do
  curl -sf "http://$HTTP/healthz" >/dev/null 2>&1 && break
  sleep 0.2
done
ADV_BEFORE="$(goroutines)"

for PROFILE in clean nlos-heavy drift dup-flood reader-loss multiroom; do
  echo "soak: adversarial profile: $PROFILE"
  bin/loadgen -daemon "http://$HTTP" -sessions "$ADV_SESSIONS" \
    -duration "$ADV_DURATION" -pace "$ADV_PACE" -retrace \
    -profile "$PROFILE" -out "SOAK_${PROFILE}.json"
done

LATE="$(curl -sf "http://$HTTP/metrics" | awk '/^rfidrawd_reorder_late_total /{print $2}')"
echo "soak: reorder-late reports across profiles: $LATE"
if [ "${LATE:-0}" -eq 0 ]; then
  echo "soak: drift profile moved no reorder-late reports (skew beyond the window went unnoticed)" >&2
  exit 1
fi

sleep 5
ADV_AFTER="$(goroutines)"
echo "soak: goroutines after adversarial phase: $ADV_AFTER (before: $ADV_BEFORE, slack: $SLACK)"
if [ "$ADV_AFTER" -gt $((ADV_BEFORE + SLACK)) ]; then
  echo "soak: goroutine leak under fault injection: $ADV_BEFORE -> $ADV_AFTER" >&2
  exit 1
fi
curl -sf "http://$HTTP/healthz" | grep -q '"sessions":0'
echo "soak: adversarial corpus OK (6 profiles, reorder-late $LATE)"

# ── Phase 4: overload ────────────────────────────────────────────────────
# Drive a daemon provisioned at a fraction of the offered load (tiny
# -eval-capacity, low shed/park thresholds) well past capacity and
# assert the admission layer does its job: the congestion score rises on
# /metrics, the cheapest durable sessions are parked (not dropped), new
# sessions are refused with 429s that carry Retry-After (loadgen
# -overload fails on a hint-less 429), a parked session resumes and
# still retraces deterministically, and the daemon neither crashes nor
# leaks goroutines.
kill -9 "$DAEMON" 2>/dev/null || true
wait "$DAEMON" 2>/dev/null || true
rm -rf "$DATA_DIR"

OVL_SESSIONS="${SOAK_OVERLOAD_SESSIONS:-12}"
OVL_DURATION="${SOAK_OVERLOAD_DURATION:-20s}"
OVL_PACE="${SOAK_OVERLOAD_PACE:-4}"
DATA_DIR="$(mktemp -d)"
bin/rfidrawd -http "$HTTP" -ingest "$INGEST" -idle 30s -data-dir "$DATA_DIR" \
  -eval-capacity 500 -shed-at 0.5 -park-at 0.2 &
DAEMON=$!
for _ in $(seq 1 100); do
  curl -sf "http://$HTTP/healthz" >/dev/null 2>&1 && break
  sleep 0.2
done
OVL_BEFORE="$(goroutines)"

bin/loadgen -daemon "http://$HTTP" -sessions "$OVL_SESSIONS" \
  -duration "$OVL_DURATION" -pace "$OVL_PACE" -overload -out SOAK_overload.json &
LOADGEN=$!

# The score decays once sessions are parked, so sample it while the
# overload is in flight and keep the peak.
PEAK=0
for _ in $(seq 1 15); do
  sleep 1
  S="$(curl -sf "http://$HTTP/metrics" | awk '/^rfidrawd_congestion_score /{print $2}')" || S=0
  PEAK="$(awk -v a="$PEAK" -v b="${S:-0}" 'BEGIN{print (b>a)?b:a}')"
done
if ! wait "$LOADGEN"; then
  echo "soak: loadgen -overload failed (a session errored for a reason other than shed/park)" >&2
  cat SOAK_overload.json >&2 || true
  exit 1
fi
echo "soak: overload report:"
cat SOAK_overload.json
echo "soak: peak congestion score under overload: $PEAK"
if awk -v p="$PEAK" 'BEGIN{exit !(p > 0)}'; then :; else
  echo "soak: congestion score never rose under 2x+ overload" >&2
  exit 1
fi

METRICS="$(curl -sf "http://$HTTP/metrics")"
PARKED="$(echo "$METRICS" | awk '/^rfidrawd_sessions_parked_total /{print $2}')"
REJECTED="$(echo "$METRICS" | awk '/^rfidrawd_admission_rejected_total /{print $2}')"
echo "soak: parked $PARKED sessions, rejected $REJECTED creates with 429"
if [ "${PARKED:-0}" -eq 0 ]; then
  echo "soak: pressure loop parked nothing under overload" >&2
  exit 1
fi
if [ "${REJECTED:-0}" -eq 0 ]; then
  echo "soak: admission refused nothing under overload" >&2
  exit 1
fi

# Resume one parked session through the control plane and prove the
# record survived the park/resume round trip: two retraces must be
# byte-identical and non-empty.
PARKED_ID="$(curl -sf "http://$HTTP/v1/control" | grep -o '"id":"[^"]*","state":"recovered"' | head -1 | sed 's/"id":"\([^"]*\)".*/\1/')"
if [ -z "$PARKED_ID" ]; then
  echo "soak: no parked session visible on /v1/control" >&2
  exit 1
fi
curl -sf -X POST "http://$HTTP/v1/sessions/$PARKED_ID/resume" >/dev/null
curl -sf "http://$HTTP/v1/sessions/$PARKED_ID" | grep -q '"state":"live"'
curl -sf -X POST "http://$HTTP/v1/sessions/$PARKED_ID/retrace" -d '{}' -o rt1.json
curl -sf -X POST "http://$HTTP/v1/sessions/$PARKED_ID/retrace" -d '{}' -o rt2.json
if ! cmp -s rt1.json rt2.json; then
  echo "soak: retrace after park/resume is nondeterministic" >&2
  exit 1
fi
if ! grep -q '"t_ns"' rt1.json; then
  echo "soak: retrace after park/resume returned no trajectory points" >&2
  exit 1
fi
rm -f rt1.json rt2.json
RESUMED="$(curl -sf "http://$HTTP/metrics" | awk '/^rfidrawd_sessions_resumed_total /{print $2}')"
echo "soak: resumed $PARKED_ID losslessly (resumed_total $RESUMED, retrace deterministic)"

sleep 5
OVL_AFTER="$(goroutines)"
echo "soak: goroutines after overload phase: $OVL_AFTER (before: $OVL_BEFORE, slack: $SLACK)"
if [ "$OVL_AFTER" -gt $((OVL_BEFORE + SLACK)) ]; then
  echo "soak: goroutine leak under overload: $OVL_BEFORE -> $OVL_AFTER" >&2
  exit 1
fi
curl -sf "http://$HTTP/healthz" >/dev/null
echo "soak: overload OK (peak score $PEAK, parked $PARKED, rejected $REJECTED)"

# ── Phase 5: binary subscriber encoding ──────────────────────────────────
# Replay the identical scenario twice against a fresh daemon — once with
# NDJSON subscribers, once with the length-prefixed binary encoding — and
# gate that both decode to the same trace stream. Counts must agree
# within the tail-sweep bound (the replay deadline cuts the final
# scenario loop at a wall-clock boundary, so the last in-flight sweep per
# tag can differ by a point between runs; an encoding-level decode bug
# diverges by whole event streams, not a tail point) and neither run may
# drop events.
kill -9 "$DAEMON" 2>/dev/null || true
wait "$DAEMON" 2>/dev/null || true
rm -rf "$DATA_DIR"

ENC_SESSIONS="${SOAK_ENC_SESSIONS:-2}"
ENC_DURATION="${SOAK_ENC_DURATION:-8s}"
ENC_PACE="${SOAK_ENC_PACE:-4}"
bin/rfidrawd -http "$HTTP" -ingest "$INGEST" -idle 30s &
DAEMON=$!
trap 'kill -9 "$DAEMON" 2>/dev/null || true' EXIT
for _ in $(seq 1 100); do
  curl -sf "http://$HTTP/healthz" >/dev/null 2>&1 && break
  sleep 0.2
done

for ENC in ndjson binary; do
  echo "soak: encoding phase: $ENC"
  bin/loadgen -daemon "http://$HTTP" -sessions "$ENC_SESSIONS" \
    -duration "$ENC_DURATION" -pace "$ENC_PACE" -encoding "$ENC" \
    -out "SOAK_enc_${ENC}.json"
done

enc_field() { sed -n "s/^  \"$2\": \([0-9]*\),*/\1/p" "SOAK_enc_$1.json" | head -1; }
ND_POINTS="$(enc_field ndjson points)"; BIN_POINTS="$(enc_field binary points)"
ND_DROPS="$(enc_field ndjson drops)";   BIN_DROPS="$(enc_field binary drops)"
TAGS="$(enc_field ndjson tags_per_session)"
ENC_SLACK=$((ENC_SESSIONS * TAGS * 2))
echo "soak: points ndjson=$ND_POINTS binary=$BIN_POINTS (slack $ENC_SLACK), drops ndjson=$ND_DROPS binary=$BIN_DROPS"
if [ "${ND_POINTS:-0}" -eq 0 ] || [ "${BIN_POINTS:-0}" -eq 0 ]; then
  echo "soak: an encoding phase produced no trace points" >&2
  exit 1
fi
if [ "${ND_DROPS:-0}" -ne 0 ] || [ "${BIN_DROPS:-0}" -ne 0 ]; then
  echo "soak: encoding phase dropped events (ndjson $ND_DROPS, binary $BIN_DROPS)" >&2
  exit 1
fi
DIFF=$((ND_POINTS - BIN_POINTS)); [ "$DIFF" -lt 0 ] && DIFF=$((-DIFF))
if [ "$DIFF" -gt "$ENC_SLACK" ]; then
  echo "soak: binary subscribers decoded a different stream: $ND_POINTS ndjson vs $BIN_POINTS binary points" >&2
  exit 1
fi
curl -sf "http://$HTTP/healthz" | grep -q '"sessions":0'
echo "soak: binary encoding OK ($BIN_POINTS points, equal to ndjson within tail-sweep bound)"

# ── Phase 6: tiered fan-out under pressure ───────────────────────────────
# One session fanning out to many subscribers spread across all three
# trace tiers, against a daemon with a deliberately shallow subscriber
# queue so fan-out pressure is real: the adaptive policy must step
# backlogged subscribers down a tier instead of stalling anyone, and the
# decimated T0 cohort — running at an eighth of the point rate — must
# ride it out without losing a single event. The daemon must also come
# back to idle without leaking any of the fan-out goroutines.
#
# Whether loadgen's own subscribers fall behind depends on the host's
# speed, so the backlog is made certain: one extra tier-2 stream of
# load-0 is held open and unread for the first TIER_HOLD seconds, then
# read to its end. A plain unread curl stream cannot do this — on
# loopback the kernel buffers megabytes, more than the session streams
# in the whole phase — so the held connection is opened (in perl) with
# a small MSS and receive buffer, which keeps the daemon's send buffer
# small too: it fills within about 2 s, the subscriber's queue backs up,
# and the policy steps it down. Drop-oldest may evict those backlog
# announcements while the stream is held, but once it is read again its
# recovery is announced in it ("recovered" from the tier it was stepped
# down to), and every step is counted on /metrics. The hold needs
# SOAK_TIER_DURATION well above it.
kill -9 "$DAEMON" 2>/dev/null || true
wait "$DAEMON" 2>/dev/null || true

TIER_SUBSCRIBERS="${SOAK_TIER_SUBSCRIBERS:-256}"
TIER_DURATION="${SOAK_TIER_DURATION:-10s}"
TIER_PACE="${SOAK_TIER_PACE:-8}"
TIER_HOLD=4
bin/rfidrawd -http "$HTTP" -ingest "$INGEST" -idle 30s \
  -max-subscribers 512 -queue 2 &
DAEMON=$!
HELD_OUT="$(mktemp)"
trap 'kill -9 "$DAEMON" 2>/dev/null || true; rm -f "$HELD_OUT"' EXIT
for _ in $(seq 1 100); do
  curl -sf "http://$HTTP/healthz" >/dev/null 2>&1 && break
  sleep 0.2
done
TIER_BEFORE="$(goroutines)"

echo "soak: tiered fan-out phase: $TIER_SUBSCRIBERS subscribers, mixed tiers, one stream held ${TIER_HOLD}s"
bin/loadgen -daemon "http://$HTTP" -sessions 1 -tags 4 -duration "$TIER_DURATION" \
  -pace "$TIER_PACE" -subscribers "$TIER_SUBSCRIBERS" -tier mixed \
  -out SOAK_tiered.json &
LOADGEN=$!
for _ in $(seq 1 200); do
  curl -sf "http://$HTTP/v1/sessions/load-0" >/dev/null 2>&1 && break
  sleep 0.05
done
perl -MSocket=:all -e '
  my ($host, $port, $path, $hold, $out) = @ARGV;
  socket(my $s, PF_INET, SOCK_STREAM, IPPROTO_TCP) or die "socket: $!";
  setsockopt($s, IPPROTO_TCP, TCP_MAXSEG, 536) or die "TCP_MAXSEG: $!";
  setsockopt($s, SOL_SOCKET, SO_RCVBUF, 4096) or die "SO_RCVBUF: $!";
  connect($s, pack_sockaddr_in($port, inet_aton($host))) or die "connect: $!";
  syswrite($s, "GET $path HTTP/1.0\r\nHost: $host\r\n\r\n") or die "write: $!";
  sleep $hold;
  open(my $fh, ">", $out) or die "$out: $!";
  while (sysread($s, my $buf, 65536)) { print $fh $buf }
' "${HTTP%:*}" "${HTTP##*:}" "/v1/sessions/load-0/stream?tier=2" "$TIER_HOLD" "$HELD_OUT" &
HELD=$!
if ! wait "$LOADGEN"; then
  echo "soak: loadgen failed in the tiered phase" >&2
  exit 1
fi
if ! wait "$HELD"; then
  echo "soak: the held tier-2 stream failed" >&2
  exit 1
fi

tier_field() { sed -n "s/^  \"$1\": \([0-9]*\),*/\1/p" SOAK_tiered.json | head -1; }
T0_POINTS="$(tier_field tier0_points)"; T1_POINTS="$(tier_field tier1_points)"
T2_POINTS="$(tier_field tier2_points)"; T0_DROPS="$(tier_field tier0_drops)"
DOWNGRADES="$(tier_field downgrades)"
HELD_TIER="$(grep -c '"type":"tier"' "$HELD_OUT" || true)"
echo "soak: tiered points t0=$T0_POINTS t1=$T1_POINTS t2=$T2_POINTS, t0 drops=$T0_DROPS, downgrades=$DOWNGRADES, held-stream tier events=$HELD_TIER"
if [ "${T0_POINTS:-0}" -eq 0 ] || [ "${T1_POINTS:-0}" -eq 0 ] || [ "${T2_POINTS:-0}" -eq 0 ]; then
  echo "soak: a tier cohort received no trace points" >&2
  exit 1
fi
if ! grep -q '"type":"end"' "$HELD_OUT"; then
  echo "soak: the held tier-2 stream did not run to its end" >&2
  exit 1
fi
if [ "${HELD_TIER:-0}" -eq 0 ]; then
  echo "soak: the held tier-2 stream backed up but announced no tier change" >&2
  exit 1
fi
if [ "${T0_DROPS:-0}" -ne 0 ]; then
  echo "soak: decimated T0 subscribers dropped $T0_DROPS events under fan-out pressure" >&2
  exit 1
fi
# The held stream's steps are counted on /metrics but not in loadgen's
# report, so the counter must exceed what loadgen saw announced.
DOWNGRADES_METRIC="$(curl -sf "http://$HTTP/metrics" | awk '/^rfidrawd_tier_downgrades_total /{print $2}')"
if [ "${DOWNGRADES_METRIC:-0}" -le "${DOWNGRADES:-0}" ]; then
  echo "soak: rfidrawd_tier_downgrades_total $DOWNGRADES_METRIC does not count the held stream's downgrades beyond loadgen's $DOWNGRADES" >&2
  exit 1
fi

sleep 5
TIER_AFTER="$(goroutines)"
echo "soak: goroutines after tiered phase: $TIER_AFTER (before: $TIER_BEFORE, slack: $SLACK)"
if [ "$TIER_AFTER" -gt $((TIER_BEFORE + SLACK)) ]; then
  echo "soak: goroutine leak under tiered fan-out: $TIER_BEFORE -> $TIER_AFTER" >&2
  exit 1
fi
curl -sf "http://$HTTP/healthz" | grep -q '"sessions":0'
echo "soak: tiered fan-out OK ($TIER_SUBSCRIBERS subscribers, $DOWNGRADES_METRIC downgrades counted, $HELD_TIER tier events on the held stream, zero T0 drops)"
