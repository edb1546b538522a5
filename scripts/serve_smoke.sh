#!/usr/bin/env bash
# serve-smoke: start a real `usim serve` process, drive one of each request
# type through a scripted client (bash /dev/tcp — no extra tooling), and
# assert the responses match the CLI answers for the same graph and seed.
#
# The rigorous bit-identity contract is pinned by the Rust test suites
# (crates/cli/tests/serve_equivalence.rs, crates/server/tests/); this script
# proves the *shipped binary* end to end: process startup, port-file
# rendezvous, the TCP loop, and graceful --max-connections shutdown.
#
# Knobs (all optional — defaults reproduce the classic run):
#   USIM_SMOKE_SOURCE           main-round boot source: text|snapshot [text]
#   USIM_SMOKE_SAMPLER          walk backend: legacy|alias          [legacy]
# CI runs the script three times: once with the defaults, once with
# --snapshot, and once with --sampler alias --snapshot, so the
# snapshot-booted and alias-table serving paths are both
# exercised on the shipped binary.  The snapshot variants also compute the
# CLI ground truth from the snapshot file and assert it equals the text
# file's: the CLI and the server read one artifact with the same labels.  The sampler kind
# applies to every round (including the CLI ground truth), so the whole
# pipeline is asserted end to end under the selected backend.
set -euo pipefail
cd "$(dirname "$0")/.."

SAMPLES=200
SEED=7
SMOKE_SOURCE=${USIM_SMOKE_SOURCE:-text}
SMOKE_SAMPLER=${USIM_SMOKE_SAMPLER:-legacy}
TMP=$(mktemp -d)
SERVER_PID=""
cleanup() {
    [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT

cargo build --release -p usim_cli
USIM=target/release/usim

# A small fixed graph with non-compact labels, like real edge lists.
cat > "$TMP/graph.tsv" <<'EOF'
10 30 0.8
10 40 0.5
20 10 0.8
20 30 0.9
30 10 0.7
30 40 0.6
40 50 0.6
40 20 0.8
EOF
printf '10 20\n20 30\n30 40\n' > "$TMP/pairs.txt"

# CLI ground truth: batch scores before and after one update round.
printf -- '= 10 30 0.1\n- 40 50\n' > "$TMP/updates.txt"
CLI_BATCH=$("$USIM" simrank "$TMP/graph.tsv" --batch "$TMP/pairs.txt" \
    --samples "$SAMPLES" --seed "$SEED" --sampler "$SMOKE_SAMPLER")
CLI_CHURN=$("$USIM" simrank "$TMP/graph.tsv" --batch "$TMP/pairs.txt" \
    --updates "$TMP/updates.txt" --samples "$SAMPLES" --seed "$SEED" \
    --sampler "$SMOKE_SAMPLER")
echo "--- CLI ground truth ---"
echo "$CLI_BATCH"
echo "$CLI_CHURN"
score_rows() { # table text -> its `source target score...` rows only
    printf '%s\n' "$1" | awk 'NF >= 3 && $1 ~ /^[0-9]+$/ && $2 ~ /^[0-9]+$/'
}

# Opens fd 3 to $1:$2 with a bounded retry loop.  Between the port file
# appearing and the accept loop picking the connection up there is a real
# race on slow machines; a raw `exec 3<>/dev/tcp/...` that loses it kills
# the whole script.  The retry wraps the *real* connection — a separate
# probe connect would burn the server's --max-connections budget.
connect3() {
    local host=$1 port=$2 attempt
    for attempt in $(seq 30); do
        if exec 3<>"/dev/tcp/$host/$port" 2>/dev/null; then
            return 0
        fi
        sleep 0.1
    done
    echo "FAIL: cannot connect to $host:$port after 30 attempts"
    return 1
}
ask() {
    printf '%s\n' "$1" >&3
    local response
    IFS= read -r response <&3
    printf '%s\n' "$response"
}

# Main-round server configuration from the knobs: boot source and sampler.
SERVE_EXTRA=(--sampler "$SMOKE_SAMPLER")
case "$SMOKE_SOURCE" in
    text) SERVE_SOURCE=("$TMP/graph.tsv") ;;
    snapshot)
        "$USIM" convert "$TMP/graph.tsv" "$TMP/graph_main.usim"
        SERVE_SOURCE=(--snapshot "$TMP/graph_main.usim")
        # The CLI reads the very file the server boots from, in the same
        # labels: its ground truth must equal the text file's.
        SNAP_CLI_BATCH=$("$USIM" simrank "$TMP/graph_main.usim" --batch "$TMP/pairs.txt" \
            --samples "$SAMPLES" --seed "$SEED" --sampler "$SMOKE_SAMPLER")
        SNAP_CLI_CHURN=$("$USIM" simrank "$TMP/graph_main.usim" --batch "$TMP/pairs.txt" \
            --updates "$TMP/updates.txt" --samples "$SAMPLES" --seed "$SEED" \
            --sampler "$SMOKE_SAMPLER")
        [ "$(score_rows "$SNAP_CLI_BATCH")" = "$(score_rows "$CLI_BATCH")" ] || {
            echo "FAIL: CLI batch on the snapshot != CLI batch on the text file"
            echo "$SNAP_CLI_BATCH"; exit 1; }
        [ "$(score_rows "$SNAP_CLI_CHURN")" = "$(score_rows "$CLI_CHURN")" ] || {
            echo "FAIL: CLI churn on the snapshot != CLI churn on the text file"
            echo "$SNAP_CLI_CHURN"; exit 1; }
        echo "--- CLI ground truth on the snapshot equals the text file's ---"
        ;;
    *) echo "FAIL: USIM_SMOKE_SOURCE must be text or snapshot, got $SMOKE_SOURCE"; exit 1 ;;
esac

# Start the server on a free port; rendezvous through the port file.  The
# startup banner is captured so its provenance fields can be asserted.
"$USIM" serve "${SERVE_SOURCE[@]}" --addr 127.0.0.1:0 --port-file "$TMP/port" \
    --workers 2 --max-connections 1 "${SERVE_EXTRA[@]}" \
    --samples "$SAMPLES" --seed "$SEED" \
    > "$TMP/server1.log" &
SERVER_PID=$!
for _ in $(seq 100); do
    [ -s "$TMP/port" ] && break
    sleep 0.1
done
[ -s "$TMP/port" ] || { echo "FAIL: server never wrote the port file"; exit 1; }
ADDR=$(cat "$TMP/port")
HOST=${ADDR%:*}
PORT=${ADDR##*:}
echo "--- server up on $ADDR (source = $SMOKE_SOURCE, sampler = $SMOKE_SAMPLER) ---"
grep -q "source = $SMOKE_SOURCE, epoch = 0," "$TMP/server1.log" || {
    echo "FAIL: banner misses source/epoch:"; cat "$TMP/server1.log"; exit 1; }
grep -q "sampler = $SMOKE_SAMPLER" "$TMP/server1.log" || {
    echo "FAIL: banner misses 'sampler = $SMOKE_SAMPLER':"; cat "$TMP/server1.log"; exit 1; }

# One connection, one frame of every request type, responses in order.
connect3 "$HOST" "$PORT"

R_STATS=$(ask '{"type":"stats"}')
R_SIM=$(ask '{"type":"similarity","source":10,"target":20}')
R_PROFILE=$(ask '{"type":"profile","source":10,"target":20}')
R_TOPK=$(ask '{"type":"top_k","source":20,"k":3}')
R_BATCH=$(ask '{"type":"batch","pairs":[[10,20],[20,30],[30,40]]}')
R_BAD=$(ask '{oops')
R_UPDATE=$(ask '{"type":"update","updates":[{"op":"set","source":10,"target":30,"probability":0.1},{"op":"delete","source":40,"target":50}]}')
R_BATCH2=$(ask '{"type":"batch","pairs":[[10,20],[20,30],[30,40]]}')
exec 3<&- 3>&-
wait "$SERVER_PID"
SERVER_PID=""
echo "--- server exited cleanly after its connection budget ---"
[ ! -f "$TMP/port" ] || {
    echo "FAIL: clean shutdown left the port file behind"; exit 1; }

for response in "$R_STATS" "$R_SIM" "$R_PROFILE" "$R_TOPK" "$R_BATCH" "$R_UPDATE" "$R_BATCH2"; do
    echo "$response"
    case "$response" in
        '{"ok":true,'*) ;;
        *) echo "FAIL: expected an ok frame, got: $response"; exit 1 ;;
    esac
done
case "$R_BAD" in
    *'"code":"malformed_frame"'*) echo "$R_BAD" ;;
    *) echo "FAIL: malformed frame not rejected as typed error: $R_BAD"; exit 1 ;;
esac
case "$R_STATS" in
    *'"vertices":5'*'"arcs":8'*) ;;
    *) echo "FAIL: bad stats frame: $R_STATS"; exit 1 ;;
esac
# The walk backend must be reported as a top-level stats field.
case "$R_STATS" in
    *'"sampler":"'"$SMOKE_SAMPLER"'"'*) ;;
    *) echo "FAIL: stats frame misses sampler kind '$SMOKE_SAMPLER': $R_STATS"; exit 1 ;;
esac
# Observability sections must always be present; the stats frame was the
# connection's first, so zero earlier frames have been timed yet.
case "$R_STATS" in
    *'"latency":{"count":0,'*'"p99_us":'*'"tracing":{"enabled":'*) ;;
    *) echo "FAIL: stats frame misses latency/tracing sections: $R_STATS"; exit 1 ;;
esac
case "$R_UPDATE" in
    *'"epoch":1'*'"deleted":1'*'"reweighted":1'*) ;;
    *) echo "FAIL: bad update summary: $R_UPDATE"; exit 1 ;;
esac

# The served scores, rounded like the CLI tables, must match the CLI cell
# for cell: wire batch == `simrank --batch` (s@r0 / s(u, v) column) and the
# post-update batch == the churn table's s@r1 column.
extract_scores() { # json-line -> one 6-decimal score per line
    printf '%s\n' "$1" | awk '{
        start = index($0, "\"scores\":[") + 10
        rest = substr($0, start)
        split(substr(rest, 1, index(rest, "]") - 1), scores, ",")
        for (i = 1; i in scores; i++) printf "%.6f\n", scores[i]
    }'
}
table_column() { # table text, 1-based score column among trailing fields
    score_rows "$2" | awk -v col="$1" '{ print $(2 + col) }'
}
SERVED_BEFORE=$(extract_scores "$R_BATCH")
SERVED_AFTER=$(extract_scores "$R_BATCH2")
CLI_BEFORE=$(table_column 1 "$CLI_BATCH")
CLI_BEFORE_CHURN=$(table_column 1 "$CLI_CHURN")
CLI_AFTER=$(table_column 2 "$CLI_CHURN")

[ "$SERVED_BEFORE" = "$CLI_BEFORE" ] || {
    echo "FAIL: served batch != CLI batch"; echo "served: $SERVED_BEFORE"; echo "cli: $CLI_BEFORE"; exit 1; }
[ "$SERVED_BEFORE" = "$CLI_BEFORE_CHURN" ] || {
    echo "FAIL: served batch != CLI churn round 0"; exit 1; }
[ "$SERVED_AFTER" = "$CLI_AFTER" ] || {
    echo "FAIL: served post-update batch != CLI churn round 1"; echo "served: $SERVED_AFTER"; echo "cli: $CLI_AFTER"; exit 1; }
[ "$SERVED_BEFORE" != "$SERVED_AFTER" ] || {
    echo "FAIL: update had no effect on served scores"; exit 1; }

# --- cached-server round -----------------------------------------------
# Same graph and seed, --cache-capacity on: the same batch asked twice must
# come back byte-identical (the repeat is served from the cache), match the
# CLI scores, and the stats frame must report the hits.  Then an update
# that cannot change any cached answer (a self-loop on label 50, which no
# reverse walk from the queried pairs ever reaches) is applied: its epoch
# bump still invalidates the whole cache, so the repeated batch reads 3
# stale entries, recomputes them, and must still match the CLI scores.
"$USIM" serve "$TMP/graph.tsv" --addr 127.0.0.1:0 --port-file "$TMP/port" \
    --workers 2 --max-connections 1 --cache-capacity 1024 \
    --samples "$SAMPLES" --seed "$SEED" --sampler "$SMOKE_SAMPLER" &
SERVER_PID=$!
for _ in $(seq 100); do
    [ -s "$TMP/port" ] && break
    sleep 0.1
done
[ -s "$TMP/port" ] || { echo "FAIL: cached server never wrote the port file"; exit 1; }
ADDR=$(cat "$TMP/port")
HOST=${ADDR%:*}
PORT=${ADDR##*:}
echo "--- cached server up on $ADDR ---"

connect3 "$HOST" "$PORT"
C_BATCH1=$(ask '{"type":"batch","pairs":[[10,20],[20,30],[30,40]]}')
C_BATCH2=$(ask '{"type":"batch","pairs":[[10,20],[20,30],[30,40]]}')
C_UPDATE=$(ask '{"type":"update","updates":[{"op":"insert","source":50,"target":50,"probability":0.5}]}')
C_BATCH3=$(ask '{"type":"batch","pairs":[[10,20],[20,30],[30,40]]}')
C_STATS=$(ask '{"type":"stats"}')
exec 3<&- 3>&-
wait "$SERVER_PID"
SERVER_PID=""
[ ! -f "$TMP/port" ] || {
    echo "FAIL: cached server's clean shutdown left the port file behind"; exit 1; }

[ "$C_BATCH1" = "$C_BATCH2" ] || {
    echo "FAIL: cached repeat batch differs from the fill batch"
    echo "first:  $C_BATCH1"; echo "second: $C_BATCH2"; exit 1; }
C_SERVED=$(extract_scores "$C_BATCH1")
[ "$C_SERVED" = "$CLI_BEFORE" ] || {
    echo "FAIL: cached batch != CLI batch"
    echo "served: $C_SERVED"; echo "cli: $CLI_BEFORE"; exit 1; }
case "$C_UPDATE" in
    *'"error"'*) echo "FAIL: disjoint update frame errored: $C_UPDATE"; exit 1 ;;
esac
# The update moved the epoch, so all 3 entries read as stale and batch 3
# is recomputed: 3 hits in total (all from the repeat), 3 stale lookups,
# and scores still equal to the CLI ground truth.
C_SERVED3=$(extract_scores "$C_BATCH3")
[ "$C_SERVED3" = "$CLI_BEFORE" ] || {
    echo "FAIL: recomputed batch after a disjoint update != CLI batch"
    echo "served: $C_SERVED3"; echo "cli: $CLI_BEFORE"; exit 1; }
case "$C_STATS" in
    *'"cache":{"enabled":true,"capacity":1024'*'"hits":3'*) echo "$C_STATS" ;;
    *) echo "FAIL: cached stats frame misses the cache counters: $C_STATS"; exit 1 ;;
esac
case "$C_STATS" in
    *'"stale":3'*) ;;
    *) echo "FAIL: the update did not leave 3 stale entries: $C_STATS"; exit 1 ;;
esac
# Four frames (two batches, the update, the recomputed batch) were answered
# before the stats frame was built, and each frame's sample lands before its
# reply is written, so the histogram must have timed exactly those four.
case "$C_STATS" in
    *'"latency":{"count":4,'*) ;;
    *) echo "FAIL: latency histogram did not count the served frames: $C_STATS"; exit 1 ;;
esac
echo "--- cached server: repeat batch bit-identical, an update left 3 stale entries ---"

# --- snapshot-backed server round ---------------------------------------
# Convert the graph into a CSR snapshot, serve it with a durable update
# log, apply an update, let the server die, restart it on the same
# snapshot + log: the replayed server must report the exact epoch it died
# at and answer the same batch byte-identically.
"$USIM" convert "$TMP/graph.tsv" "$TMP/graph.usim"
# Preflight: stats re-validates every arc of the snapshot.
"$USIM" stats "$TMP/graph.usim"

"$USIM" serve --snapshot "$TMP/graph.usim" --update-log "$TMP/updates.log" \
    --addr 127.0.0.1:0 --port-file "$TMP/port" --workers 2 \
    --max-connections 1 --samples "$SAMPLES" --seed "$SEED" \
    --sampler "$SMOKE_SAMPLER" > "$TMP/server_snap1.log" &
SERVER_PID=$!
for _ in $(seq 100); do
    [ -s "$TMP/port" ] && break
    sleep 0.1
done
[ -s "$TMP/port" ] || { echo "FAIL: snapshot server never wrote the port file"; exit 1; }
ADDR=$(cat "$TMP/port")
HOST=${ADDR%:*}
PORT=${ADDR##*:}
echo "--- snapshot server (first life) up on $ADDR ---"
grep -q 'source = snapshot, epoch = 0,' "$TMP/server_snap1.log" || {
    echo "FAIL: snapshot banner misses source/epoch:"; cat "$TMP/server_snap1.log"; exit 1; }

connect3 "$HOST" "$PORT"
S_UPDATE=$(ask '{"type":"update","updates":[{"op":"set","source":10,"target":30,"probability":0.1},{"op":"delete","source":40,"target":50}]}')
S_BATCH=$(ask '{"type":"batch","pairs":[[10,20],[20,30],[30,40]]}')
exec 3<&- 3>&-
wait "$SERVER_PID"
SERVER_PID=""
echo "--- snapshot server died after its connection budget (simulated crash) ---"
case "$S_UPDATE" in
    '{"ok":true,'*'"epoch":1'*) ;;
    *) echo "FAIL: bad snapshot-server update frame: $S_UPDATE"; exit 1 ;;
esac

# Second life: same snapshot, same log.  Boot must replay the logged round.
"$USIM" serve --snapshot "$TMP/graph.usim" --update-log "$TMP/updates.log" \
    --addr 127.0.0.1:0 --port-file "$TMP/port" --workers 2 \
    --max-connections 1 --samples "$SAMPLES" --seed "$SEED" \
    --sampler "$SMOKE_SAMPLER" > "$TMP/server_snap2.log" &
SERVER_PID=$!
for _ in $(seq 100); do
    [ -s "$TMP/port" ] && break
    sleep 0.1
done
[ -s "$TMP/port" ] || { echo "FAIL: replayed server never wrote the port file"; exit 1; }
ADDR=$(cat "$TMP/port")
HOST=${ADDR%:*}
PORT=${ADDR##*:}
echo "--- snapshot server (second life) up on $ADDR ---"
grep -q 'source = snapshot, epoch = 1,' "$TMP/server_snap2.log" || {
    echo "FAIL: replayed banner misses the replayed epoch:"; cat "$TMP/server_snap2.log"; exit 1; }

connect3 "$HOST" "$PORT"
S_BATCH_REPLAYED=$(ask '{"type":"batch","pairs":[[10,20],[20,30],[30,40]]}')
S_STATS=$(ask '{"type":"stats"}')
exec 3<&- 3>&-
wait "$SERVER_PID"
SERVER_PID=""

[ "$S_BATCH_REPLAYED" = "$S_BATCH" ] || {
    echo "FAIL: replayed server batch differs from the pre-crash batch"
    echo "before: $S_BATCH"; echo "after:  $S_BATCH_REPLAYED"; exit 1; }
SNAP_SERVED=$(extract_scores "$S_BATCH_REPLAYED")
[ "$SNAP_SERVED" = "$CLI_AFTER" ] || {
    echo "FAIL: replayed snapshot batch != CLI churn round 1"
    echo "served: $SNAP_SERVED"; echo "cli: $CLI_AFTER"; exit 1; }
case "$S_STATS" in
    *'"epoch":1'*) echo "$S_STATS" ;;
    *) echo "FAIL: replayed stats frame misses epoch 1: $S_STATS"; exit 1 ;;
esac
echo "--- snapshot server: replay restored epoch 1, answers byte-identical ---"

# --- observability round -------------------------------------------------
# Trace every request (--trace-sample-rate 1), run the Prometheus exporter
# on a free port, and assert the whole observability surface on the shipped
# binary: trace/stage fields in `stats`, the `slow_queries` ring, the
# `metrics` frame, the plaintext HTTP exporter (exposition saved to
# $USIM_SMOKE_METRICS_OUT and linted), and the stage-sum invariant — every
# slow-query entry's stage timings sum to at most its end-to-end total.
# Tracing must not change a single response byte: the traced batch is
# compared against the main round's.
METRICS_OUT=${USIM_SMOKE_METRICS_OUT:-$TMP/exposition.txt}
"$USIM" serve "$TMP/graph.tsv" --addr 127.0.0.1:0 --port-file "$TMP/port" \
    --workers 2 --max-connections 1 --trace-sample-rate 1 --slow-log 8 \
    --metrics-port 0 --metrics-port-file "$TMP/mport" \
    --samples "$SAMPLES" --seed "$SEED" --sampler "$SMOKE_SAMPLER" \
    > "$TMP/server_obs.log" &
SERVER_PID=$!
for _ in $(seq 100); do
    [ -s "$TMP/port" ] && [ -s "$TMP/mport" ] && break
    sleep 0.1
done
[ -s "$TMP/port" ] || { echo "FAIL: traced server never wrote the port file"; exit 1; }
[ -s "$TMP/mport" ] || { echo "FAIL: traced server never wrote the metrics port file"; exit 1; }
ADDR=$(cat "$TMP/port")
HOST=${ADDR%:*}
PORT=${ADDR##*:}
METRICS_ADDR=$(cat "$TMP/mport")
echo "--- traced server up on $ADDR (exporter on $METRICS_ADDR) ---"
grep -q 'trace = 1/slow 8' "$TMP/server_obs.log" || {
    echo "FAIL: banner misses the trace settings:"; cat "$TMP/server_obs.log"; exit 1; }
grep -q "metrics = $METRICS_ADDR" "$TMP/server_obs.log" || {
    echo "FAIL: banner misses the exporter address:"; cat "$TMP/server_obs.log"; exit 1; }

connect3 "$HOST" "$PORT"
T_SIM=$(ask '{"type":"similarity","source":10,"target":20}')
T_BATCH=$(ask '{"type":"batch","pairs":[[10,20],[20,30],[30,40]]}')
T_STATS=$(ask '{"type":"stats"}')
T_SLOW=$(ask '{"type":"slow_queries"}')
T_METRICS=$(ask '{"type":"metrics"}')

# The exporter answers a plain HTTP/1.0 scrape while the server runs.
exec 4<>"/dev/tcp/${METRICS_ADDR%:*}/${METRICS_ADDR##*:}"
printf 'GET /metrics HTTP/1.0\r\n\r\n' >&4
SCRAPE=$(cat <&4)
exec 4<&- 4>&-
printf '%s\n' "$SCRAPE" | sed '1,/^\r*$/d' > "$METRICS_OUT"

exec 3<&- 3>&-
wait "$SERVER_PID"
SERVER_PID=""
[ ! -f "$TMP/mport" ] || {
    echo "FAIL: clean shutdown left the metrics port file behind"; exit 1; }

# Tracing is byte-invisible: the traced answers equal the main round's.
[ "$T_SIM" = "$R_SIM" ] || {
    echo "FAIL: traced similarity differs from the untraced answer"
    echo "traced:   $T_SIM"; echo "untraced: $R_SIM"; exit 1; }
[ "$T_BATCH" = "$R_BATCH" ] || {
    echo "FAIL: traced batch differs from the untraced answer"
    echo "traced:   $T_BATCH"; echo "untraced: $R_BATCH"; exit 1; }
# Trace/stage fields on the wire: the stats frame was the connection's
# third, so two query frames (plus it) have been traced by then.
case "$T_STATS" in
    *'"tracing":{"enabled":true,"sample_every":1,"traced":'*) ;;
    *) echo "FAIL: stats frame misses the tracing section: $T_STATS"; exit 1 ;;
esac
case "$T_STATS" in
    *'"stage":"walk_sample","count":2,'*) ;;
    *) echo "FAIL: walk_sample stage did not count both queries: $T_STATS"; exit 1 ;;
esac
case "$T_STATS" in
    *'"walks":{"enabled":true,"walks":'*) ;;
    *) echo "FAIL: stats frame misses the walk counters: $T_STATS"; exit 1 ;;
esac
case "$T_SLOW" in
    *'"tracing":true'*'"trace_id":'*'"stages_us":{"parse":'*) echo "$T_SLOW" ;;
    *) echo "FAIL: slow_queries frame misses trace entries: $T_SLOW"; exit 1 ;;
esac
# Stage-sum invariant on every slow-log entry the wire reports.
# (Stage names carry no digits, so summing every number after "stages_us"
# sums exactly the seven per-stage values.)
printf '%s\n' "$T_SLOW" | awk '
    { line = $0
      while (match(line, /"total_us":[0-9]+,"stages_us":\{[^}]*\}/)) {
          entry = substr(line, RSTART, RLENGTH)
          line = substr(line, RSTART + RLENGTH)
          match(entry, /[0-9]+/)
          total = substr(entry, RSTART, RLENGTH) + 0
          sub(/^.*"stages_us":\{/, "", entry)
          n = split(entry, nums, /[^0-9]+/)
          sum = 0
          for (i = 1; i <= n; i++) sum += nums[i]
          if (sum > total) {
              printf "FAIL: stage sum %dus > total %dus\n", sum, total
              exit 1
          }
          checked++
      } }
    END { if (checked == 0) { print "FAIL: no slow-query entries checked"; exit 1 }
          printf "stage-sum invariant held on %d slow-query entries\n", checked }' || exit 1
case "$T_METRICS" in
    *'"body":"'*'usim_requests_total'*) ;;
    *) echo "FAIL: metrics frame misses the exposition body: $T_METRICS"; exit 1 ;;
esac
# The scrape carried the same exposition over HTTP, and it lints clean.
grep -q 'usim_requests_total{kind="similarity"} 1' "$METRICS_OUT" || {
    echo "FAIL: exporter exposition misses the similarity counter:"; cat "$METRICS_OUT"; exit 1; }
grep -q 'usim_stage_duration_seconds_bucket{stage="walk_sample"' "$METRICS_OUT" || {
    echo "FAIL: exporter exposition misses the stage histograms:"; cat "$METRICS_OUT"; exit 1; }
scripts/lint_prometheus.sh "$METRICS_OUT"
echo "--- traced server: stages on the wire, exporter scraped and linted, answers byte-identical ---"

echo "serve-smoke: OK (server answers match the CLI bit for bit at 6 decimals)"
