#!/bin/sh
# CI entry point: build, run the full test suite, then a quick benchmark
# smoke test to catch performance-path regressions that type-check fine.
# Every stage runs under a hard timeout so a hung solve (the class of bug
# the budget layer exists to prevent) fails CI instead of wedging it.
set -eu

cd "$(dirname "$0")/.."

wait_sock() {
  i=0
  while [ ! -S "$1" ] && [ "$i" -lt 100 ]; do sleep 0.1; i=$((i + 1)); done
  [ -S "$1" ]
}

echo "== dune build"
timeout 600 dune build

echo "== dune runtest"
timeout 600 dune runtest

echo "== fault-injection sweep"
timeout 300 dune exec test/test_budget.exe

echo "== verifier fuzz smoke"
timeout 120 dune exec test/test_verify.exe

echo "== unsat-core explanation golden"
out=$(timeout 60 dune exec bin/spack_solve.exe -- --explain 'hdf5@99.9' || true)
echo "$out" | grep -q "unsatisfiable core"
echo "$out" | grep -q "because the request asks for hdf5@99.9"

echo "== asp_run enumeration smoke"
# a weighted cover with two optimal models: -n 0 lists both, the round's
# own model first; -n 1 prints only the round's model; a race over two
# domains lists the same two models, in either order
ASP_DIR=$(mktemp -d)
cat > "$ASP_DIR/cover.lp" << 'EOF'
item(1..8). { pick(X) : item(X) }. :- not pick(1), not pick(2). :- not pick(3), not pick(4). :- not pick(5), not pick(6). w(1,3). w(2,3). w(3,2). w(4,5). w(5,1). w(6,4). w(7,1). w(8,1). #minimize { W@1,X : pick(X), w(X,W) }. #show pick/1.
EOF
printf 'Answer: 1\npick(1) pick(3) pick(5) \nAnswer: 2\npick(2) pick(3) pick(5) \nOptimization: 6@1\nSATISFIABLE\n' \
  > "$ASP_DIR/expected"
asp_run() { timeout 60 dune exec bin/asp_run.exe -- "$@" "$ASP_DIR/cover.lp"; }
asp_run -n 0 > "$ASP_DIR/all"
cmp "$ASP_DIR/expected" "$ASP_DIR/all"
test "$(asp_run -n 1 | grep -c '^Answer:')" -eq 1
asp_run -j 2 -n 0 > "$ASP_DIR/raced"
unnumbered() { sed 's/^Answer: [0-9]*$/Answer:/' "$1" | sort; }
test "$(unnumbered "$ASP_DIR/expected")" = "$(unnumbered "$ASP_DIR/raced")"
rm -r "$ASP_DIR"

echo "== budgeted solve returns promptly"
rc=0
timeout 60 dune exec bin/spack_solve.exe -- --repo 800 --timeout 0.05 app-000 \
  > /dev/null 2>&1 || rc=$?
# 0 = solved in time (fast machine), 3 = interrupted cleanly; anything else
# (hang killed by timeout, crash, bare exception) fails
[ "$rc" -eq 0 ] || [ "$rc" -eq 3 ]

echo "== daemon smoke (spack_serve + spack_solve --connect)"
SMOKE_DIR=$(mktemp -d)
SOCK="$SMOKE_DIR/serve.sock"
# the daemon itself runs under a hard timeout: if shutdown never lands, the
# background process dies on its own instead of outliving CI
timeout 120 dune exec bin/spack_serve.exe -- \
  --socket "$SOCK" --cache-dir "$SMOKE_DIR/cache" > "$SMOKE_DIR/serve.log" 2>&1 &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2> /dev/null || true; rm -rf "$SMOKE_DIR"' EXIT
i=0
while [ ! -S "$SOCK" ] && [ "$i" -lt 100 ]; do sleep 0.1; i=$((i + 1)); done
[ -S "$SOCK" ]
# cold solve populates the cache, the identical warm solve is served from it
timeout 60 dune exec bin/spack_solve.exe -- --connect "$SOCK" zlib \
  | grep -q "cache miss: zlib"
timeout 60 dune exec bin/spack_solve.exe -- --connect "$SOCK" zlib \
  | grep -q "cache hit: zlib"
# the daemon solves a miss exactly as an offline solve does: the same spec
# lines (and verification line) after its cache line, and above the
# --stats block, which starts at Facts:
timeout 60 dune exec bin/spack_solve.exe -- --connect "$SOCK" --stats hdf5+szip \
  > "$SMOKE_DIR/remote.out"
grep -q "^cache miss: hdf5+szip" "$SMOKE_DIR/remote.out"
sed -e '/^cache /d' -e '/^Facts: /,$d' "$SMOKE_DIR/remote.out" > "$SMOKE_DIR/remote.spec"
timeout 60 dune exec bin/spack_solve.exe -- --stats hdf5+szip > "$SMOKE_DIR/offline.out"
sed '/^Facts: /,$d' "$SMOKE_DIR/offline.out" > "$SMOKE_DIR/offline.spec"
grep -q '^hdf5@' "$SMOKE_DIR/offline.spec"
cmp "$SMOKE_DIR/remote.spec" "$SMOKE_DIR/offline.spec"
STATS=$(timeout 60 dune exec bin/spack_solve.exe -- --connect "$SOCK" --remote-stats)
echo "$STATS" | grep -q '"hits":1'
echo "$STATS" | grep -q '"misses":2'
# a reply carries the round's whole stats: --stats through the daemon, on
# the miss above and on a hit, prints the offline solve's counts and sizes,
# and its step times are real
timeout 60 dune exec bin/spack_solve.exe -- --connect "$SOCK" --stats hdf5+szip \
  > "$SMOKE_DIR/remote_hit.out"
grep -q "^cache hit: hdf5+szip" "$SMOKE_DIR/remote_hit.out"
python3 - "$SMOKE_DIR/offline.out" "$SMOKE_DIR/remote.out" "$SMOKE_DIR/remote_hit.out" << 'EOF'
import re, sys
SAME = ["Facts:", "Ground:", "Search:", "Optimization vector", "Optimize:", "Instance:"]
def lines(path):
    return {p: l for l in open(path).read().splitlines() for p in SAME if l.startswith(p)}
offline = lines(sys.argv[1])
assert sorted(offline) == sorted(SAME), offline
for path in sys.argv[2:]:
    assert lines(path) == offline, (path, lines(path), offline)
    text = open(path).read()
    for step in ("Ground steps:", "Solve steps:"):
        m = re.search("^" + step + ".*$", text, re.M)
        assert m and any(float(x) > 0 for x in re.findall(r"([0-9.]+)s", m.group(0))), (path, step)
print("remote --stats on a miss and a hit: %s as offline, step times nonzero"
      % ", ".join(SAME))
EOF
timeout 60 dune exec bin/spack_solve.exe -- --connect "$SOCK" --remote-shutdown
wait "$SERVE_PID"
trap - EXIT
rm -rf "$SMOKE_DIR"

echo "== crash recovery drill (kill -9 mid-install, journal replay)"
# Differential check: a daemon killed at each point of the write-ahead
# install protocol, then restarted, must converge on the same installed
# database (by content fingerprint) as a daemon that never crashed.
SERVE=./_build/default/bin/spack_serve.exe
SOLVE=./_build/default/bin/spack_solve.exe
LOAD=./_build/default/bin/spack_load.exe
DRILL_DIR=$(mktemp -d)
trap 'rm -rf "$DRILL_DIR"' EXIT
SOCK="$DRILL_DIR/clean.sock"
timeout 120 "$SERVE" --socket "$SOCK" --db "$DRILL_DIR/clean.db" \
  > "$DRILL_DIR/clean.log" 2>&1 &
PID=$!
wait_sock "$SOCK"
timeout 60 "$SOLVE" --connect "$SOCK" --remote-install zlib \
  | grep -q "installed zlib"
CLEAN_FP=$(timeout 60 "$SOLVE" --connect "$SOCK" --remote-stats \
  | grep -o '"db_fingerprint":"[^"]*"')
[ -n "$CLEAN_FP" ]
timeout 60 "$SOLVE" --connect "$SOCK" --remote-shutdown
wait "$PID"
for POINT in after-intent after-save after-commit; do
  SOCK="$DRILL_DIR/$POINT.sock"
  SPACK_SERVE_CRASH=$POINT timeout 120 "$SERVE" --socket "$SOCK" \
    --db "$DRILL_DIR/$POINT.db" > "$DRILL_DIR/$POINT.log" 2>&1 &
  PID=$!
  wait_sock "$SOCK"
  # the install request rides into the injected _exit(42); the client's
  # transport error is expected
  timeout 60 "$SOLVE" --connect "$SOCK" --remote-install zlib \
    > /dev/null 2>&1 || true
  rc=0
  wait "$PID" || rc=$?
  [ "$rc" -eq 42 ]
  # restart without the crash env: journal replay reconstructs the state
  # (_exit skipped cleanup, so drop the stale socket before waiting on it)
  rm -f "$SOCK"
  timeout 120 "$SERVE" --socket "$SOCK" --db "$DRILL_DIR/$POINT.db" \
    > "$DRILL_DIR/$POINT.restart.log" 2>&1 &
  PID=$!
  wait_sock "$SOCK"
  grep -q "recovered 1 journaled install(s)" "$DRILL_DIR/$POINT.restart.log"
  FP=$(timeout 60 "$SOLVE" --connect "$SOCK" --remote-stats \
    | grep -o '"db_fingerprint":"[^"]*"')
  [ "$FP" = "$CLEAN_FP" ]
  timeout 60 "$SOLVE" --connect "$SOCK" --remote-shutdown
  wait "$PID"
done

echo "== failover drill (kill -9 primary, promote standby, lossless sync acks)"
PSOCK="$DRILL_DIR/primary.sock"
FSOCK="$DRILL_DIR/standby.sock"
timeout 180 "$SERVE" --socket "$PSOCK" --db "$DRILL_DIR/primary.db" \
  --repl-ack sync > "$DRILL_DIR/primary.log" 2>&1 &
PRIMARY_PID=$!
wait_sock "$PSOCK"
# $! is the timeout(1) wrapper; resolve the daemon underneath it so the
# kill -9 hits the primary itself, not its babysitter
PRIMARY_DPID=$(pgrep -P "$PRIMARY_PID")
timeout 180 "$SERVE" --socket "$FSOCK" --db "$DRILL_DIR/standby.db" \
  --follow "$PSOCK" > "$DRILL_DIR/standby.log" 2>&1 &
STANDBY_PID=$!
wait_sock "$FSOCK"
# wait for the subscription: from here every install ack is follower-backed
i=0
until timeout 60 "$SOLVE" --connect "$PSOCK" --remote-stats \
  | grep -q '"followers":1'; do
  sleep 0.1
  i=$((i + 1))
  [ "$i" -lt 100 ]
done
timeout 60 "$SOLVE" --connect "$PSOCK" --remote-install zlib \
  | grep -q "installed zlib"
timeout 60 "$SOLVE" --connect "$PSOCK" --remote-install hdf5 \
  | grep -q "installed hdf5"
STATS=$(timeout 60 "$SOLVE" --connect "$PSOCK" --remote-stats)
echo "$STATS" | grep -q '"sync_degraded":0'
echo "$STATS" | grep -q '"sync_timeouts":0'
ACKED_FP=$(echo "$STATS" | grep -o '"db_fingerprint":"[^"]*"')
# the primary dies without warning; the standby holds every acked install
kill -9 "$PRIMARY_DPID" 2> /dev/null || true
wait "$PRIMARY_PID" 2> /dev/null || true
timeout 60 "$SOLVE" --connect "$FSOCK" --remote-promote \
  | grep -q "promoted: now primary in epoch 2"
FP=$(timeout 60 "$SOLVE" --connect "$FSOCK" --remote-stats \
  | grep -o '"db_fingerprint":"[^"]*"')
[ "$FP" = "$ACKED_FP" ]
# clients configured with the failover chain rotate past the dead primary
timeout 60 "$SOLVE" --connect "$PSOCK,$FSOCK" --remote-install libiconv \
  | grep -q "installed libiconv"
timeout 60 "$SOLVE" --connect "$FSOCK" --remote-shutdown
wait "$STANDBY_PID" 2> /dev/null || true

echo "== failover chaos tier (spack_load --kill-primary, lost-ack audit)"
rm -f "$DRILL_DIR/primary.sock" "$DRILL_DIR/standby.sock"
timeout 180 "$SERVE" --socket "$PSOCK" --db "$DRILL_DIR/chaos-primary.db" \
  --repl-ack sync > "$DRILL_DIR/chaos-primary.log" 2>&1 &
PRIMARY_PID=$!
wait_sock "$PSOCK"
PRIMARY_DPID=$(pgrep -P "$PRIMARY_PID")
timeout 180 "$SERVE" --socket "$FSOCK" --db "$DRILL_DIR/chaos-standby.db" \
  --follow "$PSOCK" > "$DRILL_DIR/chaos-standby.log" 2>&1 &
STANDBY_PID=$!
wait_sock "$FSOCK"
i=0
until timeout 60 "$SOLVE" --connect "$PSOCK" --remote-stats \
  | grep -q '"followers":1'; do
  sleep 0.1
  i=$((i + 1))
  [ "$i" -lt 100 ]
done
timeout 120 "$LOAD" --socket "$PSOCK" --standby "$FSOCK" \
  --kill-primary "$PRIMARY_DPID" --tiers 0 --clients 6 --duration 6 \
  --install-frac 0.5 --timeout 5 --json BENCH_failover_ci.json
# under sync acks the drill must lose nothing a client saw acknowledged
grep -q '"lost_acks":0' BENCH_failover_ci.json
grep -q '"audited":true' BENCH_failover_ci.json
! grep -q '"promoted_epoch":-1' BENCH_failover_ci.json
wait "$PRIMARY_PID" 2> /dev/null || true
timeout 60 "$SOLVE" --connect "$FSOCK" --remote-shutdown
wait "$STANDBY_PID" 2> /dev/null || true

echo "== SIGTERM drains gracefully"
SOCK="$DRILL_DIR/drain.sock"
timeout 120 "$SERVE" --socket "$SOCK" --drain-grace 5 \
  > "$DRILL_DIR/drain.log" 2>&1 &
PID=$!
wait_sock "$SOCK"
timeout 60 "$SOLVE" --connect "$SOCK" zlib > /dev/null
kill -TERM "$PID"
rc=0
wait "$PID" || rc=$?
[ "$rc" -eq 0 ]
grep -q "shutdown complete" "$DRILL_DIR/drain.log"

echo "== chaos load smoke (2x overload, ~10s)"
SOCK="$DRILL_DIR/load.sock"
timeout 120 "$SERVE" --socket "$SOCK" --repo 300 --jobs 1 --max-pending 4 \
  > "$DRILL_DIR/load.log" 2>&1 &
PID=$!
wait_sock "$SOCK"
timeout 90 "$LOAD" --socket "$SOCK" --synth 300 --chaos \
  --clients 8 --tiers 2 --duration 5 --timeout 2 --json BENCH_serve_ci.json
# overload must shed with a typed reply somewhere in the tier...
grep -o '"shed":[0-9]*' BENCH_serve_ci.json | grep -qv '"shed":0'
# ...while no worker crashed or wedged under chaos...
grep -q '"restarts":0' BENCH_serve_ci.json
# ...and the daemon still drains cleanly afterwards
timeout 60 "$SOLVE" --connect "$SOCK" --remote-shutdown
rc=0
wait "$PID" || rc=$?
[ "$rc" -eq 0 ]
grep -q "shutdown complete" "$DRILL_DIR/load.log"
rm -rf "$DRILL_DIR"
trap - EXIT

echo "== bench smoke (fig3 + fig7d --quick)"
timeout 600 dune exec bench/main.exe -- fig3 fig7d --quick --json BENCH_ci.json

echo "== portfolio smoke (fig7d --quick --jobs 4)"
timeout 600 dune exec bench/main.exe -- fig7d --quick --jobs 4 --json BENCH_ci_jobs4.json
python3 - << 'EOF'
import json
rows = json.load(open("BENCH_ci_jobs4.json"))["rows"]
assert rows and all(r["jobs"] == 4 for r in rows), [r["jobs"] for r in rows]
EOF

echo "== E4S-scale reuse smoke (5k-spec buildcache, reuse facts from the slots)"
# medium-scale rehearsal of the paper's §VII-C stress test: grows a ~5,000
# spec buildcache and runs all four slices through the streaming fact
# pipeline; independent of --quick so the solve sizes match a real run
timeout 900 dune exec bench/main.exe -- fig7efg-full --e4s-target 5000 \
  --json BENCH_e4s_ci.json
python3 - << 'EOF'
import json
d = json.load(open("BENCH_e4s_ci.json"))
m = d["metrics"]
assert m["e4s_specs"] >= 5000, m
# fact generation over the 5k cache, every atom interned, takes about
# 0.01 s; a per-spec blow-up of that path shows up as whole seconds
assert 0 < m["factgen_p50_s"] < 1.0, m
# the full 63k run is bounded at 2 GiB; the 5k smoke must stay far below
assert d["peak_rss_mb"] < 1024, d["peak_rss_mb"]
sums = [s for s in d["summaries"] if s["experiment"].startswith("fig7efg-full")]
assert len(sums) == 4, [s["experiment"] for s in sums]
assert all(s["n"] > 0 and s["p50_total_s"] > 0 for s in sums), sums
print("e4s smoke: %d specs, factgen %.3fs, peak rss %.0f MB" % (
    m["e4s_specs"], m["factgen_p50_s"], d["peak_rss_mb"]))
EOF

echo "== CUDF frontend smoke (1k-package universe, both criterion stacks)"
# the Linux-distro frontend end to end: a 1k-stanza synthetic Debian-like
# universe must solve to a verified proven optimum under both stacks, and
# the unsat-core diagnosis must name the offending stanza
timeout 300 dune exec bench/main.exe -- cudf --quick --json BENCH_cudf_ci.json
python3 - << 'EOF'
import json
d = json.load(open("BENCH_cudf_ci.json"))
rows = [r for r in d["rows"] if r["experiment"].startswith("cudf-")]
assert rows, d
assert all(r["outcome"] == "optimal" and r["verified"] for r in rows), rows
stacks = {r["experiment"].split("-")[-1] for r in rows}
assert stacks == {"paranoid", "trendy"}, stacks
m = d["metrics"]
assert m["cudf-1000-paranoid_p50_s"] > 0 and m["cudf-1000-trendy_p50_s"] > 0, m
# memory guard: the quick run peaks at ~42 MiB (VmHWM); the ceiling keeps
# 25%+ headroom; a body-indicator variable per integrity constraint peaked
# at ~74 MiB here, eager per-literal solver lists at ~105 MiB, re-deriving
# closure instances and eager argument indexes at ~51 MiB
RSS_CEILING_MB = 53
rss = max(r["peak_rss_mb"] for r in rows if r["experiment"].startswith("cudf-1000-"))
assert rss <= RSS_CEILING_MB, "cudf-1000 peak rss %.1f MiB > %d" % (rss, RSS_CEILING_MB)
print("cudf smoke: %d solves, paranoid p50 %.2fs, trendy p50 %.2fs, peak rss %.0f MiB" % (
    len(rows), m["cudf-1000-paranoid_p50_s"], m["cudf-1000-trendy_p50_s"], rss))
EOF
out=$(timeout 60 dune exec bin/cudf_solve.exe -- --synth 200 --stats)
echo "$out" | grep -q "optimality proven at every level"
echo "$out" | grep -q "verified: independent model check passed"
# the ground steps (seed, closure, emission) are parts of the ground phase,
# and the solve steps (translate, search, optimize, verify) parts of the
# solve phase: each sum may exceed its phase by 5%, plus 2 ms for rounding
# the figures to the millisecond
for cmd in "bin/cudf_solve.exe -- --synth 1000 --stats" \
           "bin/spack_solve.exe -- --repo 300 --stats app-007"; do
steps=$(timeout 60 dune exec $cmd)
case $cmd in bin/cudf_solve.exe*) cudf_steps=$steps ;; esac
python3 - "$steps" << 'EOF'
import re, sys
out = sys.argv[1]
phases = re.search(r"^Phases: .*, ground ([0-9.]+)s, solve ([0-9.]+)s", out, re.M)
assert phases, "no Phases line:\n" + out
ground, solve = float(phases.group(1)), float(phases.group(2))
m = re.search(r"^Ground steps: seed ([0-9.]+)s, close ([0-9.]+)s, emit ([0-9.]+)s$", out, re.M)
assert m, "no Ground steps line:\n" + out
parts = [float(x) for x in m.groups()]
assert sum(parts) <= ground * 1.05 + 0.002, (parts, ground)
print("ground steps: seed %.3fs + close %.3fs + emit %.3fs of ground %.3fs" % (*parts, ground))
m = re.search(r"^Solve steps: translate ([0-9.]+)s, search ([0-9.]+)s, optimize ([0-9.]+)s, "
              r"verify ([0-9.]+)s$", out, re.M)
assert m, "no Solve steps line:\n" + out
parts = [float(x) for x in m.groups()]
assert sum(parts) <= solve * 1.05 + 0.002, (parts, solve)
print("solve steps: translate %.3fs + search %.3fs + optimize %.3fs + verify %.3fs of solve %.3fs"
      % (*parts, solve))
m = re.search(r"^Optimize: ([0-9]+) levels, ([0-9]+) descent searches$", out, re.M)
assert m, "no Optimize line:\n" + out
print("optimize: %s levels, %s descent searches" % m.groups())
m = re.search(r"^Instance: ([0-9]+) variables, ([0-9]+) clauses, ([0-9]+) PB constraints$",
              out, re.M)
assert m, "no Instance line:\n" + out
print("instance: %s variables, %s clauses, %s PB constraints" % m.groups())
EOF
done
# both binaries print their stats block from one function: its lines come
# in the same order on the CUDF run and on this root (the loop's last
# command), which also prints its optimization vector after Search:
python3 - "$cudf_steps" "$steps" << 'EOF'
import sys
SHARED = ["Ground:", "Search:", "Phases:", "Ground steps:", "Solve steps:",
          "Optimize:", "Instance:"]
def order(out):
    return [p for l in out.splitlines() for p in SHARED if l.startswith(p + " ")]
for name, out in (("cudf_solve", sys.argv[1]), ("spack_solve", sys.argv[2])):
    assert order(out) == SHARED, (name, order(out))
print("stats block: %s on both binaries" % " ".join(SHARED))
EOF
# the CUDF encoder states "one version per name" once and splits each
# conflict into a set of other names and a list of own versions: the 1k
# universe (the loop's first command) grounds to 10,853 rules; the pairwise
# conflict joins this replaced gave 20,970
python3 - "$cudf_steps" << 'EOF'
import re, sys
n = int(re.search(r"^Ground: [0-9]+ atoms, ([0-9]+) rules$", sys.argv[1], re.M).group(1))
assert n <= 12000, "cudf --synth 1000 grounds to %d rules, not at most 12000" % n
print("cudf ground rules: %d" % n)
EOF
# an atom defined by one rule is its body and gets no variable; when every
# atom gets its own, this root (the loop's last command) has 11,078 variables
python3 - "$steps" << 'EOF'
import re, sys
n = int(re.search(r"^Instance: ([0-9]+) variables", sys.argv[1], re.M).group(1))
assert n < 9000, "app-007 has %d solver variables, not fewer than 9000" % n
EOF
# the first search decides the objective toward zero: every level of this
# root (the loop's last command) has optimum 0, so its first model is
# optimal and the descent runs no search
echo "$steps" | grep -q "^Optimize: [0-9]* levels, 0 descent searches$"
# the portfolio race must prove and verify the same cost vector
raced=$(timeout 60 dune exec bin/cudf_solve.exe -- -j 2 --synth 200 --stats)
echo "$raced" | grep -q "optimality proven at every level"
echo "$raced" | grep -q "verified: independent model check passed"
test -n "$(echo "$out" | grep '^  @')"
test "$(echo "$out" | grep '^  @')" = "$(echo "$raced" | grep '^  @')"
out=$(timeout 60 dune exec bin/cudf_solve.exe -- --explain "$(dirname "$0")/ci_broken.cudf" || true)
echo "$out" | grep -q "conflicts with"

echo "== allocation budget (cudf_solve --synth 1000, spack_solve --repo 300 app-007)"
# the words each run allocates in all, as OCAMLRUNPARAM=v=0x400 prints them
# at exit, may exceed the recorded figure by 10%.  Recorded when the facts
# began to reach the store as atoms; the per-fact Ast statement layer
# before that allocated 9,893,700 words on the CUDF run (17% more, so a
# 20% margin would let it back in) and 3,148,004 on the Spack one.  The
# CUDF figure was re-recorded when the encoder began to split conflicts:
# the pairwise conflict joins allocated 8,447,841, within the margin, so
# the ground-rule count above is what guards against them.  The counts
# are deterministic.  The built binaries run directly: dune itself would
# print its own figures under v=0x400.
for run in "7859232 ./_build/default/bin/cudf_solve.exe --synth 1000" \
           "3064879 ./_build/default/bin/spack_solve.exe --repo 300 app-007"; do
  set -- $run
  recorded=$1
  shift
  words=$(OCAMLRUNPARAM=v=0x400 timeout 60 "$@" 2>&1 > /dev/null \
    | sed -n 's/^allocated_words: //p')
  echo "$*: $words words allocated (recorded $recorded)"
  [ -n "$words" ] && [ "$words" -le $((recorded + recorded / 10)) ]
done

echo "== perfbench smoke (both workloads, per-layer trace, ~8s each)"
# perfbench reads the layer times from cudf_solve's --stats lines and the
# daemon's reply fields; if either drifts, its per-layer numbers read 0
# instead of failing, so the smoke asserts they are positive
for w in cudf serve; do
  line=$(timeout 300 python3 perfbench/run.py --workload "$w" --seed 1 --seconds 5 --trace 1 | tail -n 1)
  python3 - "$w" "$line" << 'EOF'
import json, sys
w, d = sys.argv[1], json.loads(sys.argv[2])
assert d["correct"] is True and d["failed"] == 0, d
m = {k: v["value"] for k, v in d["metrics"].items()}
assert m["ground_ms"] > 0 and m["search_ms"] > 0, m
print("perfbench %s smoke: %d requests, ground %.1f ms, search %.1f ms" % (
    w, d["attempted"], m["ground_ms"], m["search_ms"]))
EOF
done

echo "== ci OK"
