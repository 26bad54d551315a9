#!/usr/bin/env python3
"""End-to-end benchmark of the ASP dependency solver, offline and as a daemon.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout.  It builds cudf_solve and
spack_serve with dune, makes its inputs from the seed, drives the binaries for
S seconds, checks every answer, and prints one JSON object as the last line
of stdout: end-to-end metrics with --trace 0, per-layer metrics with
--trace 1.  With --trace 1 it also writes one span per request to
.perfbench/trace-<workload>-<seed>.ndjson; the program's own phase timings
are that span's children (ground_base and ground_extend are parts of ground).

Workloads (both closed loop):

  cudf        one client runs `cudf_solve --stack paranoid|trendy FILE` over
              60 seeded universes of 1000 to 1177 stanzas, shaped like the
              repo's Cudf.Synth (the cudf-1000 bench universes): the second
              frontend, with flat conflict cliques instead of deep DAGs.
  serve       the 1x tier of spack_load, as recorded in BENCH_serve.json:
              four clients against `spack_serve --repo 300 --jobs 1`, each
              picking root names uniformly from spack_load's --synth 300
              pool; 10% installs (journal fsync, substrate re-keying, cache
              invalidation), 10% solve_many batches of three, 80% solves.
              The ops are dealt from a shuffled deck of ten shared by the
              clients, so every run has the mix in its proportions instead
              of a sample of it.
              Like that tier, each episode is a fresh daemon loaded for 5 s,
              so nearly every lookup misses the cache (a few per cent hit);
              episodes repeat until the run's time is up.

set-up (setup_s) is the median of the program's cold starts, spread over
the run so that it does not hang on the host's speed in one moment: for
cudf a trivial cudf_solve run after each solve; for serve the launch of
each episode's daemon, and of fifteen more before the first, until it
answers a `stats` request.

Host speed.  The benchmark runs on a few cores of a shared host whose speed
drifts by up to 2x within a minute: CPU time grows with wall time, so the
program does the same work more slowly.  Every time reported (end-to-end and
per-layer) is therefore scaled to a reference host speed.  A fixed
allocation-heavy Python task, the probe, is timed in CPU time next to each
measurement: before and after each cudf solve, before each cold start, and
every PROBE_EVERY seconds beside the daemon during a serve episode.  A time t
measured where the probe took p ms is reported as t * PROBE_REF_MS / p.  The
probe does not touch the program, so a faster or slower program moves the
scaled times as much as the raw ones, while the host's drift cancels.
--trace 1 reports the raw wall-time median (wall_p50_ms) and the probe's
median (probe_ms).
"""

import argparse
import json
import os
import random
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BIN = os.path.join(ROOT, "_build", "default", "bin")
SPACK_SERVE = os.path.join(BIN, "spack_serve.exe")
CUDF_SOLVE = os.path.join(BIN, "cudf_solve.exe")
WORK = os.path.join(ROOT, ".perfbench")

sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import cudf_universe  # noqa: E402

SETUP_REPEATS = 15
# the probe's time, in ms, on the reference host that scaled times refer to
PROBE_REF_MS = 40.0
PROBE_ENTRIES = 20000
# seconds between probes during a serve episode
PROBE_EVERY = 0.5
# one universe of each size, from the 1k universes of the repo's cudf bench
# up: a fixed spread of sizes, and so of solve costs, keeps the latency
# median off the edge of a narrow distribution, and as many universes as a
# run has time to solve once average out how hard each seed's are.  Bigger
# universes would
# leave too few solves in a run for a steady p80: at 10k a solve takes
# 9 to 20 s (p50, BENCH_cudf.json) and a hard seed over 140 s.
CUDF_SIZES = [1000 + 3 * i for i in range(60)]
PROC_TIMEOUT = 60
# the 1x tier of BENCH_serve.json (spack_load defaults, 4 base clients, 5 s
# per tier) against `spack_serve --repo 300`, as in the README's load test
SYNTH_REPO = 300
SERVE_CLIENTS = 4
EPISODE_SECONDS = 5.0
# one round of ops: 10% installs, 10% solve_many batches, 80% solves
OPS = ["install", "solve_many"] + ["solve"] * 8
BATCH_SIZE = 3

END_TO_END = ["latency_p50_ms", "latency_p80_ms", "throughput_rps", "peak_rss_mb", "setup_s"]
UNITS = {"latency_p50_ms": "ms", "latency_p80_ms": "ms", "throughput_rps": "1/s",
         "peak_rss_mb": "MiB", "setup_s": "s"}
PHASES = ["facts", "parse", "ground", "ground_base", "ground_extend", "search"]
COUNTS = ["facts", "ground_atoms", "ground_rules", "conflicts", "decisions"]
DAEMON_COUNTERS = [
    ("cache_hits", "cache", "hits"),
    ("cache_misses", "cache", "misses"),
    ("substrate_base_builds", "substrate", "base_builds"),
    ("substrate_extensions", "substrate", "extensions"),
    ("substrate_evictions", "substrate", "evictions"),
    ("substrate_invalidations", "substrate", "narrowed_invalidations"),
    ("sched_deduped", "scheduler", "deduped"),
    ("shed", "scheduler", "shed"),
]
PER_LAYER = (
    [p + "_ms" for p in PHASES]
    + ["outside_ms"]
    + COUNTS
    + [c[0] for c in DAEMON_COUNTERS]
    + ["cache_hit_ratio", "reply_kb", "wall_p50_ms", "probe_ms"]
)
PER_LAYER_UNITS = dict(
    {p + "_ms": "ms" for p in PHASES + ["outside", "wall_p50", "probe"]},
    **{c: "count" for c in COUNTS + [d[0] for d in DAEMON_COUNTERS]},
    cache_hit_ratio="ratio",
    reply_kb="KiB",
)


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        die("no dune-project at %s: run from the root of a source checkout" % ROOT)
    dune = shutil.which("dune")
    if dune is None:
        die("dune not found on PATH")
    targets = ["bin/spack_serve.exe", "bin/cudf_solve.exe"]
    p = subprocess.run([dune, "build", "--root", ROOT] + targets, cwd=ROOT,
                       stdout=sys.stderr, stderr=sys.stderr)
    if p.returncode != 0:
        die("dune build failed")


# --------------------------------------------------------------- host speed


def probe():
    """CPU milliseconds a fixed allocation-heavy Python task takes now: the
    host's speed, independent of the program under test.  CPU time of the
    calling thread, so that time spent waiting for a core or for the GIL
    while the program or the clients run does not count."""
    t0 = time.thread_time()
    r = random.Random(7)
    d = {}
    for k in range(PROBE_ENTRIES):
        d[r.randrange(1 << 30)] = [k, str(k)]
    sorted(d.items())
    return (time.thread_time() - t0) * 1e3


def probe3():
    """A steadier probe where one is needed only every few seconds."""
    return statistics.median(probe() for _ in range(3))


# ---------------------------------------------------------------- processes


def run_proc(cmd):
    """Run to completion; (exit code, stdout, peak RSS in KiB)."""
    p = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.STDOUT)
    timer = threading.Timer(PROC_TIMEOUT, p.kill)
    timer.start()
    try:
        out = p.stdout.read()
        p.stdout.close()
        _, status, usage = os.wait4(p.pid, 0)
    finally:
        timer.cancel()
    p.returncode = os.waitstatus_to_exitcode(status)
    return p.returncode, out.decode(errors="replace"), usage.ru_maxrss


def time_proc(cmd):
    t0 = time.perf_counter()
    rc, out, _ = run_proc(cmd)
    if rc != 0:
        die("set-up command failed: %s\n%s" % (" ".join(cmd), out))
    return time.perf_counter() - t0


class Daemon:
    """A spack_serve process on a Unix socket under the run directory."""

    def __init__(self, run_dir, tag):
        self.dir = os.path.join(run_dir, tag)
        os.makedirs(self.dir)
        # relative to ROOT, which is the cwd of both sides: keeps the socket
        # path short whatever the checkout's location
        self.sock = os.path.relpath(os.path.join(self.dir, "s.sock"), ROOT)
        self.proc = None

    def start(self):
        """Launch and wait until a stats request is answered; seconds taken."""
        t0 = time.perf_counter()
        self.log = open(os.path.join(self.dir, "serve.log"), "wb")
        self.proc = subprocess.Popen(
            # --max-pending leaves room for every client's batch: as in the
            # recorded tier, nothing is shed
            [SPACK_SERVE, "--socket", self.sock, "--repo", str(SYNTH_REPO),
             "--db", os.path.join(self.dir, "installed.db"), "--jobs", "1",
             "--max-pending", str(SERVE_CLIENTS * BATCH_SIZE)],
            cwd=ROOT, stdout=self.log, stderr=subprocess.STDOUT)
        while True:
            try:
                c = Client(self.sock)
                c.stats()
                c.close()
                return time.perf_counter() - t0
            except OSError:
                if self.proc.poll() is not None:
                    die("spack_serve exited at start-up")
                if time.perf_counter() - t0 > 30:
                    self.proc.kill()
                    self.proc.wait()
                    die("spack_serve did not come up within 30 s")
                time.sleep(0.002)

    def stop(self):
        """Shut down and reap; peak RSS in KiB."""
        try:
            c = Client(self.sock)
            c.call({"op": "shutdown"})
            c.close()
        except OSError:
            pass
        deadline = time.perf_counter() + 20
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                self.proc.returncode = os.waitstatus_to_exitcode(status)
                self.log.close()
                return usage.ru_maxrss
            if time.perf_counter() > deadline:
                self.proc.send_signal(signal.SIGKILL)
            time.sleep(0.01)


class Client:
    """One NDJSON connection to the daemon."""

    def __init__(self, path):
        self.s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.s.settimeout(PROC_TIMEOUT)
        try:
            self.s.connect(path)
        except OSError:
            self.s.close()
            raise
        self.f = self.s.makefile("rwb")

    def call_raw(self, line):
        self.f.write(line)
        self.f.flush()
        reply = self.f.readline()
        if not reply:
            raise OSError("connection closed by the daemon")
        return reply

    def call(self, req):
        return json.loads(self.call_raw((json.dumps(req) + "\n").encode()))

    def stats(self):
        return self.call({"op": "stats"})["stats"]

    def close(self):
        self.f.close()
        self.s.close()


# ------------------------------------------------------------------ inputs


class Deck:
    """Deals ``items`` in rounds, each round a fresh shuffle of them."""

    def __init__(self, items, rng):
        self.items, self.rng, self.left = list(items), rng, []
        self.lock = threading.Lock()

    def draw(self):
        with self.lock:
            if not self.left:
                self.left = self.items[:]
                self.rng.shuffle(self.left)
            return self.left.pop()


def synth_pool(n):
    """spack_load's --synth N spec pool: every app and lib root name of the
    daemon's --repo N repository (same arithmetic as Repo_synth.scaled)."""
    n = max(20, n)
    return (["app-%03d" % i for i in range(n // 7)]
            + ["lib-%03d" % i for i in range(n * 2 // 5 + n % 5)])


def check_result(spec, res):
    """Problems with one solve result for a bare package name."""
    if res.get("outcome") != "concrete":
        return ["outcome %s" % res.get("outcome")]
    nodes = res["spec"]["nodes"]
    byname = {n["name"]: n for n in nodes}
    errs = []
    if res["spec"]["root"] != spec:
        errs.append("root is %s" % res["spec"]["root"])
    if spec not in byname:
        errs.append("no node for the root")
    if len(byname) != len(nodes):
        errs.append("a package appears twice in the DAG")
    if any(d not in byname for n in nodes for d in n["depends"]):
        errs.append("a dependency is missing from the DAG")
    if res.get("verified") is not True:
        errs.append("no independent model check")
    if res.get("quality") != "optimal":
        errs.append("not proven optimal")
    return errs


STAT_PATTERNS = [
    (re.compile(r"^Phases: setup ([\d.]+)s, load ([\d.]+)s, ground ([\d.]+)s, solve ([\d.]+)s", re.M),
     ["facts", "parse", "ground", "search"], 1000.0),
    (re.compile(r"^Universe: \d+ packages, (\d+) facts", re.M), ["facts"], 1),
    (re.compile(r"^Ground: (\d+) atoms, (\d+) rules", re.M), ["ground_atoms", "ground_rules"], 1),
    (re.compile(r"^Search: (\d+) conflicts, (\d+) decisions", re.M), ["conflicts", "decisions"], 1),
]


def parse_stats(out):
    """Per-layer numbers from the --stats block of cudf_solve."""
    phases, counts = {}, {}
    for rx, keys, scale in STAT_PATTERNS:
        m = rx.search(out)
        if m:
            dst = phases if scale != 1 else counts
            for k, v in zip(keys, m.groups()):
                dst[k] = float(v) * scale
    return phases, counts


def reply_layers(res):
    p = res.get("phases", {})
    phases = {"facts": p.get("setup", 0) * 1e3, "parse": p.get("load", 0) * 1e3,
              "ground": p.get("ground", 0) * 1e3, "search": p.get("solve", 0) * 1e3,
              "ground_base": p.get("ground_base", 0) * 1e3,
              "ground_extend": p.get("ground_extend", 0) * 1e3}
    gs, ss = res.get("ground_stats", [0, 0]), res.get("sat_stats", [0, 0])
    counts = {"facts": res.get("n_facts", 0), "ground_atoms": gs[0], "ground_rules": gs[1],
              "conflicts": ss[0], "decisions": ss[1]}
    return phases, counts


# ---------------------------------------------------------------- recording


class Run:
    def __init__(self, ctx):
        self.ctx = ctx
        self.setup = []
        self.spans = []
        self.failed = 0
        self.wrong = []
        self.rss_kb = 0
        self.counters = {}
        self.probes = []
        # scaled seconds over which throughput is counted
        self.measured_s = 0.0

    def scale(self, probe_ms):
        """Factor from raw times measured where the probe took ``probe_ms``
        to times at the reference host speed."""
        self.probes.append(probe_ms)
        return PROBE_REF_MS / probe_ms

    def timed_setup(self, f):
        """One cold start, ``f`` returning its seconds, scaled by a probe
        taken just before it."""
        k = self.scale(probe3())
        self.setup.append(f() * k)

    def record(self, t0, t1, label, out_bytes, solves=(), hit=False, scale=1.0):
        """One request; ``solves`` holds (phases, counts) of each solve the
        program ran for it, ``scale`` the host-speed factor of its times."""
        self.spans.append({"start": t0, "end": t1, "req": label, "bytes": out_bytes,
                           "solves": list(solves), "hit": hit, "scale": scale})

    def ms(self, s):
        return (s["end"] - s["start"]) * 1e3 * s["scale"]

    def bad(self, label, errs):
        self.wrong.append("%s: %s" % (label, "; ".join(errs)))

    def result(self):
        lat = sorted(self.ms(s) for s in self.spans)
        attempted = len(self.spans) + self.failed
        if not lat:
            die("no request completed")
        e2e = {
            "latency_p50_ms": statistics.median(lat),
            "latency_p80_ms": statistics.quantiles(lat, n=5, method="inclusive")[3] if len(lat) > 1 else lat[0],
            "throughput_rps": len(lat) / self.measured_s,
            "peak_rss_mb": self.rss_kb / 1024.0,
            "setup_s": statistics.median(self.setup),
        }
        if self.ctx.trace:
            layers = self.layers()
            metrics = {k: {"value": layers[k], "unit": PER_LAYER_UNITS[k]} for k in PER_LAYER}
            self.write_trace()
        else:
            metrics = {k: {"value": e2e[k], "unit": UNITS[k]} for k in END_TO_END}
        for w in self.wrong[:5]:
            print("perfbench: wrong answer: " + w, file=sys.stderr)
        return {"correct": not self.wrong, "attempted": attempted, "failed": self.failed,
                "metrics": metrics}

    def layers(self):
        solves = [(ph, n, s["scale"]) for s in self.spans for ph, n in s["solves"]]
        out = {}
        for p in PHASES:
            out[p + "_ms"] = statistics.fmean([ph.get(p, 0.0) * k for ph, _, k in solves]) if solves else 0.0
        for c in COUNTS:
            out[c] = statistics.fmean([n.get(c, 0) for _, n, _ in solves]) if solves else 0.0
        inside = [sum(ph.get(p, 0.0) for ph, _ in s["solves"] for p in ("facts", "parse", "ground", "search"))
                  for s in self.spans]
        out["outside_ms"] = statistics.fmean(
            self.ms(s) - i * s["scale"] for s, i in zip(self.spans, inside))
        for name, _, _ in DAEMON_COUNTERS:
            out[name] = float(self.counters.get(name, 0))
        looked = out["cache_hits"] + out["cache_misses"]
        out["cache_hit_ratio"] = out["cache_hits"] / looked if looked else 0.0
        out["reply_kb"] = statistics.fmean(s["bytes"] for s in self.spans) / 1024.0
        out["wall_p50_ms"] = statistics.median((s["end"] - s["start"]) * 1e3 for s in self.spans)
        out["probe_ms"] = statistics.median(self.probes)
        return out

    def write_trace(self):
        path = os.path.join(WORK, "trace-%s-%d.ndjson" % (self.ctx.workload, self.ctx.seed))
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                children = [{"name": k, "dur_ms": v * s["scale"], "solve": j}
                            for j, (ph, _) in enumerate(s["solves"]) for k, v in ph.items()]
                f.write(json.dumps({"id": i, "name": self.ctx.workload, "req": s["req"],
                                    "start": s["start"] - self.t_start, "end": s["end"] - self.t_start,
                                    "hit": s["hit"], "scale": s["scale"], "bytes": s["bytes"],
                                    "children": children,
                                    "counts": [n for _, n in s["solves"]]}) + "\n")


def stat(st, sect, key):
    v = st.get(sect, {}).get(key, 0)
    return v if isinstance(v, (int, float)) else 0


# --------------------------------------------------------------- workloads


CUDF_STATE_RE = re.compile(r"^    (\S+) = (\d+)$", re.M)
CUDF_COST_RE = re.compile(r"^  @\d+\s+.* = (\d+)$", re.M)


def check_cudf(u, stack, out):
    if "optimality proven at every level" not in out:
        return ["not proven optimal"]
    if "verified: independent model check passed" not in out:
        return ["no independent model check"]
    state = [(n, int(v)) for n, v in CUDF_STATE_RE.findall(out)]
    claimed = [int(c) for c in CUDF_COST_RE.findall(out)]
    return cudf_universe.check(u, state, stack, claimed)


def workload_cudf(run):
    ctx = run.ctx
    tiny = os.path.join(ctx.run_dir, "tiny.cudf")
    with open(tiny, "w") as f:
        f.write("package: a\nversion: 1\n\npackage: b\nversion: 1\ndepends: a\n\n"
                "request: tiny\ninstall: b\n")
    # a child's ru_maxrss includes this process's high-water RSS (Linux
    # carries it over at exec), so the universes are written out and only
    # generated again for the checks, after the solves
    def universe(i):
        return cudf_universe.generate(ctx.seed * 64 + i, CUDF_SIZES[i])

    problems = []
    for i in range(len(CUDF_SIZES)):
        path = os.path.join(ctx.run_dir, "u%02d.cudf" % i)
        with open(path, "w") as f:
            f.write(cudf_universe.render(universe(i), "u%02d" % i))
        for stack in ("paranoid", "trendy"):
            problems.append(("u%02d-%s" % (i, stack), i, stack, path))
    done = []
    run.t_start = time.perf_counter()
    deadline = run.t_start + ctx.seconds
    before = probe()
    while time.perf_counter() < deadline:
        ctx.rng.shuffle(problems)
        for label, i, stack, path in problems:
            if time.perf_counter() >= deadline:
                break
            cmd = [CUDF_SOLVE, "--stack", stack, "--state"] + (["--stats"] if ctx.trace else []) + [path]
            t0 = time.perf_counter()
            rc, out, rss = run_proc(cmd)
            t1 = time.perf_counter()
            after = probe()
            k = run.scale((before + after) / 2)
            done.append((t0, t1, k, label, i, stack, rc, out))
            run.measured_s += (t1 - t0) * k
            run.setup.append(time_proc([CUDF_SOLVE, tiny]) * k)
            run.rss_kb = max(run.rss_kb, rss)
            before = after
    # checked after the deadline, so that checking does not cost throughput
    universes = {}
    for t0, t1, k, label, i, stack, rc, out in done:
        if rc != 0:
            run.failed += 1
            run.bad(label, ["exit code %d: %s" % (rc, out[-300:])])
            continue
        run.record(t0, t1, label, len(out), [parse_stats(out)] if ctx.trace else [], scale=k)
        if i not in universes:
            universes[i] = universe(i)
        errs = check_cudf(universes[i], stack, out)
        if errs:
            run.bad(label, errs)


def start_daemons(run, n):
    """Time ``n`` cold daemon starts, each stopped again."""
    for i in range(n):
        d = Daemon(run.ctx.run_dir, "cold%d" % i)
        run.timed_setup(d.start)
        d.stop()


def serve_episode(run, d, deadline, rngs):
    """spack_load's client loop on a fresh daemon until ``deadline``; the
    replies, unchecked, as (t0, t1, op, specs, raw), and the probe's times
    taken meanwhile."""
    lock = threading.Lock()
    replies = []
    probes = []
    stop = threading.Event()

    # the probe runs beside the daemon here, not between episodes: an idle
    # host runs the probe up to 1.5x faster than one with a core busy
    # serving, so probes at the episode's edges do not track the daemon
    def prober():
        while not stop.wait(PROBE_EVERY):
            probes.append(probe())

    def client_loop(c, rng):
        while time.perf_counter() < deadline:
            op = run.ops.draw()
            if op == "solve_many":
                specs = [rng.choice(run.pool) for _ in range(BATCH_SIZE)]
                req = {"id": 0, "op": op, "specs": specs}
            else:
                specs = [rng.choice(run.pool)]
                req = {"id": 0, "op": op, "spec": specs[0]}
            t0 = time.perf_counter()
            try:
                raw = c.call_raw((json.dumps(req) + "\n").encode())
            except OSError as e:
                with lock:
                    run.failed += 1
                    run.bad(" ".join(specs), ["no reply: %s" % e])
                return
            with lock:
                replies.append((t0, time.perf_counter(), op, specs, raw))

    clients = [Client(d.sock) for _ in rngs]
    threads = [threading.Thread(target=client_loop, args=(c, rng)) for c, rng in zip(clients, rngs)]
    p = threading.Thread(target=prober)
    p.start()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    stop.set()
    p.join()
    for c in clients:
        c.close()
    return replies, probes or [probe()]


def check_episode(run, replies, stats, k):
    """Check every reply of one episode against its request, and the
    installs against the daemon's final database size."""
    added = 0
    for t0, t1, op, specs, raw in replies:
        label = "%s %s" % (op, " ".join(specs))
        reply = json.loads(raw)
        if not reply.get("ok"):
            run.failed += 1
            run.bad(label, ["error reply: %s" % reply.get("message")])
            continue
        solves, errs, hit = [], [], False
        if op == "install":
            names = [h[0] for h in reply.get("hashes", [])]
            added += len(names)
            if reply.get("installed") != specs[0]:
                errs.append("installed %s" % reply.get("installed"))
            if len(set(names)) != len(names) or not all(h[1] for h in reply.get("hashes", [])):
                errs.append("malformed install hashes")
            if reply.get("total", 0) < len(names):
                errs.append("database smaller than the install")
        else:
            entries = reply.get("results") if op == "solve_many" else [reply]
            if len(entries or []) != len(specs):
                errs.append("%d results for %d specs" % (len(entries or []), len(specs)))
                entries = []
            for spec, e in zip(specs, entries):
                errs += check_result(spec, e["result"])
                if e.get("cache") == "miss":
                    solves.append(reply_layers(e["result"]))
            hit = bool(entries) and all(e.get("cache") == "hit" for e in entries)
        if errs:
            run.bad(label, errs)
        run.record(t0, t1, label, len(raw), solves, hit=hit, scale=k)
    # the database starts empty: it must hold exactly what the installs added
    if stat(stats, "server", "db_size") != added:
        run.bad("database", ["%d records after installs that added %d"
                             % (stat(stats, "server", "db_size"), added)])


def workload_serve(run):
    ctx = run.ctx
    run.pool = synth_pool(SYNTH_REPO)
    run.ops = Deck(OPS, random.Random(ctx.rng.random()))
    start_daemons(run, SETUP_REPEATS)
    run.t_start = time.perf_counter()
    deadline = run.t_start + ctx.seconds
    episodes = []
    n = 0
    while time.perf_counter() < deadline - 1.0:
        d = Daemon(ctx.run_dir, "episode%d" % n)
        run.timed_setup(d.start)
        try:
            rngs = [random.Random(ctx.rng.random()) for _ in range(SERVE_CLIENTS)]
            t0 = time.perf_counter()
            replies, probes = serve_episode(run, d, min(t0 + EPISODE_SECONDS, deadline), rngs)
            t1 = max([r[1] for r in replies], default=t0)
            c = Client(d.sock)
            stats = c.stats()
            c.close()
        finally:
            run.rss_kb = max(run.rss_kb, d.stop())
        k = run.scale(statistics.median(probes))
        run.measured_s += (t1 - t0) * k
        for name, sect, key in DAEMON_COUNTERS:
            run.counters[name] = run.counters.get(name, 0) + stat(stats, sect, key)
        episodes.append((replies, stats, k))
        n += 1
    # checked after the deadline, so that checking does not cost throughput
    for replies, stats, k in episodes:
        check_episode(run, replies, stats, k)


WORKLOADS = {
    "cudf": workload_cudf,
    "serve": workload_serve,
}


def main():
    # a terminated run still stops its daemon and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ctx = ap.parse_args()
    build()
    ctx.rng = random.Random("%s:%d" % (ctx.workload, ctx.seed))
    os.makedirs(WORK, exist_ok=True)
    ctx.run_dir = os.path.join(WORK, "run-%d" % os.getpid())
    shutil.rmtree(ctx.run_dir, ignore_errors=True)
    os.makedirs(ctx.run_dir)
    run = Run(ctx)
    try:
        WORKLOADS[ctx.workload](run)
    finally:
        shutil.rmtree(ctx.run_dir, ignore_errors=True)
    print(json.dumps(run.result()))


if __name__ == "__main__":
    main()
