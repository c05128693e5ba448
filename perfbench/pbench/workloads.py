"""The workloads: verify-big4 and sim-64 (BENCHMARK.json's), and
serve-mix and fleet-oracle (run by hand).  Each one runs against the
built weakord binary (trace 0) or the in-process probe plus the parts
only the binary can show (trace 1), checks the outputs, and fills a Run."""

import json
import os
import random
import re
import shutil
import subprocess
import threading
import time
import zlib

from . import host
from .stats import median, percentile, quartiles
from .wire import Client

SETUPS = 27  # set-ups per run; setup_s is their median

# The host this benchmark was tuned on runs other tenants' work on the same
# cores, and its speed drifts by 10-50% over seconds to minutes.  CLI wall
# times are therefore reported at a reference host speed: each command is
# bracketed by `probe calibrate`, a fixed stdlib-only kernel, and its wall
# time is scaled by REF_MS / (the kernel's mean time).  REF_MS is the kernel's
# time on the 2-core Xeon VM it was tuned on, so there the two scales agree
# closely.
REF_MS = 40.0

# A run ends within --seconds plus RUN_SLACK_S after the build: every
# command is killed at that limit.  The slack covers the set-ups, the last
# command started inside the window (a fleet range holding a poison seed
# takes about 95 s) and the output checks after it.
RUN_SLACK_S = 140.0
# The probe gets its --seconds plus this much: one pass started at the end
# of its window, and a fleet seed cut at the 30 s hang budget.
PROBE_SLACK_S = 90.0


class Run:
    """What one run measured: metric samples, operations attempted and
    failed, output-check mismatches, and notes for the text report."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.values = {}  # name -> (value, sample count, quartiles or None)
        self.attempted = 0
        self.failed = 0
        self.mismatches = []
        self.notes = []
        self.setup_raw = []  # seconds, not yet normalized

    def put(self, name, value, samples):
        """Record a metric; [samples] is a count, or the per-sample values
        (then their quartiles are reported too)."""
        if isinstance(samples, list):
            q = quartiles(samples) if len(samples) > 1 else None
            self.values[name] = (value, len(samples), q)
        else:
            self.values[name] = (value, samples, None)

    def mismatch(self, msg):
        self.mismatches.append(msg)

    def note(self, msg):
        self.notes.append(msg)

    def setup(self, make, teardown=lambda state: None):
        """Set up SETUPS times back to back and keep the last set-up.
        Their times are scaled to the reference host speed in finish()."""
        self.ctx.fresh()  # the previous run's files are not set-up work
        for i in range(SETUPS):
            t0 = time.perf_counter()
            state = make()
            self.setup_raw.append(time.perf_counter() - t0)
            if i < SETUPS - 1:
                teardown(state)
        self.ctx.host_speed()  # at least one calibration in every run
        self.ctx.last_cal = None
        return state

    def finish(self):
        """Record setup_s: the set-ups' times scaled by the median of every
        calibration the run took.  A set-up takes milliseconds, so one
        calibration next to it can land on a burst of other tenants' load
        and halve or double it; a set-up that follows a calibration also
        runs with colder caches, and spread twice as much when each was
        bracketed by its own."""
        if self.setup_raw:
            scale = REF_MS / median(self.ctx.cals)
            times = [t * scale for t in self.setup_raw]
            self.put("setup_s", median(times), times)

    def probe(self, sub, *args):
        """Run a probe subcommand; return its metrics (last stdout line)."""
        ctx = self.ctx
        cmd = [ctx.probe, sub] + [str(a) for a in args]
        if ctx.trace:
            cmd += ["--chrome", ctx.chrome]
        x = host.run(cmd, ctx.out("probe-" + sub), timeout=ctx.seconds + PROBE_SLACK_S)
        if x.code != 0:
            self.mismatch("probe %s %s: %s" % (sub, "cut at its time limit" if x.cut
                                               else "exited %d" % x.code, x.err[-500:]))
            return {}
        return json.loads(x.out.strip().splitlines()[-1])

    def take(self, metrics, names):
        """Record the probe's [names] metrics, each with its own sample count."""
        for n in names:
            if n in metrics:
                value, samples = metrics[n]
                self.put(n, value, int(samples))


class Ctx:
    def __init__(self, workload, seed, seconds, trace, weakord, probe):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.weakord, self.probe = weakord, probe
        self.dir = os.path.join(host.WORK, "run", workload)
        self.chrome = os.path.join(host.WORK, "trace-%s.json" % workload)
        # Daemon workers, client connections and fleet shards: two, or
        # fewer on a smaller host.
        self.width = min(2, host.nproc())
        self.last_cal = None  # the calibration that ended the last normalized run
        self.cals = []  # every calibration of the run, ms
        self.limit = time.perf_counter() + seconds + RUN_SLACK_S
        self._n = 0

    def fresh(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)

    def out(self, tag):
        self._n += 1
        return os.path.join(self.dir, "cmd", "%04d-%s" % (self._n, tag))

    def left(self, reserve=0.0):
        """Seconds a command may still take, keeping [reserve] seconds of
        the run's limit for what follows it."""
        return max(1.0, self.limit - reserve - time.perf_counter())

    def host_speed(self):
        """Milliseconds the probe's fixed calibration kernel takes now."""
        r = subprocess.run([self.probe, "calibrate"], stdout=subprocess.PIPE,
                           text=True, check=True)
        self.cals.append(float(r.stdout))
        return self.cals[-1]

    def normalized(self, cmd, tag, cwd=None, reserve=0.0):
        """Run [cmd] between two timings of the calibration kernel; return
        the run and its wall time scaled to the reference host speed by
        their mean.  Back-to-back commands share the timing between them."""
        before = self.last_cal or self.host_speed()
        x = host.run(cmd, self.out(tag), timeout=self.left(reserve), cwd=cwd)
        self.last_cal = self.host_speed()
        return x, x.wall_s * REF_MS * 2 / (before + self.last_cal)

    def weakord_ok(self, run, *args):
        x = host.run([self.weakord] + list(args), self.out(args[0]), timeout=self.left())
        if x.code != 0:
            run.mismatch("weakord %s exited %d" % (" ".join(args), x.code))
        return x


# --- verify-big4 -----------------------------------------------------------

VERIFY_LEGS = {
    "def2": ["-m", "def2"],
    "ooo": ["-m", "ooo"],
    "def2-spill": ["-m", "def2", "--mem-budget", "2000000", "--spill-dir"],
}


# The big4 verdict every leg prints: big4 does not obey DRF0 and does not
# appear SC on def2 or ooo, so the machines are weakly ordered w.r.t. DRF0
# on it (vacuously).  The probe checks the same two facts.
BIG4_VERDICT = re.compile(r"^big4\s+obeys=false\s+appears-SC=false\s+ok$", re.M)


def check_verify(run, leg, x, states):
    machine = VERIFY_LEGS[leg][1]
    if x.code != 0:
        run.failed += 1
        run.mismatch("verify %s %s" % (leg, "cut at the run's time limit" if x.cut
                                        else "exited %d" % x.code))
        return
    if ("hardware %s w.r.t. DRF0: weakly ordered" % machine) not in x.out:
        run.mismatch("verify %s: not reported weakly ordered w.r.t. DRF0" % leg)
    if not BIG4_VERDICT.search(x.out) or "bounded" in x.out:
        run.mismatch("verify %s: big4 verdict not the pinned one, or not exhaustive" % leg)
    m = re.search(r"states=(\d+)", x.out)
    if m:
        states.setdefault(leg, []).append(int(m.group(1)))
    if leg == "def2-spill":
        m = re.search(r"spilled-runs=(\d+)", x.out)
        if not m or int(m.group(1)) == 0 or "degraded" in x.out:
            run.mismatch("verify def2-spill: no spilled runs, or degraded")


def verify(run):
    ctx = run.ctx
    spill = os.path.join(ctx.dir, "spill")

    def make():
        ctx.fresh()
        os.makedirs(spill)
        ctx.weakord_ok(run, "verify", "mp_sync")

    run.setup(make)
    if ctx.trace:
        m = run.probe("verify", "--seconds", ctx.seconds, "--spill-dir", spill)
        run.attempted += int(m.get("check.legs", [1])[0])
        run.failed += int(m.get("check.bad_legs", [0])[0])
        if m.get("check.bad_legs", [1])[0] != 0 or m.get("spill.runs", [0])[0] <= 0:
            run.mismatch("probe verify: a leg's big4 verdict was not the pinned one, "
                         "or it was not exhaustive, or the spill leg did not spill")
        run.take(m, m)
        return
    rng = random.Random(ctx.seed)
    legs = list(VERIFY_LEGS)
    norm, raw, peaks, states = {}, {}, [], {}
    deadline = time.perf_counter() + ctx.seconds
    while not peaks or time.perf_counter() < deadline:
        rng.shuffle(legs)
        peak = 0.0
        for leg in legs:
            args = VERIFY_LEGS[leg] + ([spill] if leg == "def2-spill" else [])
            x, secs = ctx.normalized([ctx.weakord, "verify", "big4", "-v"] + args, leg)
            run.attempted += 1
            check_verify(run, leg, x, states)
            norm.setdefault(leg, []).append(secs)
            raw.setdefault(leg, []).append(x.wall_s)
            peak = max(peak, x.rss_mb)
        peaks.append(peak)
    # A pass is the legs' median times summed.
    run.put("pass_s", sum(median(v) for v in norm.values()),
            [sum(p) for p in zip(*norm.values())])
    run.put("max_rss_mb", median(peaks), len(peaks))
    run.note("verify: raw pass wall %.3f s" % sum(median(v) for v in raw.values()))
    for leg, ns in sorted(states.items()):
        run.note("states %s: min %d max %d over %d runs at the default --jobs"
                 % (leg, min(ns), max(ns), len(ns)))


# --- sim-64 ----------------------------------------------------------------

# (workload, policy, cores) -> (total_cycles, finals_crc, stalls_crc), the
# rows pinned in BENCH_2026-08-08.json.
PINNED = {
    ("locks", "def1", 32): (185055, 1700973228, 1075244325),
    ("locks", "def1", 64): (692687, 2482953166, 3959595735),
    ("locks", "def2-rs", 32): (173548, 709992928, 3457603167),
    ("locks", "def2-rs", 64): (669660, 3328191096, 1218096748),
    ("ticket", "def1", 32): (9254, 3473907820, 1961737554),
    ("ticket", "def1", 64): (21178, 3268631944, 3234559634),
    ("ticket", "def2-rs", 32): (6854, 3473907820, 1135769137),
    ("ticket", "def2-rs", 64): (17806, 3268631944, 2069856413),
}
SIM_LEGS = [("locks", "def1"), ("locks", "def2-rs"), ("ticket", "def1"), ("ticket", "def2-rs")]
SANITIZED = ("locks", "def2-rs", 32)
HEADER = re.compile(r"^\S+ under (\S+): (\d+) cycles", re.M)


def sim_leg(run, w, p, n, sanitize):
    """Run one leg; return (run, normalized seconds, cycles)."""
    ctx = run.ctx
    cmd = [ctx.weakord, "sim", "-w", w, "-n", str(n), "-p", p]
    x, secs = ctx.normalized(cmd + ([] if sanitize else ["--no-sanitize"]), "sim-%s-%s" % (w, p))
    run.attempted += 1
    m = HEADER.search(x.out)
    if x.code != 0 or re.search(r"Wedged|Violation|invariant", x.err):
        run.failed += 1
        run.mismatch("sim %s %s n=%d: exit %d %s" % (w, p, n, x.code, x.err[-300:]))
        return x, secs, 0
    cycles = int(m.group(2)) if m else -1
    if cycles != PINNED[(w, p, n)][0]:
        run.mismatch("sim %s %s n=%d: %d cycles, pinned %d" % (w, p, n, cycles, PINNED[(w, p, n)][0]))
    return x, secs, cycles


def golden_crcs(text):
    """(finals_crc, stalls_crc) of a `weakord sim --golden` artifact, as
    the bench harness digests Sim_run finals and Obs.Stall rows."""
    stalls = text.split("=== stalls ===\n", 1)[1].split("\n=== finals ===\n", 1)
    rows = []
    for line in stalls[0].splitlines()[1:]:
        f = line.split()
        if len(f) == 4 and f[0].startswith("P"):
            rows.append("%s,%s,%s,%s" % (f[0][1:], f[1], f[2], f[3]))
    finals = stalls[1].split("=== total_cycles ===", 1)[0].split()
    return (zlib.crc32(";".join(finals).encode()), zlib.crc32(";".join(rows).encode()))


def sim_golden(run):
    ctx = run.ctx
    for (w, p, n), (_, fcrc, scrc) in sorted(PINNED.items()):
        path = os.path.join(ctx.dir, "golden-%s-%s-%d.txt" % (w, p, n))
        ctx.weakord_ok(run, "sim", "-w", w, "-n", str(n), "-p", p, "--no-sanitize", "--golden", path)
        if not os.path.exists(path):
            continue
        with open(path) as f:
            got = golden_crcs(f.read())
        if got != (fcrc, scrc):
            run.mismatch("sim %s %s n=%d: finals/stalls crc %s, pinned %s" % (w, p, n, got, (fcrc, scrc)))


def sim(run):
    ctx = run.ctx

    def make():
        ctx.fresh()
        ctx.weakord_ok(run, "sim", "-w", "ticket", "-n", "2", "-p", "def1", "--no-sanitize")

    run.setup(make)
    if ctx.trace:
        m = run.probe("sim", "--seconds", ctx.seconds)
        run.attempted += len(SIM_LEGS) + 1
        for (w, p, n), (cycles, _, _) in PINNED.items():
            key = "cycles.%s.%s.%d" % (w, p, n)
            if key in m and m[key][0] != cycles:
                run.mismatch("probe sim %s: %d cycles, pinned %d" % (key, m[key][0], cycles))
        if "cycles.locks.def2-rs.32" not in m:
            run.mismatch("probe sim reported no cycles")
        # Simulated cycles summed over locks and ticket at 64 cores: exact.
        for policy, name in (("def1", "sim.def1_cycles"), ("def2-rs", "sim.def2rs_cycles")):
            keys = ["cycles.%s.%s.64" % (w, p) for w, p in SIM_LEGS if p == policy]
            if all(k in m for k in keys):
                run.put(name, sum(m[k][0] for k in keys), 1)
        run.take(m, m)
        return
    # The sanitized leg (the CLI default) runs once: its sanitizer must
    # find no violation.  Its time (the host's speed drifts during its
    # ~3 s) is a text-only figure.
    x, secs, _ = sim_leg(run, *SANITIZED, sanitize=True)
    run.put("sim.sanitized_s", secs, 1)
    rng = random.Random(ctx.seed)
    legs = list(SIM_LEGS)
    norm, raw, peaks, cycles = {}, {}, [], {}
    deadline = time.perf_counter() + ctx.seconds
    while not peaks or time.perf_counter() < deadline:
        rng.shuffle(legs)
        peak = 0.0
        for w, p in legs:
            x, secs, c = sim_leg(run, w, p, 64, sanitize=False)
            norm.setdefault((w, p), []).append(secs)
            raw.setdefault((w, p), []).append(x.wall_s)
            cycles[(w, p)] = c
            peak = max(peak, x.rss_mb)
        peaks.append(peak)
    sim_golden(run)
    # A pass is the 64-core legs' median times summed.  Their cycles are
    # checked against the pinned rows on every leg.
    run.put("pass_s", sum(median(v) for v in norm.values()),
            [sum(p) for p in zip(*norm.values())])
    run.put("max_rss_mb", median(peaks), len(peaks))
    run.note("sim: raw 64-core pass wall %.3f s; simulated cycles %s"
             % (sum(median(v) for v in raw.values()),
                ", ".join("%s %s %d" % (w, p, c) for (w, p), c in sorted(cycles.items()))))


# --- serve-mix -------------------------------------------------------------

# The job mix is a chosen assumption, not recorded traffic: no job log
# exists to base it on.  TAIL is the share of `test big3` jobs (about 40 ms
# each, so latency has a tail); HITS the share of repeats of a seed this
# connection was served (cache hits); the rest are fresh seeds (misses).
TAIL = 0.02
HITS = 0.33
BIG3_MACHINES = ["def2", "def1", "ooo", "wbuf", "rc", "rp3", "def2-rs"]
TRAILER = re.compile(r',"cached":[^,]*,"attempts":[^,]*,"ms":[^,}]*\}$')


def strip_record(rec):
    """A JSONL verdict record without the ticket and the volatile trailer."""
    return TRAILER.sub("}", re.sub(r'^\{"job":\d+,', "{", rec))


class Conn(threading.Thread):
    """One closed-loop client: SUBMIT one job, RESULT it with WAIT, next."""

    def __init__(self, client, seed, index, deadline, ping_every):
        super().__init__()
        self.client, self.deadline, self.ping_every = client, deadline, ping_every
        self.rng = random.Random(seed * 1000 + index)
        self.next_seed = seed * 1_000_000 + index * 100_000
        self.served, self.seen, self.big = [], set(), 0  # seeds served, in order and as a set
        self.done = []  # (job line, reply, seconds)
        self.errors, self.pings = [], []

    def job(self):
        x = self.rng.random()
        if x < TAIL:
            self.big += 1
            return "test big3 machine=%s" % BIG3_MACHINES[(self.big - 1) % len(BIG3_MACHINES)]
        if x < TAIL + HITS and self.served:
            return "seed %d" % self.rng.choice(self.served)
        self.next_seed += 1
        return "seed %d" % (self.next_seed - 1)

    def run(self):
        try:
            while time.perf_counter() < self.deadline:
                job = self.job()
                t0 = time.perf_counter()
                ack = self.client.request("SUBMIT " + job)
                m = re.match(r"OK ticket=(\d+)$", ack)
                if not m:
                    self.errors.append("%s -> %s" % (job, ack))
                    continue
                rep = self.client.request("RESULT %s WAIT" % m.group(1))
                self.done.append((job, rep, time.perf_counter() - t0))
                if job.startswith("seed"):
                    s = int(job.split()[1])
                    if s not in self.seen:
                        self.seen.add(s)
                        self.served.append(s)
                if self.ping_every and len(self.done) % self.ping_every == 0:
                    t1 = time.perf_counter()
                    self.client.request("PING")
                    self.pings.append(time.perf_counter() - t1)
        except Exception as e:  # reported as a failed operation
            self.errors.append("connection: %r" % e)


def serve_session(run, seconds, ping_every=0):
    """Start the daemon, run the closed loop for [seconds], drain it.
    Returns (completed jobs, pings, STATS json, elapsed)."""
    ctx = run.ctx
    sock = os.path.join(ctx.dir, "d.sock")
    conns = ctx.width

    def make():
        ctx.fresh()
        log = open(os.path.join(ctx.dir, "daemon.log"), "wb")
        proc = subprocess.Popen([ctx.weakord, "serve", "--workers", str(conns), "--cache",
                                 os.path.join(ctx.dir, "verdicts.wovc"), sock],
                                stdout=log, stderr=log, start_new_session=True)
        log.close()
        clients = []
        try:
            t_end = time.perf_counter() + 30
            while not os.path.exists(sock):
                if proc.poll() is not None or time.perf_counter() > t_end:
                    raise RuntimeError("daemon did not start")
                time.sleep(0.001)
            for _ in range(conns):
                clients.append(Client(sock))
                if not clients[-1].request("HELLO weakord/1").startswith("OK weakord/1"):
                    raise RuntimeError("daemon refused HELLO")
        except BaseException:
            teardown((proc, clients))
            raise
        return proc, clients

    def teardown(state):
        """DRAIN the daemon and wait for it; kill it if that fails."""
        proc, clients = state
        try:
            clients[0].request("DRAIN")
        except (IndexError, OSError, ValueError):
            proc.terminate()
        for c in clients:
            c.close()
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            host.kill_group(proc.pid)
            proc.wait()
            host.reap_group(proc.pid)
            run.mismatch("daemon did not exit after DRAIN")

    state = run.setup(make, teardown)
    try:
        t0 = time.perf_counter()
        threads = [Conn(c, ctx.seed, i, t0 + seconds, ping_every)
                   for i, c in enumerate(state[1])]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - t0
        stats = json.loads(state[1][0].request("STATS")[3:])
    finally:
        teardown(state)
    done = [d for t in threads for d in t.done]
    errors = [e for t in threads for e in t.errors]
    run.attempted += len(done) + len(errors)
    run.failed += len(errors)
    for e in errors[:5]:
        run.mismatch("serve: " + e)
    check_verdicts(run, done)
    return done, [p for t in threads for p in t.pings], stats, elapsed


def check_verdicts(run, done):
    """Each RESULT must equal Worker.run on the same job, modulo ticket
    and the volatile trailer; a quarantined ticket is a failed job."""
    ctx = run.ctx
    jobs = sorted({job for job, _, _ in done})
    path = os.path.join(ctx.dir, "jobs.txt")
    with open(path, "w") as f:
        f.write("\n".join(jobs) + "\n")
    x = host.run([ctx.probe, "verdicts", "--jobs", path], ctx.out("verdicts"), timeout=ctx.left())
    if x.code != 0:
        run.mismatch("probe verdicts exited %d" % x.code)
        return
    want = dict(line.split("\t", 1) for line in x.out.splitlines() if "\t" in line)
    bad = 0
    for job, rep, _ in done:
        if '"status":"quarantined"' in rep:
            run.failed += 1
        elif not rep.startswith("OK ") or strip_record(rep[3:]) != strip_record(want.get(job, "")):
            bad += 1
            if bad <= 3:
                run.mismatch("serve %r: got %s want %s" % (job, rep[:300], want.get(job, "")[:300]))
    if bad:
        run.mismatch("serve: %d of %d verdicts differ from Worker.run" % (bad, len(done)))


def serve(run):
    ctx = run.ctx
    window = ctx.seconds / 2.0 if ctx.trace else ctx.seconds
    done, pings, stats, elapsed = serve_session(run, window, ping_every=16 if ctx.trace else 0)
    lat_ms = [d[2] * 1000.0 for d in done]
    hits = sum(1 for d in done if '"cached":true' in d[1])
    share = hits / max(1, len(done))
    p99 = percentile(lat_ms, 99)
    run.put("serve.p50_ms", median(lat_ms), len(lat_ms))
    run.put("serve.p99_ms", p99, len(lat_ms))
    run.put("serve.jobs_per_s", len(done) / elapsed, len(done))
    run.note("serve: %d jobs, %.3f of them served from the cache; p50 %.3f ms, p99 %.3f ms "
             "(%d samples beyond), %.1f jobs/s" % (len(done), share, median(lat_ms), p99,
                                                   sum(1 for v in lat_ms if v > p99),
                                                   len(done) / elapsed))
    if not ctx.trace:
        return
    # The per-job layers, in process, over the jobs that missed the cache.
    jobs = sorted({job for job, rep, _ in done if '"cached":false' in rep})
    path = os.path.join(ctx.dir, "misses.txt")
    with open(path, "w") as f:
        f.write("\n".join(jobs) + "\n")
    m = run.probe("serve", "--seconds", window, "--jobs", path,
                  "--cache", os.path.join(ctx.dir, "probe.wovc"))
    run.take(m, ["runner.materialize_ms", "runner.fork_ms", "worker.ms", "cache.find_us",
                 "cache.add_us", "trace.overhead_pct"])
    # The daemon's own counters: lookups, exact key and symmetry key.
    run.put("cache.hits", stats["cache_hits"], 1)
    run.put("cache.misses", stats["cache_misses"], 1)
    run.put("serve.hit_share", share, len(done))
    run.put("wire.ping_ms", median(pings) * 1000.0 if pings else 0.0, len(pings))
    run.put("serve.overhead_ms", median(lat_ms) - m.get("worker.ms", [0.0])[0], len(lat_ms))


# --- fleet-oracle ----------------------------------------------------------

STRIDE = 50_000  # seeds between the ranges of consecutive --seed values
CHUNK = 512      # seeds per fleet invocation: two default units of 256
HANG_S = 30      # fleet's default --hang-timeout, used by the probe too
SUMMARY = {
    "requeues": r"(\d+) requeue\(s\)",
    "bisections": r"(\d+) hang bisection\(s\)",
    "programs": r"corpus: (\d+) program\(s\)",
    "disagreements": r"(\d+) disagreement\(s\)",
    "poison": r"poison: (\d+) seed\(s\) quarantined",
}


def fleet_session(run, seconds, reserve):
    """Fleet invocations over consecutive CHUNK-seed ranges from the
    seed's LO until [seconds] pass, each killed if it would eat into the
    last [reserve] seconds of the run's limit.  Returns (totals, seeds,
    normalized seeds/s of each invocation, hi)."""
    ctx = run.ctx
    shards = str(ctx.width)
    lo = ctx.seed * STRIDE
    tot = dict.fromkeys(SUMMARY, 0)
    seeds, rates, runs = 0, [], 0
    deadline = time.perf_counter() + seconds
    while runs == 0 or time.perf_counter() < deadline:
        a = lo + runs * CHUNK
        rng = "%d..%d" % (a, a + CHUNK - 1)
        x, secs = ctx.normalized([ctx.weakord, "fleet", "--seeds", rng, "--shards", shards],
                                 "fleet", cwd=ctx.dir, reserve=reserve)
        runs += 1
        seeds += CHUNK
        if x.cut:
            # Several poison seeds on one shard (about 95 s each) can outlast
            # the run.  None of the range's seeds was checked: they all fail.
            run.failed += CHUNK
            rates.append(0.0)
            run.note("fleet %s: cut at the run's time limit after %.0f s; its %d seeds "
                     "count as failed" % (rng, x.wall_s, CHUNK))
            break
        rates.append(CHUNK / secs)
        got = {k: re.search(p, x.err + x.out) for k, p in SUMMARY.items()}
        if x.code not in (0, 4) or not all(got.values()):
            run.mismatch("fleet %s exited %d: %s" % (rng, x.code, x.err[-300:]))
            continue
        for k, m in got.items():
            tot[k] += int(m.group(1))
        if int(got["programs"].group(1)) + int(got["poison"].group(1)) != CHUNK:
            run.mismatch("fleet %s: programs + poison != %d" % (rng, CHUNK))
    run.attempted += seeds
    run.failed += tot["poison"]
    if tot["disagreements"]:
        run.mismatch("fleet: %d oracle disagreement(s)" % tot["disagreements"])
    run.note("fleet: seeds %d..%d, %d invocation(s), %d poison, %d bisection(s), %d requeue(s)"
             % (lo, lo + seeds - 1, runs, tot["poison"], tot["bisections"], tot["requeues"]))
    return tot, seeds, rates, lo + seeds - 1


def fleet(run):
    ctx = run.ctx

    def make():
        ctx.fresh()
        ctx.weakord_ok(run, "list")

    run.setup(make)
    window = ctx.seconds / 2.0 if ctx.trace else ctx.seconds
    # The traced run keeps time for its probe: the window and one seed
    # cut at the hang budget.
    reserve = window + HANG_S + 20 if ctx.trace else 0.0
    tot, seeds, rates, hi = fleet_session(run, window, reserve)
    # The median invocation: a range holding a seed past the hang budget
    # costs minutes and shows in `failed`, not in this rate; a range cut at
    # the run's limit counts as 0 seeds/s.
    run.put("fleet.seeds_per_s", median(rates), len(rates))
    run.note("fleet: median invocation %.1f seeds/s (host-speed normalized)" % median(rates))
    if not ctx.trace:
        return
    run.put("fleet.hang_bisections", tot["bisections"], 1)
    run.put("fleet.requeues", tot["requeues"], 1)
    run.put("fleet.poison_share", tot["poison"] / seeds, seeds)
    m = run.probe("fleet", "--seconds", window, "--lo", ctx.seed * STRIDE, "--hi", hi,
                  "--hang", HANG_S)
    run.take(m, ["axiomatic.ms", "axiomatic.seed_p99_ms", "axiomatic.seed_max_ms",
                 "axiomatic.share", "oracle.seed_p50_ms", "oracle.seed_max_ms",
                 "trace.overhead_pct"])
    if m.get("oracle.killed", [0])[0]:
        run.note("probe: %d seed(s) cut at the %d s hang budget"
                 % (m["oracle.killed"][0], HANG_S))


ALL = {"verify-big4": verify, "serve-mix": serve, "sim-64": sim, "fleet-oracle": fleet}
