#!/usr/bin/env python3
"""Layered benchmark of velodrome-check and velodrome-serve.

    python3 perfbench/run.py --workload recorded|contended|text \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --table [--seed N]

Run from the repository root. The first run builds the tools and the
helper (perfbench/velobench.cpp) into $CARGO_TARGET_DIR (default
.bench_build) from source. Each run then sets up its workload's corpus from
--seed (three times, to time set-up and to prove it deterministic), takes
a reference verdict and report per corpus file and backend, and measures:

  --trace 0  the end-to-end metrics: each shipped tool run as a separate
             process and timed from outside, sampled until --seconds have
             passed; every metric is the median of its samples.
  --trace 1  the per-layer metrics: `velobench layers` drives each layer
             in process over the corpus and writes its spans; plus one
             serve round (client timings) and untraced check_velodrome_s
             runs for the unaccounted share.

Every timed command must reproduce its reference exit status and verdict,
every serve VERDICT must equal velodrome-check's report byte for byte (but
for the session name in its header), and anything else counts as a failed
operation. The last line of stdout is
{"correct", "attempted", "failed", "metrics"}; the line before it stamps
the corpus (content hash, events per file) and the host. --table prints
the ROADMAP re-anchor table at its sizes instead. See README.md.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Corpus sizes. Timed runs use scale 50 recordings and a ~435k-event
# contended stream so that a run, set-up included, stays under about 45 s
# and still takes several samples of the costliest metric; --table uses the
# ROADMAP's sizes.
RECORDED = ("elevator", "multiset")
SCALE = 50
CONTENDED_STEPS = 400000
TABLE_SCALE = 200
TABLE_STEPS = 1500000
SETUP_REPS = 3
UNTRACED_REPS = 9  # check_velodrome_s samples beside a traced run
CMD_TIMEOUT_S = 150

BACKENDS = ("velodrome", "aero", "atomizer", "eraser", "hb", "deadlock")
# Timed modes: metric name -> velodrome-check flags.
MODES = {"check_%s_s" % b: ["--backend=" + b] for b in BACKENDS}
MODES["check_reduce_s"] = ["--backend=velodrome", "--reduce=all"]
MODES["check_parallel_s"] = ["--backend=velodrome", "--parallel"]

# The traced layers that make up `velodrome-check --backend=velodrome`.
CHECK_PATH = ("events.decode", "events.sanitize", "analysis.governed",
              "report.render_text")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail_setup(msg):
    """Set-up cannot proceed: exit non-zero without printing a result."""
    log("perfbench: " + msg)
    sys.exit(2)


class Build:
    """The tools and helper, built from this checkout's sources."""

    def __init__(self):
        if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
                and os.path.isdir(os.path.join(ROOT, "src"))):
            fail_setup("no repository sources next to perfbench/; "
                       "run from a full checkout")
        target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
        self.dir = os.path.join(ROOT, target, "perfbench")
        self.tools = os.path.join(self.dir, "velodrome", "tools")
        self.velobench = os.path.join(self.dir, "velobench")

    def tool(self, name):
        return os.path.join(self.tools, name)

    def make(self):
        os.makedirs(self.dir, exist_ok=True)
        logf = os.path.join(self.dir, "build.log")
        jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
        with open(logf, "w") as out:
            if not os.path.isfile(os.path.join(self.dir, "CMakeCache.txt")):
                gen = ["-G", "Ninja"] if shutil.which("ninja") else []
                if subprocess.call(["cmake", "-S", HERE, "-B", self.dir,
                                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen,
                                   stdout=out, stderr=out) != 0:
                    fail_setup("cmake configure failed; see " + logf)
            if subprocess.call(["cmake", "--build", self.dir, "-j", jobs],
                               stdout=out, stderr=out) != 0:
                fail_setup("build failed; see " + logf)

    def host(self):
        cache = {}
        with open(os.path.join(self.dir, "CMakeCache.txt")) as f:
            for line in f:
                if "=" in line and ":" in line.split("=", 1)[0]:
                    key, val = line.rstrip("\n").split("=", 1)
                    cache[key.split(":")[0]] = val
        cxx = cache.get("CMAKE_CXX_COMPILER", "c++")
        try:
            ver = subprocess.run([cxx, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
        except (OSError, IndexError):
            ver = cxx
        return {"nproc": len(os.sched_getaffinity(0)), "compiler": ver,
                "build_type": cache.get("CMAKE_BUILD_TYPE", "")}


class Proc:
    """One child process, timed from outside and reaped with wait4 by
    `velobench exec` (see velobench.cpp for why not from here)."""

    velobench = None  # set once the build exists

    def __init__(self, args, cwd, timeout=CMD_TIMEOUT_S, cpu=None):
        pin = None if cpu is None else lambda: os.sched_setaffinity(0, {cpu})
        p, stats = spawn(args, cwd, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, preexec_fn=pin)
        try:
            self.out, self.err = p.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(p.pid, signal.SIGKILL)
            self.out, self.err = p.communicate()
        self.exit = p.returncode
        self.seconds, self.rss_mb = read_stats(stats)


def spawn(args, cwd, **kw):
    """Start args under `velobench exec`, in a process group of its own.
    Returns the process and the read end of its statistics pipe."""
    r, w = os.pipe()
    try:
        p = subprocess.Popen([Proc.velobench, "exec", str(w)] + args,
                             cwd=cwd, start_new_session=True, pass_fds=(w,),
                             **kw)
    finally:
        os.close(w)
    return p, r


def read_stats(fd):
    """(wall seconds, peak RSS in MB) of an exec'd child; NaN if killed."""
    with os.fdopen(fd, "rb") as f:
        data = f.read()
    try:
        st = json.loads(data)
        return st["seconds"], st["maxrss_kb"] / 1024.0
    except (ValueError, KeyError):
        return float("nan"), float("nan")


class Ledger:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(what)
                log("FAIL: " + what)
        return ok


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class Corpus:
    """One workload's input files, generated from the seed."""

    def __init__(self, build, workload, seed, ledger, scale=SCALE,
                 steps=CONTENDED_STEPS, tag=""):
        self.build, self.workload, self.seed = build, workload, seed
        self.ledger, self.scale, self.steps = ledger, scale, steps
        self.dir = os.path.join(build.dir, "corpus",
                                "%s%s-%d" % (tag, workload, seed))
        self.files = []      # timed inputs, relative to self.dir
        self.expected = {}   # file -> expected exit status
        self.source = {}     # text file -> the .vtrc it was converted from
        self.events = {}     # file -> events, from its reference report

    def make_once(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        files, expected, source = [], {}, {}
        # Set-up runs on one CPU: velodrome-run's deterministic scheduler
        # hands one running thread between OS threads, and across CPUs of
        # a virtual machine those hand-offs made its time vary up to 3x.
        cpu = max(os.sched_getaffinity(0))
        if self.workload == "contended":
            p = Proc([self.build.velobench, "gen", "--seed=%d" % self.seed,
                      "--events=%d" % self.steps, "--out=contended.vtrc"],
                     self.dir, cpu=cpu)
            if p.exit != 0:
                fail_setup("gen failed: " + p.err.decode(errors="replace"))
            files.append("contended.vtrc")
            expected["contended.vtrc"] = json.loads(p.out)["expected_exit"]
        else:
            for wl in RECORDED:
                vtrc = wl + ".vtrc"
                p = Proc([self.build.tool("velodrome-run"),
                          "--seed=%d" % self.seed, "--scale=%d" % self.scale,
                          "--record=" + vtrc, wl], self.dir, cpu=cpu)
                # The online verdict of the recording run is the file's
                # expected verdict.
                if p.exit not in (0, 1) or not os.path.isfile(
                        os.path.join(self.dir, vtrc)):
                    fail_setup("recording %s failed (exit %d): %s" % (
                        wl, p.exit, p.err.decode(errors="replace")))
                if self.workload == "text":
                    text = wl + ".trace"
                    c = Proc([self.build.tool("velodrome-convert"),
                              "--to=text", vtrc, text], self.dir, cpu=cpu)
                    if c.exit != 0:
                        fail_setup("convert %s failed: %s" % (
                            vtrc, c.err.decode(errors="replace")))
                    files.append(text)
                    expected[text] = p.exit
                    source[text] = vtrc
                else:
                    files.append(vtrc)
                    expected[vtrc] = p.exit
        return files, expected, source

    def make(self, reps=SETUP_REPS):
        """Set up reps times; return the set-up times."""
        times, hashes = [], None
        for _ in range(reps):
            t0 = time.perf_counter()
            files, expected, source = self.make_once()
            times.append(time.perf_counter() - t0)
            names = sorted(set(files) | set(source.values()))
            h = {f: sha256(os.path.join(self.dir, f)) for f in names}
            if hashes is not None:
                self.ledger.check(h == hashes,
                                  "set-up is not deterministic: %s" % self.dir)
            hashes = h
        self.files, self.expected, self.source = files, expected, source
        self.hashes = hashes
        os.sync()  # no write-back of the corpus during the measurements
        whole = hashlib.sha256()
        for f in sorted(hashes):
            whole.update(("%s %s\n" % (f, hashes[f])).encode())
        self.id = whole.hexdigest()[:16]
        return times

    def note_events(self, f, report):
        """Read the event count off a text report's header line."""
        first = report.split(b"\n", 1)[0].decode(errors="replace")
        try:
            self.events[f] = int(first[len(f) + 2:].split()[0])
        except (ValueError, IndexError):
            self.events[f] = -1


def header_free(report, name):
    """A text report with its '<trace>: N events' header name removed."""
    return report.replace((name + ": ").encode(), b"<trace>: ", 1)


class Bench:
    def __init__(self, build, corpus, ledger):
        self.build, self.corpus, self.ledger = build, corpus, ledger
        self.check = build.tool("velodrome-check")
        self.reports = {}  # (metric, file) -> (exit, full text report)

    def run_check(self, flags, f, quiet=True):
        args = [self.check] + (["--quiet"] if quiet else []) + flags + [f]
        return Proc(args, self.corpus.dir)

    def reference(self):
        """Untimed reference runs; they double as warm-up."""
        c, ok = self.corpus, self.ledger.check
        for f in c.files:
            for metric, flags in MODES.items():
                p = self.run_check(flags, f, quiet=False)
                ok(p.exit in (0, 1), "%s %s: exit %d: %s" % (
                    metric, f, p.exit, p.err[-300:]))
                self.reports[metric, f] = (p.exit, p.out)
            velo = self.reports["check_velodrome_s", f]
            aero = self.reports["check_aero_s", f]
            c.note_events(f, velo[1])
            ok(velo[0] == aero[0] == c.expected[f],
               "%s: Velodrome exit %d, AeroDrome exit %d, expected %d" % (
                   f, velo[0], aero[0], c.expected[f]))
            ok(self.reports["check_parallel_s", f] == velo,
               "%s: --parallel report differs from sequential" % f)
            # The header counts delivered events, which --reduce lowers;
            # the warnings and the verdict must not change.
            red = self.reports["check_reduce_s", f]
            ok(red[0] == velo[0] and red[1].split(b"\n", 1)[1:] ==
               velo[1].split(b"\n", 1)[1:],
               "%s: --reduce=all report differs from plain Velodrome" % f)
            if f in c.source:
                src = c.source[f]
                for metric, flags in MODES.items():
                    p = self.run_check(flags, src, quiet=False)
                    if metric == "check_velodrome_s":
                        c.note_events(src, p.out)
                    ok(p.exit == self.reports[metric, f][0] and
                       header_free(p.out, src) ==
                       header_free(self.reports[metric, f][1], f),
                       "%s: %s report differs from %s" % (f, metric, src))
        self.serve_round()

    def timed_check(self, metric, f):
        p = self.run_check(MODES[metric], f)
        want_exit, report = self.reports[metric, f]
        verdict = report.rstrip(b"\n").rsplit(b"\n", 1)[-1] + b"\n"
        self.ledger.check(p.exit == want_exit and p.out == verdict,
                          "%s %s: exit %d out %r, want exit %d out %r" % (
                              metric, f, p.exit, p.out[-200:], want_exit,
                              verdict))
        return p

    def serve_round(self):
        """One daemon, min(4, nproc) concurrent client sessions per file."""
        c, ok = self.corpus, self.ledger.check
        sock = os.path.join(c.dir, "serve.sock")
        if os.path.exists(sock):
            os.unlink(sock)
        sessions = max(1, min(4, len(os.sched_getaffinity(0))))
        daemon, stats = spawn([self.build.tool("velodrome-serve"),
                               "--socket=serve.sock", "--quiet"], c.dir,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL)
        try:
            p = Proc([self.build.velobench, "serve", "--socket=serve.sock",
                      "--sessions=%d" % sessions] + c.files,
                     c.dir)
        finally:
            os.killpg(daemon.pid, signal.SIGTERM)
            try:
                daemon.wait(20)
            except subprocess.TimeoutExpired:
                os.killpg(daemon.pid, signal.SIGKILL)
                daemon.wait()
        rss = read_stats(stats)[1]
        ok(daemon.returncode in (0, 128 + signal.SIGTERM),
           "velodrome-serve exited %d" % daemon.returncode)
        if not ok(p.exit == 0, "serve clients: exit %d: %s" % (
                p.exit, p.err[-300:])):
            return None, rss, []
        res = json.loads(p.out)
        for s in res["sessions"]:
            f = c.files[s["file"]]
            want_exit, report = self.reports["check_velodrome_s", f]
            got = s["report"].encode("latin-1")
            # Byte-identical but for the header's trace name, which is the
            # session name.
            name = "%s@s%d" % (f, s["thread"])
            same = header_free(got, name) == header_free(report, f)
            ok(not s["error"] and s["exit"] == want_exit and same,
               "serve session %d on %s: %s exit %d, report %s" % (
                   s["thread"], f, s["error"], s["exit"],
                   "identical" if same else "differs"))
        return res["wall_s"], rss, res["sessions"]

    def timed(self, seconds):
        """Sample until `seconds` pass and every metric has a sample,
        always running next the metric with the least time spent so far. Every metric gets about the same share
        of the run and its samples spread over the whole run, so a cheap
        command gives many samples and drift in the host's speed reaches
        every metric alike."""
        samples = {m: [] for m in list(MODES) + ["check_rss_mb", "serve_s",
                                                 "serve_rss_mb"]}
        spent = {m: 0.0 for m in list(MODES) + ["serve_s"]}
        start = time.perf_counter()
        while (time.perf_counter() - start < seconds or
               min(spent.values()) == 0.0):
            metric = min(spent, key=spent.get)
            t0 = time.perf_counter()
            if metric == "serve_s":
                wall, rss, _ = self.serve_round()
                if wall is not None:
                    samples["serve_s"].append(wall)
                samples["serve_rss_mb"].append(rss)
            else:
                total, rss = 0.0, 0.0
                for f in self.corpus.files:
                    p = self.timed_check(metric, f)
                    total += p.seconds
                    rss = max(rss, p.rss_mb)
                samples[metric].append(total)
                if metric == "check_velodrome_s":
                    samples["check_rss_mb"].append(rss)
            spent[metric] += time.perf_counter() - t0
        return samples, time.perf_counter() - start


def median(xs):
    return statistics.median(xs) if xs else float("nan")


def span_layers(doc):
    """Per-pass self time (ns) and events of every leaf layer."""
    spans = doc["spans"]
    child_ns = [0] * len(spans)
    for name, parent, s, e, ev in spans:
        if parent >= 0:
            child_ns[parent] += e - s
    passes = {}
    for i, (name, parent, s, e, ev) in enumerate(spans):
        if name in ("pass", "file"):
            continue
        # Leaf stage -> its file span -> the pass span.
        pass_id = spans[parent][1]
        layer = passes.setdefault(pass_id, {}).setdefault(name, [0, 0])
        layer[0] += (e - s) - child_ns[i]
        layer[1] += ev
    pass_s = [(e - s) / 1e9 for name, parent, s, e, ev in spans
              if name == "pass"]
    return [passes[k] for k in sorted(passes)], pass_s


def traced(bench, seconds, ledger):
    c = bench.corpus
    out = os.path.join(c.dir, "spans.json")
    p = Proc([bench.build.velobench, "layers", "--seconds=%d" % seconds,
              "--out=spans.json"] + c.files, c.dir, timeout=seconds + 150)
    if not ledger.check(p.exit == 0, "velobench layers: exit %d: %s" % (
            p.exit, p.err[-300:])):
        return {}
    with open(out) as f:
        doc = json.load(f)
    passes, pass_s = span_layers(doc)
    counters = doc["counters"]
    ledger.check(all(k == counters[0] for k in counters),
                 "layer counters differ between passes")
    ledger.check(counters[0]["verdict.violations"] == sum(
        1 for f in c.files if c.expected[f] == 1),
        "traced run verdicts differ from the expected verdicts")

    def per_ev(name):
        return [l[name][0] / l[name][1] for l in passes]

    def total_us(name):
        return [l[name][0] / 1e3 for l in passes]

    m = {}
    m["events.decode.ns_per_ev"] = median(per_ev("events.decode"))
    m["events.sanitize.ns_per_ev"] = median(per_ev("events.sanitize"))
    m["staticpass.classify.ns_per_ev"] = median(per_ev("staticpass.classify"))
    m["staticpass.filter.ns_per_ev"] = median(per_ev("staticpass.filter"))
    m["core.velodrome.ns_per_ev"] = median(per_ev("core.velodrome"))
    m["core.velodrome_reduced.ns_per_ev"] = median(
        per_ev("core.velodrome_reduced"))
    m["analysis.governed.ns_per_ev"] = median(
        [g - v for g, v in zip(per_ev("analysis.governed"),
                               per_ev("core.velodrome"))])
    for b in ("aero", "atomizer", "eraser", "hbrace", "deadlock"):
        m[b + ".ns_per_ev"] = median(per_ev(b))
    m["parallel.empty.ns_per_ev"] = median(per_ev("parallel.empty"))
    m["serve.wire_encode.ns_per_ev"] = median(per_ev("serve.wire_encode"))
    m["serve.wire_decode.ns_per_ev"] = median(per_ev("serve.wire_decode"))
    for fmt in ("text", "json", "sarif"):
        m["report.render_%s_us" % fmt] = median(
            total_us("report.render_" + fmt))

    k = counters[0]
    m["events.decode.events"] = k["events.decode.events"]
    m["events.sanitize.repairs"] = k["events.sanitize.repairs"]
    m["staticpass.dropped_frac"] = 1 - k["staticpass.kept"] / k[
        "events.sanitized"]
    for g in ("allocated", "max_alive", "edges", "merged"):
        m["core.graph." + g] = k["core.graph." + g]
    m["parallel.batches"] = k["parallel.batches"]
    m["report.findings"] = k["report.findings"]

    # Untraced check_velodrome_s in this run, for the unaccounted share.
    check_s = median([sum(bench.timed_check("check_velodrome_s", f).seconds
                          for f in c.files) for _ in range(UNTRACED_REPS)])
    path_s = median([sum(l[k][0] for k in CHECK_PATH) / 1e9 for l in passes])
    m["check.unaccounted_frac"] = 1 - path_s / check_s
    m["trace.check_layers_s"] = path_s
    m["trace.check_velodrome_s"] = check_s
    m["trace.pass_s"] = median(pass_s)
    m["trace.passes"] = len(passes)
    m["trace.span_cost_ns"] = doc["span_cost_ns"]

    wall, _, sessions = bench.serve_round()
    if sessions:
        m["serve.hello_ms"] = median([s["hello_ms"] for s in sessions])
        m["serve.session_p50_s"] = median([s["session_s"] for s in sessions])
        m["serve.session_max_s"] = max(s["session_s"] for s in sessions)
    return m


def table(build, seed):
    """ROADMAP's re-anchor table, plus the elevator floor by layer."""
    ledger = Ledger()
    rows = []
    for wl in ("recorded", "contended"):
        corpus = Corpus(build, wl, seed, ledger, scale=TABLE_SCALE,
                        steps=TABLE_STEPS, tag="table-")
        corpus.make(reps=1)
        bench = Bench(build, corpus, ledger)
        for f in corpus.files:
            p = bench.run_check(["--backend=velodrome"], f, quiet=False)
            ledger.check(p.exit == corpus.expected[f], "%s: exit %d" % (
                f, p.exit))
            corpus.note_events(f, p.out)
            row = [f, corpus.events[f]]
            for b in ("velodrome", "aero", "deadlock"):
                times = [bench.run_check(["--backend=" + b], f).seconds
                         for _ in range(5)]
                row.append(median(times))
            rows.append(row)
        if wl == "recorded":
            corpus.files = ["elevator.vtrc"]
            floor = traced_floor(bench)
    print("| trace (`.vtrc`) | events | Velodrome | AeroDrome | deadlock |")
    print("|---|---|---|---|---|")
    for f, ev, v, a, d in rows:
        print("| %s | %.2fM | %.3f s | %.3f s | %.3f s |" % (
            f, ev / 1e6, v, a, d))
    print()
    print("elevator floor by layer (check_velodrome_s = %.3f s):" %
          floor["check_velodrome_s"])
    for name in CHECK_PATH:
        print("  %-20s %8.1f ms" % (name, floor[name] * 1e3))
    print("  %-20s %8.1f ms" % ("unaccounted", (
        floor["check_velodrome_s"] - sum(floor[k] for k in CHECK_PATH))
        * 1e3))
    if ledger.failed:
        fail_setup("%d of %d checks failed" % (ledger.failed, ledger.attempted))


def traced_floor(bench):
    """Median seconds per check-path layer over traced passes of the
    corpus, against the untraced check_velodrome_s."""
    c = bench.corpus
    p = Proc([bench.build.velobench, "layers", "--seconds=5",
              "--out=spans.json"] + c.files, c.dir)
    if p.exit != 0:
        fail_setup("velobench layers failed: " + p.err.decode(errors="replace"))
    with open(os.path.join(c.dir, "spans.json")) as f:
        passes, _ = span_layers(json.load(f))
    floor = {k: median([l[k][0] / 1e9 for l in passes]) for k in CHECK_PATH}
    floor["check_velodrome_s"] = median([
        sum(bench.run_check(["--backend=velodrome"], f).seconds
            for f in c.files) for _ in range(5)])
    return floor


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=("recorded", "contended", "text"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--table", action="store_true",
                    help="print the ROADMAP re-anchor table and exit")
    args = ap.parse_args()
    if not args.table and not args.workload:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    build = Build()
    build.make()
    Proc.velobench = build.velobench
    if args.table:
        table(build, args.seed)
        return

    ledger = Ledger()
    corpus = Corpus(build, args.workload, args.seed, ledger)
    setup_times = corpus.make()
    bench = Bench(build, corpus, ledger)
    bench.reference()

    samples = {}
    if args.trace:
        metrics = traced(bench, args.seconds, ledger)
    else:
        samples, elapsed = bench.timed(args.seconds)
        metrics = {k: median(v) for k, v in samples.items()}
        metrics["setup_s"] = median(setup_times)
        log("timed %.1f s: %s" % (elapsed, ", ".join(
            "%s %d" % (k, len(v)) for k, v in samples.items())))

    stamp = {"workload": args.workload, "seed": args.seed,
             "corpus_id": corpus.id, "files": corpus.hashes,
             "events": corpus.events, "host": build.host()}
    # BENCHMARK.json names the metrics and their units. A value is missing
    # or NaN only after a failed operation, which the ledger has counted;
    # the result line stays valid JSON.
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec}
    ledger.check(set(metrics) == set(units) and
                 all(math.isfinite(v) for v in metrics.values()),
                 "metrics differ from BENCHMARK.json or lack a valid sample")
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": metrics[k] if math.isfinite(
                        metrics.get(k, math.nan)) else 0.0, "unit": u}
                    for k, u in sorted(units.items())},
    }
    res_dir = os.path.join(build.dir, "results")
    os.makedirs(res_dir, exist_ok=True)
    with open(os.path.join(res_dir, "%s-seed%d-trace%d.json" % (
            args.workload, args.seed, args.trace)), "w") as f:
        json.dump({"stamp": stamp, "result": result, "samples": samples,
                   "failures": ledger.reasons}, f, indent=1)
    print(json.dumps({"stamp": stamp}))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
