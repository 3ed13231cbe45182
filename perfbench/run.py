#!/usr/bin/env python3
"""Serve benchmark: spamlab's daemon measured end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload spamc-classify --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

--trace 0 starts `spamlab serve --jobs 1` as a separate process and
replays the workload's seeded schedule over a unix socket, in a fixed
number of sessions per workload, each on a fresh copy of the pristine
state; it checks every answer and the final STATS and reports the
end-to-end metrics.  A run is a fixed amount of work: --seconds is
accepted and does not change it.  --trace 1 replays the same schedule
in-process through the functions the daemon calls, timing each layer,
and reports the per-layer metrics.  The last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}; the lines before
it are a human-readable report.  --smoke runs every workload at a tiny
size, both modes, and exits nonzero on any failure.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

WORKLOADS = ["spamc-classify", "batch-feedback", "tenants-zipf"]
STORE_WORKLOADS = {"tenants-zipf"}
WORK = ".perfbench"  # everything a run writes, under the checkout root
SPAMLAB = os.path.join("_build", "default", "bin", "spamlab.exe")
PERFBENCH = os.path.join("_build", "default", "perfbench", "perfbench.exe")
TRACE_ROUNDS = 3
# Sessions per run: repeats of one schedule.  More repeats steady the
# per-request minima; spamc-classify's sessions are the shortest and its
# figures spread most, so it gets the most.
SESSIONS = {"spamc-classify": 15, "batch-feedback": 8, "tenants-zipf": 8}
SMOKE_SESSIONS = 3
# A full-size traced replay must account for the in-process
# handle_request time within this share, and timing its layers may
# change it by at most this share.  Publishes (fsync'd saves, a
# compaction) are most of tenants-zipf's handled time, and single
# rounds there have read up to 0.15; the median of three, under 0.09.
RECONCILE_TOLERANCE = 0.2
CLK_TCK = os.sysconf("SC_CLK_TCK")
# Keep the build and every child inside the checkout: no shared dune
# cache, compiler temporaries under WORK.
ENV = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=os.path.abspath(os.path.join(WORK, "tmp")))

# End-to-end metrics, in report order: name -> unit.  Only those listed
# in BENCHMARK.json go into the JSON line; every one is printed.
END_TO_END = {
    "setup_s": "s",
    "msgs_per_s": "1/s",
    "classify_p50_us": "us",
    "classify_p99_us": "us",
    "train_p50_us": "us",
    "train_p90_us": "us",
    "cpu_us_per_msg": "us",
    "rss_mb": "MiB",
    "write_kb_per_train_msg": "KiB",
    "error_share": "ratio",
}


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def check_checkout():
    for path in ("dune-project", os.path.join("bin", "spamlab.ml"), "lib",
                 os.path.join("perfbench", "dune")):
        if not os.path.exists(path):
            raise BenchError(f"not a spamlab checkout: {path} is missing")


def build():
    os.makedirs(ENV["TMPDIR"], exist_ok=True)
    r = subprocess.run(["dune", "build", "--root", ".", "./bin/spamlab.exe",
                        "./perfbench/perfbench.exe"],
                       env=ENV, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    if r.returncode != 0:
        raise BenchError("build failed")


def pb(*args, timeout=150):
    """Run the OCaml client; its stdout is one JSON object.  It runs in
    its own process group so a timeout also takes down its daemon."""
    p = subprocess.Popen([PERFBENCH, *args], stdout=subprocess.PIPE, stderr=sys.stderr,
                         text=True, start_new_session=True, env=ENV)
    try:
        out, _ = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        raise BenchError(f"perfbench {args[0]} timed out")
    if p.returncode != 0:
        raise BenchError(f"perfbench {args[0]} exited with {p.returncode}")
    out = out.strip()
    return json.loads(out) if out else {}


def state_dir(size, seed, workload):
    """Pristine state for (size, seed, workload), built once and cached."""
    with open(PERFBENCH, "rb") as f:
        build_id = hashlib.sha256(f.read()).hexdigest()[:12]
    d = os.path.join(WORK, "state", f"{workload}-{size}-s{seed}-{build_id}")
    if not os.path.isdir(d):
        # One cached state at a time: a tenants-zipf one takes ~50 MB.
        shutil.rmtree(os.path.join(WORK, "state"), ignore_errors=True)
        tmp = d + ".tmp"
        os.makedirs(tmp)
        pb("prepare", "--seed", str(seed), "--size", size, "--workload", workload,
           "--out", tmp)
        os.rename(tmp, d)
    return d


def fresh_copy(state, workload, name):
    """A private copy of the pristine state for one daemon or replay."""
    w = os.path.join(WORK, "work", name)
    shutil.rmtree(w, ignore_errors=True)
    os.makedirs(w)
    shutil.copyfile(os.path.join(state, "shared.db"), os.path.join(w, "shared.db"))
    if workload in STORE_WORKLOADS:
        shutil.copytree(os.path.join(state, "store"), os.path.join(w, "store"))
    return w


def fresh_dir(name):
    d = os.path.join(WORK, "work", name)
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(d)
    return d


def quantile(values, q):
    """Nearest-rank quantile of a sample."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def quartiles(values):
    if len(values) < 2:
        return (values[0], values[0])
    q = statistics.quantiles(values, n=4)
    return (q[0], q[2])


# --------------------------------------------------------------------------
# End to end (--trace 0)


def run_sessions(state, workload, count, expect):
    """[count] sessions, so a run is a fixed amount of work and its
    per-request minima are taken over the same number of repeats every
    time."""
    sessions = []
    while len(sessions) < count:
        work = fresh_copy(state, workload, "session")
        s = pb("session", "--state", state, "--work", work, "--workload", workload,
               "--spamlab", SPAMLAB, "--expect", expect)
        sessions.append(s)
        if s["errors"]:
            break
    return sessions


def end_to_end(sessions):
    """Per-run values and per-session samples (for the quartile report).

    Every session replays the same schedule, so request i and segment j
    are the same work in each.  Host contention comes and goes in
    bursts of seconds; taking, per request and per segment, the fastest
    of the run's sessions removes it while keeping the costs the
    schedule itself causes (a publish stall is in every session)."""
    kinds = sessions[0]["kinds"]
    rtt = [min(s["rtt_us"][i] for s in sessions) for i in range(len(kinds))]
    classify = [x for x, k in zip(rtt, kinds) if k == "C"]
    train = [x for x, k in zip(rtt, kinds) if k == "T"]
    nseg = len(sessions[0]["seg_wall_ns"])
    wall = sum(min(s["seg_wall_ns"][j] for s in sessions) for j in range(nseg))
    cpu = sum(min(s["seg_cpu_ns"][j] for s in sessions) for j in range(nseg))
    msgs = sessions[0]["classify_msgs"] + sessions[0]["train_msgs"]
    setups = [s["setup_s"] for s in sessions]
    per = {k: [] for k in END_TO_END}
    for s in sessions:
        c = [x for x, k in zip(s["rtt_us"], kinds) if k == "C"]
        t = [x for x, k in zip(s["rtt_us"], kinds) if k == "T"]
        per["setup_s"].append(s["setup_s"])
        per["msgs_per_s"].append(msgs / s["wall_s"])
        per["classify_p50_us"].append(statistics.median(c))
        per["classify_p99_us"].append(quantile(c, 0.99))
        if t:
            per["train_p50_us"].append(statistics.median(t))
            per["train_p90_us"].append(quantile(t, 0.90))
            per["write_kb_per_train_msg"].append(
                (s["wchar"] - s["resp_bytes"]) / 1024 / s["train_msgs"])
        per["cpu_us_per_msg"].append(sum(s["seg_cpu_ns"]) / 1e3 / msgs)
        per["rss_mb"].append(s["rss_kb"] / 1024)
    attempted = sum(t[k] for s in sessions for t in s["tally"].values() for k in t)
    failed = sum(t[k] for s in sessions for t in s["tally"].values()
                 for k in ("err", "busy", "transport"))
    value = {
        "setup_s": statistics.median(setups),
        "msgs_per_s": msgs / (wall / 1e9),
        "classify_p50_us": statistics.median(classify),
        "classify_p99_us": quantile(classify, 0.99),
        "cpu_us_per_msg": cpu / 1e3 / msgs,
        "rss_mb": statistics.median(per["rss_mb"]),
        "error_share": failed / attempted,
    }
    if train:
        value["train_p50_us"] = statistics.median(train)
        value["train_p90_us"] = quantile(train, 0.90)
        value["write_kb_per_train_msg"] = statistics.median(per["write_kb_per_train_msg"])
    per["error_share"] = [value["error_share"]]
    # Segment CPU comes from the daemon's main thread (schedstat, ns);
    # /proc/<pid>/stat covers every thread in 1/CLK_TCK ticks.  They
    # agree while the daemon runs --jobs 1 on one thread.
    ticks_us = sum(s["cpu_ticks"] for s in sessions) * 1e6 / CLK_TCK
    thread_us = sum(sum(s["seg_cpu_ns"]) for s in sessions) / 1e3
    cpu_split = abs(ticks_us - thread_us) > 0.1 * ticks_us + 2e6 / CLK_TCK * len(sessions)
    samples = {"setup_s": len(setups), "classify_p50_us": len(classify),
               "classify_p99_us": len(classify), "train_p50_us": len(train),
               "train_p90_us": len(train)}
    return value, per, samples, attempted, failed, cpu_split


def tail_ok(name, n):
    """A tail percentile needs at least ten samples beyond it."""
    beyond = {"classify_p99_us": 0.01, "train_p90_us": 0.10}.get(name)
    return beyond is None or n * beyond >= 10


# --------------------------------------------------------------------------
# Per layer (--trace 1)


def traced_session(state, workload, expect):
    """A daemon session whose requests are each also replayed in-process:
    traced, through Daemon.handle_request, and untraced, each engine on
    its own pristine copy."""
    twin = fresh_dir("twin")
    for name in ("m", "d", "p"):
        shutil.move(fresh_copy(state, workload, name), os.path.join(twin, name))
    return pb("session", "--state", state, "--workload", workload, "--spamlab", SPAMLAB,
              "--work", fresh_copy(state, workload, "session"), "--expect", expect,
              "--twin-work", twin)


def ratio(a, b):
    return a / b if b else 0.0


PER_LAYER_UNITS = {
    "transport.us_per_req": "us", "transport.connect_us": "us",
    "protocol.parse_us_per_req": "us", "protocol.render_us_per_req": "us",
    "protocol.bytes_per_req": "bytes",
    "daemon.classify_us_per_req": "us", "daemon.train_us_per_req": "us",
    "daemon.other_us_per_req": "us",
    "ingest.chunk_us_per_msg": "us", "mbox.parse_us_per_msg": "us",
    "tokenize.us_per_msg": "us", "tokenize.tokens_per_msg": "count",
    "intern.first_sightings": "count",
    "score.us_per_msg": "us", "prob_cache.fill_ratio": "ratio",
    "train.us_per_msg": "us",
    "publish.count": "count", "publish.save_ms": "ms", "publish.copy_ms": "ms",
    "publish.freeze_ms": "ms", "publish.cache_ms": "ms", "publish.bytes": "bytes",
    "store.materialize_us": "us", "store.hit_ratio": "ratio", "store.evictions": "count",
    "store.journal_us_per_op": "us", "store.journal_bytes_per_op": "bytes",
    "store.commit_ms": "ms", "store.compactions": "count",
    "trace.unaccounted_share": "ratio", "trace.overhead_share": "ratio",
}

# Pure functions of the schedule: must repeat exactly.
COUNTS = ["protocol.bytes_per_req", "tokenize.tokens_per_msg", "intern.first_sightings",
          "publish.count", "publish.bytes", "store.evictions", "store.compactions",
          "store.journal_bytes_per_op"]


def per_layer(session, workload):
    L = session["trace"]
    self_ns = L["self_ns"]
    n = L["timed_reqs"]
    pubs = L["publishes"]
    h_total = L["handle_classify_ns"] + L["handle_train_ns"]
    below = sum(v for k, v in self_ns.items() if k not in ("parse", "render"))
    store = workload in STORE_WORKLOADS
    connects = session["connect_us"]
    m = {
        "transport.us_per_req": (session["rtt_ns"] - h_total - self_ns["parse"]
                                 - self_ns["render"]) / n / 1e3,
        "transport.connect_us": statistics.median(connects) if connects else 0.0,
        "protocol.parse_us_per_req": self_ns["parse"] / n / 1e3,
        "protocol.render_us_per_req": self_ns["render"] / n / 1e3,
        "protocol.bytes_per_req": (L["req_bytes"] + session["resp_bytes"]) / n,
        "daemon.classify_us_per_req": ratio(L["handle_classify_ns"], L["handle_classify_reqs"]) / 1e3,
        "daemon.train_us_per_req": ratio(L["handle_train_ns"], L["handle_train_reqs"]) / 1e3,
        "daemon.other_us_per_req": self_ns["daemon"] / n / 1e3,
        "ingest.chunk_us_per_msg": ratio(self_ns["chunk"], L["classify_msgs"]) / 1e3,
        "mbox.parse_us_per_msg": ratio(self_ns["mbox"], L["train_msgs"]) / 1e3,
        "tokenize.us_per_msg": ratio(self_ns["tokenize"], L["msgs_tokenized"]) / 1e3,
        "tokenize.tokens_per_msg": ratio(L["tokens"], L["msgs_tokenized"]),
        "intern.first_sightings": L["first_sightings"],
        "score.us_per_msg": ratio(self_ns["score"], L["msgs_scored"]) / 1e3,
        "prob_cache.fill_ratio": ratio(L["cache_fills"], L["cache_hits"] + L["cache_fills"]),
        "train.us_per_msg": 0.0 if store else ratio(self_ns["train"], L["train_msgs"]) / 1e3,
        "publish.count": pubs,
        "publish.save_ms": ratio(self_ns["save"], pubs) / 1e6,
        "publish.copy_ms": ratio(self_ns["copy"], pubs) / 1e6,
        "publish.freeze_ms": ratio(self_ns["freeze"], pubs) / 1e6,
        "publish.cache_ms": ratio(self_ns["cache"], pubs) / 1e6,
        "publish.bytes": ratio(L["publish_bytes"], pubs),
        "store.materialize_us": ratio(L["materialize_ns"], L["materializations"]) / 1e3,
        "store.hit_ratio": ratio(L["store_hits"], L["store_hits"] + L["store_misses"]),
        "store.evictions": L["store_evictions"],
        "store.journal_us_per_op": ratio(self_ns["store_journal"], L["journal_calls"]) / 1e3,
        "store.journal_bytes_per_op": ratio(L["store_journal_bytes"], L["store_journal_ops"]),
        "store.commit_ms": ratio(self_ns["store_commit"], L["commits"]) / 1e6 if store else 0.0,
        "store.compactions": L["store_compactions"],
        "trace.unaccounted_share": ratio(h_total - below, h_total),
        "trace.overhead_share": ratio(L["mirror_ns"] - L["plain_ns"], L["plain_ns"]),
    }
    return m


# --------------------------------------------------------------------------


def host_line():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return f"host: nproc {os.cpu_count()}, cpu {model}, {platform.system()} {platform.release()}"


def bench_spec():
    """The metric names BENCHMARK.json asks for in the JSON line."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return ({m["name"] for m in spec["end_to_end"]}, {m["name"] for m in spec["per_layer"]})


def run(workload, seed, trace, size):
    errors = []
    state = state_dir(size, seed, workload)
    expect = fresh_dir("expect")
    e2e_names, layer_names = bench_spec()
    print(host_line())
    print(f"workload {workload}, seed {seed}, size {size}, trace {trace}")
    pb("expect", "--state", state, "--workload", workload,
       "--work", fresh_copy(state, workload, "expect-state"), "--out", expect)
    if trace == 0:
        count = SESSIONS[workload] if size == "full" else SMOKE_SESSIONS
        start = time.monotonic()
        sessions = run_sessions(state, workload, count, expect)
        elapsed = time.monotonic() - start
        for s in sessions:
            errors += s["errors"]
        value, per, samples, attempted, failed, cpu_split = end_to_end(sessions)
        if cpu_split:
            errors.append("daemon CPU time is not all on its main thread")
        # Write amplification is a pure function of the schedule.
        if len(set(per["write_kb_per_train_msg"])) > 1:
            errors.append("write_kb_per_train_msg differs between sessions of one schedule")
        print(f"{len(sessions)} sessions in {elapsed:.1f} s.  value: per request and per schedule segment the "
              "fastest session (setup_s: median); n: samples behind it.  "
              "Then each session's own figure: median [q1, q3].")
        for name, unit in END_TO_END.items():
            if name not in value:
                print(f"  {name:24s} n/a (no such requests in this workload)")
                continue
            q = quartiles(per[name])
            n = f"n={samples[name]}" if name in samples else ""
            kept = "" if tail_ok(name, samples.get(name, 0)) else "  (too few samples beyond it)"
            print(f"  {name:24s} {value[name]:12.4f} {unit:6s} {n:7s} | sessions "
                  f"{statistics.median(per[name]):.4f} [{q[0]:.4f}, {q[1]:.4f}]{kept}")
        metrics = {}
        for k in END_TO_END:
            if k not in e2e_names:
                continue
            if k not in value:
                errors.append(f"{k} is not measured on this workload")
                continue
            if size == "full" and not tail_ok(k, samples.get(k, 0)):
                errors.append(f"{k} has fewer than ten samples beyond it")
            metrics[k] = {"value": value[k], "unit": END_TO_END[k]}
        if failed:
            errors.append(f"{failed} of {attempted} requests failed")
    else:
        rounds, tallies = [], []
        while len(rounds) < TRACE_ROUNDS:
            session = traced_session(state, workload, expect)
            errors += session["errors"]
            rounds.append(per_layer(session, workload))
            tallies += session["tally"].values()
            if errors:
                break
        for name in COUNTS:
            if len({r[name] for r in rounds}) > 1:
                errors.append(f"{name} differs between replays of one schedule")
        value = {k: statistics.median(r[k] for r in rounds) for k in PER_LAYER_UNITS}
        # Tiny smoke replays are too short for timing shares to settle.
        if size == "full":
            for name in ("trace.unaccounted_share", "trace.overhead_share"):
                if abs(value[name]) > RECONCILE_TOLERANCE:
                    errors.append(f"{name} {value[name]:.3f} is beyond +-{RECONCILE_TOLERANCE}")
        print(f"{len(rounds)} traced rounds; median [min, max] across rounds")
        for name, unit in PER_LAYER_UNITS.items():
            lo = min(r[name] for r in rounds)
            hi = max(r[name] for r in rounds)
            print(f"  {name:28s} {value[name]:14.4f} {unit:6s} [{lo:.4f}, {hi:.4f}]")
        metrics = {k: {"value": value[k], "unit": PER_LAYER_UNITS[k]}
                   for k in PER_LAYER_UNITS if k in layer_names}
        attempted = sum(t[k] for t in tallies for k in t)
        failed = sum(t[k] for t in tallies for k in ("err", "busy", "transport"))
    for e in errors:
        print(f"  error: {e}")
    return {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10,
                    help="accepted for the benchmark contract; a run is fixed work")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="every workload at smoke size, both modes; nonzero exit on failure")
    args = ap.parse_args()
    if not args.smoke and args.workload is None:
        ap.error("--workload is required")
    try:
        check_checkout()
        build()
        if args.smoke:
            ok = True
            for w in WORKLOADS:
                for trace in (0, 1):
                    r = run(w, args.seed, trace, "smoke")
                    ok = ok and r["correct"]
                    print(json.dumps(r))
            print(json.dumps({"smoke": "ok" if ok else "failed"}))
            return 0 if ok else 1
        result = run(args.workload, args.seed, args.trace, "full")
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as e:
        log(f"perfbench: {e}")
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
