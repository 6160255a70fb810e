#!/usr/bin/env python3
"""Benchmark of verified search over the Slicer server and router.

Run from the root of a checkout:

    python3 perfbench/run.py --workload search-cold --seed 1 --seconds 10 --trace 0

It builds `slicer-server`, `slicer-router` and the load driver
(perfbench/perfbench.ml) with dune, starts the server side as separate
processes with fsync on, lets the data owner (its own process) Build and
ship the index, and sends a seeded, fixed list of operations from one
closed-loop driver process. Every search is checked against the plaintext
oracle, client-side verification and the on-chain settlement; the
settled-search counter must advance exactly once per search sent.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
The last line of standard output is one JSON object. The exit code is
non-zero when a correctness check fails or the run cannot proceed.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.getcwd()
WORK = os.path.join(ROOT, ".perfbench")
BUILD_DIR = os.path.join(ROOT, "_build", "default")
SERVER = os.path.join(BUILD_DIR, "bin", "slicer_server.exe")
ROUTER = os.path.join(BUILD_DIR, "bin", "slicer_router.exe")
DRIVER = os.path.join(BUILD_DIR, "perfbench", "perfbench.exe")

# An untraced run makes `passes` passes, each setting up afresh and then
# sending a fixed list of operations. search-cold sends every candidate
# query of its dataset once (one equality and one order query per record
# and attribute); the Zipf workloads send rate * seconds / passes
# searches, `rate` being what they sustain on a 2-core host, so a run's
# passes together measure for roughly --seconds.
WORKLOADS = {
    "search-cold": dict(
        topology="single", conns=2, width=10, attrs=2, records=56, stream="cold", passes=3,
        inserts=0, tail_inserts=2, insert_batch=2),
    "search-insert": dict(
        topology="single", conns=1, width=8, attrs=1, records=64, stream="zipf", pool=32,
        passes=5, rate=1500, inserts=1, tail_inserts=1, insert_batch=2),
    "search-routed": dict(
        topology="routed", conns=1, width=8, attrs=1, records=64, stream="zipf", pool=32,
        passes=5, rate=700, inserts=0, tail_inserts=2, insert_batch=2),
}
COLD_MIN_FIRST_TOUCH = 0.5
RUN_DEADLINE_S = 170

procs = []              # every process this run started, for cleanup

# Once set up, the users and the server side run on cores of their own,
# as on separate machines: neither takes CPU from the other, and the
# scheduler cannot move them onto one core and back between passes. The
# server side is pinned from its start; the driver (and the owner it
# starts) may use every core until set-up ends, so the owner's Build
# runs on all of them. On a single core everything shares it.
_CPUS = sorted(os.sched_getaffinity(0))
CLIENT_CPUS = {_CPUS[0]}
SERVER_CPUS = {_CPUS[-1]}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def stop_all():
    """SIGTERM every process this run started, then wait for each; kill
    any still running 5 s later."""
    for p in procs:
        if p.poll() is None:
            p.send_signal(signal.SIGTERM)
    deadline = time.monotonic() + 5
    for p in procs:
        try:
            p.wait(timeout=max(0.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            p.kill()
            p.wait()
    procs.clear()


def die(msg, code=1):
    log("perfbench: " + msg)
    stop_all()
    sys.exit(code)


def spawn(cmd, logname, cpus=None, stdin=None):
    errlog = open(os.path.join(WORK, logname + ".log"), "a")
    p = subprocess.Popen(cmd, stdin=stdin, stdout=subprocess.PIPE, stderr=errlog, text=True,
                         cwd=ROOT, preexec_fn=cpus and (lambda: os.sched_setaffinity(0, cpus)))
    errlog.close()
    procs.append(p)
    return p


def pin_tree(pid, cpus):
    """Pin every thread of [pid] and of its descendants (the driver's
    owner); threads they start later inherit the pinning."""
    for tid in os.listdir("/proc/%d/task" % pid):
        os.sched_setaffinity(int(tid), cpus)
        with open("/proc/%d/task/%s/children" % (pid, tid)) as f:
            for child in f.read().split():
                pin_tree(int(child), cpus)


def start_member(cmd, name):
    """Start a server-side process and return (process, "host:port")."""
    p = spawn(cmd, name, SERVER_CPUS)
    for line in p.stdout:
        if line.startswith("listening on "):
            return p, line.split()[-1]
    die("%s exited before listening (see %s/%s.log)" % (name, WORK, name))


def start_topology(cfg, hosted, d):
    """Server side of one pass. Returns (front, stats members, pids,
    probe endpoint, samples files)."""
    samples = []

    def server(i, count):
        state = os.path.join(d, "state%d" % i)
        if hosted:
            samples.append(os.path.join(d, "server%d.samples" % i))
            cmd = [DRIVER, "host", "--kind", "server", "--state-dir", state,
                   "--shard-id", str(i), "--shard-count", str(count), "--samples", samples[-1]]
        else:
            cmd = [SERVER, "--records", "0", "--host", "127.0.0.1", "--port", "0",
                   "--state-dir", state, "--log-level", "error", "--metrics-interval", "0",
                   "--shard-id", str(i), "--shard-count", str(count)]
        return start_member(cmd, "server%d" % i)

    def router(shards, name):
        if hosted:
            samples.append(os.path.join(d, name + ".samples"))
            cmd = [DRIVER, "host", "--kind", "router", "--samples", samples[-1]]
        else:
            cmd = [ROUTER, "--host", "127.0.0.1", "--port", "0", "--log-level", "error"]
        for s in shards:
            cmd += ["--shard", s]
        return start_member(cmd, name)

    if cfg["topology"] == "single":
        p, ep = server(0, 1)
        probe = router([ep], "probe")[1] if hosted else None
        return ep, [ep], [p.pid], probe, samples
    shards = [server(i, 2) for i in range(2)]
    rp, rep = router([ep for _, ep in shards], "router")
    return rep, [ep for _, ep in shards], [p.pid for p, _ in shards] + [rp.pid], None, samples


def run_pass(cfg, seed, hosted, tag):
    """One setup and one measured phase, every process fresh."""
    d = os.path.join(WORK, tag)
    os.makedirs(d)
    t0 = time.monotonic()
    front, members, pids, probe, samples = start_topology(cfg, hosted, d)
    out = os.path.join(d, "drive.json")
    cmd = [DRIVER, "drive", "--endpoint", front, "--seed", str(seed), "--data", cfg["name"],
           "--width", str(cfg["width"]), "--attrs", str(cfg["attrs"]),
           "--records", str(cfg["records"]),
           "--conns", str(cfg["conns"]), "--stream", cfg["stream"],
           "--searches", str(cfg["searches"]), "--pool", str(cfg.get("pool", 0)),
           "--inserts", str(cfg["inserts"]),
           "--insert-batch", str(cfg["insert_batch"]),
           "--tail-inserts", str(cfg["tail_inserts"]), "--out", out]
    for m in members:
        cmd += ["--member", m]
    for pid in pids:
        cmd += ["--pid", str(pid)]
    if probe:
        cmd += ["--probe", probe]
    drv = spawn(cmd, "drive", stdin=subprocess.PIPE)
    if drv.stdout.readline().strip() != "ready":
        drv.wait()
        die("driver failed during setup (see %s/drive.log)" % WORK)
    setup_s = time.monotonic() - t0
    pin_tree(drv.pid, CLIENT_CPUS)
    drv.stdin.write("go\n")
    drv.stdin.close()
    drv.wait()
    if drv.returncode != 0:
        die("driver failed (see %s/drive.log)" % WORK)
    rss_kb = 0
    for pid in pids:
        with open("/proc/%d/status" % pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    rss_kb += int(line.split()[1])
    stop_all()
    with open(out) as f:
        res = json.load(f)
    res["setup_s"] = setup_s
    res["rss_mb"] = rss_kb / 1024.0
    res["stats"] = {
        tag2: [read_prom("%s.%s.%d.prom" % (out, tag2, i)) for i in range(len(members))]
        for tag2 in ("before", "after")}
    res["samples"] = [read_samples(s) for s in samples]
    return res


def read_prom(path):
    """Prometheus text exposition -> {name: value}, summed over label sets,
    histogram buckets skipped."""
    vals = {}
    with open(path) as f:
        for line in f:
            if not line.strip() or line.startswith("#") or "_bucket" in line:
                continue
            key, value = line.rsplit(" ", 1)
            name = key.split("{", 1)[0]
            vals[name] = vals.get(name, 0.0) + float(value)
    return vals


def read_samples(path):
    """A timed host's dispatch log -> {(kind, request id): seconds}."""
    out = {}
    with open(path) as f:
        for line in f:
            kind, rid, ns = line.split()
            out[(kind, rid)] = int(ns) / 1e9
    return out


def delta(res, name):
    return sum(a.get(name, 0.0) - b.get(name, 0.0)
               for b, a in zip(res["stats"]["before"], res["stats"]["after"]))


def ratio(a, b):
    return a / b if b else 0.0


def quantile(xs, q):
    s = sorted(xs)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


# drive.json search rows: [id, lat, gen, rpc, verify, decrypt, tokens,
# results, gas, vo, parts, err], times in ns
ID, LAT, GEN, RPC, VERIFY, DECRYPT, TOKENS, RESULTS, GAS, VO, PARTS, ERR = range(12)


def ms_col(rows, col):
    return [r[col] / 1e6 for r in rows]


def search_ops(res):
    """Searches per second of search time: Insert pauses excluded."""
    return len(res["searches"]) / ((res["phase_ns"] - res["paused_ns"]) / 1e9)


def end_to_end(passes):
    """End-to-end metrics of a run: timings are the median over its
    passes, so one pass caught in a slow spell of the host does not move
    them; counts are pooled."""
    def per_pass(f):
        return statistics.median(f(res) for res in passes)

    s = [r for res in passes for r in res["searches"]]
    n = len(s)
    lat = ms_col(s, LAT)
    p99 = quantile(lat, 0.99)
    return {
        "setup_s": (per_pass(lambda res: res["setup_s"]), "s"),
        "search_ops": (per_pass(search_ops), "1/s"),
        "search_p50_ms": (per_pass(lambda res: quantile(ms_col(res["searches"], LAT), 0.5)),
                          "ms"),
        "search_p95_ms": (per_pass(lambda res: quantile(ms_col(res["searches"], LAT), 0.95)),
                          "ms"),
        # Every pass ships the same Inserts, which differ in cost from
        # one another: a pooled median would sit between them and jump.
        "insert_p50_ms": (per_pass(
            lambda res: quantile([i[1] / 1e6 for i in res["inserts"]], 0.5)), "ms"),
        "gas_per_search": (sum(r[GAS] for r in s) / n, "gas"),
        "vo_bytes_per_search": (sum(r[VO] for r in s) / n, "bytes"),
        "server_cpu_ms_per_search": (per_pass(
            lambda res: (sum(res["cpu_after"]) - sum(res["cpu_before"]) - res["paused_ticks"])
            * 1000.0
            / os.sysconf("SC_CLK_TCK") / len(res["searches"])), "ms"),
        "server_rss_mb": (per_pass(lambda res: res["rss_mb"]), "MB"),
    }, {"search_p99_ms": p99, "beyond_p99": sum(1 for x in lat if x > p99), "samples": n}


def steal_pct(passes):
    d = [0] * 8
    for res in passes:
        before, after = res["host_before"], res["host_after"]
        d = [x + a - b for x, a, b in zip(d, after[:8], before[:8])]
    return 100.0 * ratio(d[7], sum(d))


def per_layer(cfg, res, untraced_ops):
    s = res["searches"]
    n = len(s)
    routed = cfg["topology"] == "routed"
    merged = {}
    for smp in res["samples"]:
        merged.update(smp)
    # A router's sub-request to shard i carries the id "<id>/s<i>".
    subs = {}
    for (kind, rid), v in merged.items():
        if kind == "search" and "/s" in rid:
            subs.setdefault(rid.rsplit("/s", 1)[0], []).append(v)
    # The searches that went through a router: the workload's own
    # (routed) or the probe's.
    routed_rows = s if routed else res["probe"]

    def shard_times(rid):
        return subs.get(rid, [])

    service = []
    net = []
    for r in s:
        front = merged.get(("search", r[ID]))
        if routed:
            service += shard_times(r[ID])
        elif front is not None:
            service.append(front)
        if front is not None:
            net.append(r[RPC] / 1e9 - front)
    router, router_over = [], []
    for r in routed_rows:
        t = merged.get(("search", r[ID]))
        shards = shard_times(r[ID])
        if t is not None and shards:
            router.append(t)
            router_over.append(t - max(shards))
    service_inserts = [v for (k, rid), v in merged.items() if k == "insert" and "/s" in rid] \
        if routed else [v for (k, _), v in merged.items() if k == "insert"]
    tokens = sum(r[TOKENS] for r in s)
    ops = n + sum(1 for i in res["inserts"] if i[2])
    ch0, cm0, ch1, cm1 = res["client_prime"]
    hits = lambda name: delta(res, "slicer_%s_hits_total" % name)
    misses = lambda name: delta(res, "slicer_%s_misses_total" % name)
    hit_ratio = lambda name: ratio(hits(name), hits(name) + misses(name))
    mean_ms = lambda name: 1000.0 * ratio(delta(res, name + "_seconds_sum"),
                                          delta(res, name + "_seconds_count"))
    p50_ms = lambda xs: 1000.0 * quantile(xs, 0.5) if xs else 0.0
    m = {
        "user.gen_tokens_ms": (quantile(ms_col(s, GEN), 0.5), "ms"),
        "user.decrypt_ms": (quantile(ms_col(s, DECRYPT), 0.5), "ms"),
        "tokens_per_search": (tokens / n, "count"),
        "results_per_search": (sum(r[RESULTS] for r in s) / n, "count"),
        "verifier.verify_ms": (quantile(ms_col(s, VERIFY), 0.5), "ms"),
        "client.prime_hit_ratio": (ratio(ch1 - ch0, ch1 - ch0 + cm1 - cm0), "ratio"),
        "client.rpc_ms": (quantile(ms_col(s, RPC), 0.5), "ms"),
        "net.overhead_ms": (p50_ms(net), "ms"),
        "service.handle_ms": (p50_ms(service), "ms"),
        "service.queued_per_search": (
            delta(res, "slicer_net_worker_queue_depth_sum") / n, "count"),
        "service.insert_ms": (p50_ms(service_inserts), "ms"),
        "cloud.search_ms": (mean_ms("slicer_cloud_search"), "ms"),
        "cloud.claim_hit_ratio": (hit_ratio("cloud_claim_cache"), "ratio"),
        "acc.prime_hit_ratio": (hit_ratio("acc_prime_cache"), "ratio"),
        "acc.verify_hit_ratio": (hit_ratio("acc_verify_cache"), "ratio"),
        "witness.hit_ratio": (hit_ratio("witness_index"), "ratio"),
        "witness.refreshes_per_search": (
            delta(res, "slicer_witness_index_refreshes_total") / n, "count"),
        "chain.gas_per_token": (
            ratio(delta(res, "slicer_chain_settle_gas_sum"), tokens), "gas"),
        "wal.append_ms": (mean_ms("slicer_store_wal_append"), "ms"),
        "wal.fsync_ms": (mean_ms("slicer_store_wal_fsync"), "ms"),
        "wal.bytes_per_op": (delta(res, "slicer_store_wal_bytes_total") / ops, "bytes"),
        "wal.fsyncs_per_op": (delta(res, "slicer_store_wal_fsync_seconds_count") / ops, "count"),
        "router.handle_ms": (p50_ms(router), "ms"),
        "router.overhead_ms": (p50_ms(router_over), "ms"),
        "router.shards_per_search": (
            ratio(sum(r[PARTS] for r in routed_rows), len(routed_rows)), "count"),
        "owner.build_s": (res["build_ns"] / 1e9, "s"),
        "owner.insert_ms": (quantile([i[0] / 1e6 for i in res["inserts"]], 0.5), "ms"),
        "host.steal_pct": (steal_pct([res]), "%"),
        "bench.trace_overhead": (ratio(search_ops(res), untraced_ops), "ratio"),
    }
    return m


def check(cfg, res):
    """Correctness of one measured pass: a list of failures (empty = ok)."""
    errs = []
    bad = [r for r in res["searches"] + res["probe"] if r[ERR]]
    for r in bad[:5]:
        errs.append("search %s: %s" % (r[ID], r[ERR]))
    expect = sum(r[PARTS] for r in res["searches"])
    settled = delta(res, "slicer_net_searches_settled_total")
    if settled != expect:
        errs.append("settled-search counter advanced by %d, expected %d (exactly once per "
                    "search and shard); %d idempotent replays" % (
                        settled, expect, delta(res, "slicer_net_idempotent_replays_total")))
    want_inserts = cfg["tail_inserts"] + cfg["inserts"]
    if len(res["inserts"]) != want_inserts:
        errs.append("%d inserts accepted, expected %d" % (len(res["inserts"]), want_inserts))
    if cfg["stream"] == "cold":
        tokens = sum(r[TOKENS] for r in res["searches"])
        first = ratio(delta(res, "slicer_acc_prime_cache_misses_total"), tokens)
        log("cold check: server prime misses per token sent %.3f (need >= %.2f)"
            % (first, COLD_MIN_FIRST_TOUCH))
        if first < COLD_MIN_FIRST_TOUCH:
            errs.append("search-cold traffic was not mostly first touches: %.3f prime misses "
                        "per token" % first)
    return errs, len(bad)


def git_rev():
    try:
        return subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        h = hashlib.sha256()
        for top in ("lib", "bin", "perfbench"):
            for dirpath, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
                dirs.sort()
                for name in sorted(files):
                    with open(os.path.join(dirpath, name), "rb") as f:
                        h.update(name.encode() + f.read())
        return "src-" + h.hexdigest()[:12]


def build():
    for need in ("dune-project", "bin/slicer_server.ml", "bin/slicer_router.ml", "lib"):
        if not os.path.exists(os.path.join(ROOT, need)):
            die("run from the root of a Slicer checkout: %s is missing" % need, 2)
    # The shared dune cache lives outside the checkout: keep it off.
    r = subprocess.run(["dune", "build", "--root", ".", "--cache=disabled",
                        "./bin/slicer_server.exe", "./bin/slicer_router.exe",
                        "./perfbench/perfbench.exe"],
                       cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr, timeout=880)
    if r.returncode != 0:
        die("build failed", 3)


def emit(metrics, correct, attempted, failed):
    for name, (value, unit) in metrics.items():
        print("%-28s %14.4f %s" % (name, value, unit))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))


def budget(m, client_p50, routed):
    print("per-layer budget (p50 of each layer, share of the client p50 %.3f ms):" % client_p50)
    parts = ["user.gen_tokens_ms", "client.rpc_ms", "verifier.verify_ms", "user.decrypt_ms"]
    inner = ["service.handle_ms", "net.overhead_ms", "cloud.search_ms", "wal.append_ms",
             "wal.fsync_ms"]
    router = ["router.handle_ms", "router.overhead_ms"]
    for name in parts + inner + router:
        v = m[name][0]
        note = ("" if name in parts else
                "  (within client.rpc)" if routed or name in inner else "  (one-shard probe)")
        print("  %-22s %9.3f ms %6.1f%%%s" % (name, v, 100 * ratio(v, client_p50), note))
    covered = sum(m[k][0] for k in parts)
    print("  layers cover %.1f%% of the client p50" % (100 * ratio(covered, client_p50)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    cfg = dict(WORKLOADS[a.workload], name=a.workload)
    build()
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    watchdog = threading.Timer(RUN_DEADLINE_S, lambda: (log("perfbench: deadline"),
                                                       stop_all(), os._exit(4)))
    watchdog.daemon = True
    watchdog.start()
    cfg["searches"] = max(20, int(round(cfg.get("rate", 0) * a.seconds / cfg["passes"])))
    print("workload %s seed %d, %d passes, rev %s, nproc %d" % (
        a.workload, a.seed, cfg["passes"], git_rev(), os.cpu_count()))
    if a.trace == 0:
        passes = [run_pass(cfg, "%d.%d" % (a.seed, i), False, "pass%d" % i)
                  for i in range(cfg["passes"])]
        metrics, extra = end_to_end(passes)
        for i, res in enumerate(passes):
            lat = ms_col(res["searches"], LAT)
            print("pass %d: setup %.3f s, %.1f searches/s, p50 %.3f ms, p95 %.3f ms, steal %.2f%%"
                  % (i, res["setup_s"], search_ops(res), quantile(lat, 0.5),
                     quantile(lat, 0.95), steal_pct([res])))
        print("search p99 %.3f ms with %d of %d samples beyond it; setups %s s; steal %.2f%%"
              % (extra["search_p99_ms"], extra["beyond_p99"], extra["samples"],
                 " ".join("%.3f" % res["setup_s"] for res in passes), steal_pct(passes)))
    else:
        plain = run_pass(cfg, "%d.0" % a.seed, False, "untraced")
        res = run_pass(cfg, "%d.0" % a.seed, True, "traced")
        passes = [plain, res]
        untraced_ops = search_ops(plain)
        metrics = per_layer(cfg, res, untraced_ops)
        budget(metrics, quantile(ms_col(res["searches"], LAT), 0.5),
               cfg["topology"] == "routed")
        if cfg["inserts"]:
            print("memo retirement: %d inserts in the measured phase, %d cloud claim misses, "
                  "%d witness refreshes" % (
                      sum(1 for i in res["inserts"] if i[2]),
                      delta(res, "slicer_cloud_claim_cache_misses_total"),
                      delta(res, "slicer_witness_index_refreshes_total")))
    errs, failed = [], 0
    attempted = 0
    for p in passes:
        e, f = check(cfg, p)
        errs += e
        failed += f
        attempted += len(p["searches"]) + len(p["probe"]) + len(p["inserts"])
    for e in errs:
        log("CHECK FAILED: " + e)
    print("fail_ratio %.6f (%d of %d operations)" % (ratio(failed, attempted), failed, attempted))
    emit(metrics, not errs, attempted, failed)
    watchdog.cancel()
    sys.exit(1 if errs else 0)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        main()
    finally:
        stop_all()
