#!/usr/bin/env python3
"""The repository benchmark: one command for the report, fuzz and serve
workloads.

    python3 perfbench/run.py --workload report|fuzz|serve|all \
        [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout. It builds the shipped binaries
(`fpa-report`, `fpa-fuzz`, `fpa-serve`) and the `perfbench` helper with
cargo into `$CARGO_TARGET_DIR` (default `.bench_build`), runs a fixed
amount of the workload sized from `--seconds`, checks every output, and
prints one JSON
object as the last line of stdout: `correct`, `attempted`, `failed` and
`metrics` (the end-to-end metrics of BENCHMARK.json with `--trace 0`,
the per-layer metrics with `--trace 1`). End-to-end numbers come from
the shipped binaries timed from outside; the traced run rebuilds the
workload from the layers' public calls in `perfbench`, checks that it
produced the same outputs, and reports the difference in wall time as
the tracing overhead. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
EXPECTED = BENCH / "expected"
OUT = BENCH / "out"
WORKLOADS = ("report", "fuzz", "serve")
# Simulation cells behind one `fpa-report all`: ten per integer workload
# for the figure matrix, three per workload for the optimality gap, and
# five per floating-point program.
REPORT_CELLS = 8 * 10 + 8 * 3 + 2 * 5
FUZZ_CASES = 64  # cases per campaign pass
# A run's work is fixed by `--seconds`, not by the clock, so a faster or
# slower build measures the same work as its parent: report runs,
# campaigns and requests per run are sized so that a run, checks
# included, takes about `--seconds` on a quiet 2-vCPU host.
REPORT_PASS_S = 6.5  # one `fpa-report all --jobs 1`
FUZZ_CAMPAIGN_S = 1.6  # one 64-case campaign
SERVE_RPS = 2000  # requests per second of `--seconds`
STEP_TIMEOUT = 170


def log(*a):
    print(*a, file=sys.stderr, flush=True)


def fail(msg, code=1):
    log(f"perfbench: {msg}")
    sys.exit(code)


def spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def host_sample():
    """Steal and idle ticks from /proc/stat, and /proc/loadavg."""
    with open("/proc/stat") as f:
        cpu = f.readline().split()
    with open("/proc/loadavg") as f:
        load = f.read().split()[:3]
    return {"idle": int(cpu[4]), "steal": int(cpu[8]) if len(cpu) > 8 else 0,
            "loadavg": [float(x) for x in load]}


def host_noise(before, after):
    return {"idle_ticks": after["idle"] - before["idle"],
            "steal_ticks": after["steal"] - before["steal"],
            "loadavg_before": before["loadavg"], "loadavg_after": after["loadavg"]}


def target_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve()


def build():
    """Builds the shipped binaries and the helper; returns their paths."""
    if not (Path("Cargo.toml").is_file() and Path("crates").is_dir()):
        fail("run from the root of a repository checkout (no Cargo.toml/crates here)", 2)
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    for cmd in (["cargo", "build", "--release", "--offline", "-q",
                 "--bin", "fpa-report", "--bin", "fpa-fuzz", "--bin", "fpa-serve"],
                ["cargo", "build", "--release", "--offline", "-q",
                 "--manifest-path", str(BENCH / "Cargo.toml")]):
        r = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=880)
        if r.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")
    rel = target_dir() / "release"
    return {b: str(rel / b) for b in ("fpa-report", "fpa-fuzz", "fpa-serve", "perfbench")}


def timed(cmd):
    """Runs `cmd` to completion, output discarded: (wall seconds, exit code)."""
    t0 = time.perf_counter()
    code = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                          timeout=STEP_TIMEOUT).returncode
    return time.perf_counter() - t0, code


def run_measured(cmd):
    """Like `timed`, but reaps the child with wait4 to get its own peak
    RSS (ru_maxrss, KiB on Linux)."""
    t0 = time.perf_counter()
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE)
    watchdog = threading.Timer(STEP_TIMEOUT, p.kill)
    watchdog.start()
    out = p.stdout.read()
    p.stdout.close()
    _, status, ru = os.wait4(p.pid, 0)
    wall = time.perf_counter() - t0
    watchdog.cancel()
    p.returncode = os.waitstatus_to_exitcode(status)
    return wall, p.returncode, out, ru.ru_maxrss / 1024.0


def helper(bins, *args):
    """Runs a `perfbench` subcommand and parses its JSON line."""
    r = subprocess.run([bins["perfbench"], *args], stdout=subprocess.PIPE,
                       timeout=STEP_TIMEOUT)
    if r.returncode != 0:
        return None
    return json.loads(r.stdout.decode().strip().splitlines()[-1])


def percentile(sorted_values, p):
    """Nearest-rank percentile; with fewer than 1/(1-p) samples this is
    the maximum."""
    rank = min(len(sorted_values), max(1, math.ceil(p * len(sorted_values))))
    return sorted_values[rank - 1]


def setup_samples(cmd, repeats):
    """Set-up of a workload with no state to prepare: an untimed start of
    its binary on the smallest input, `repeats` times; returns the
    seconds each took."""
    times = []
    for _ in range(repeats):
        wall, code = timed(cmd)
        if code != 0:
            fail(f"set-up command failed: {' '.join(cmd)}")
        times.append(wall)
    return times


def passes(seconds, pass_s):
    return max(1, round(seconds / pass_s))


def pass_loop(res, items, run_passes, setup_cmd, setup_repeats, quality):
    """Runs every pass of `run_passes` (callables). The set-up samples are
    taken before every pass and after the last, so their median spans the
    whole run."""
    setups, walls, rss = [], [], []
    for run_pass in run_passes:
        setups += setup_samples(setup_cmd, setup_repeats)
        wall, ok, r = run_pass()
        res.add(items, ok)
        if ok:
            walls.append(wall)
        rss.append(r)
    setups += setup_samples(setup_cmd, setup_repeats)
    res.e2e(walls, items, quality(), statistics.median(setups), statistics.median(rss))


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def check_counts(layers, expected, label):
    """Exact counters must repeat run to run: compare with the checked-in
    values."""
    bad = {k: (layers.get(k), v) for k, v in expected.items() if layers.get(k) != v}
    if bad:
        log(f"perfbench: {label}: exact counters differ from the checked-in values: {bad}")
    return not bad


# ---- report ------------------------------------------------------------

def report_pass(bins, expected):
    wall, code, out, rss = run_measured([bins["fpa-report"], "all", "--jobs", "1"])
    ok = code == 0 and out == expected
    if not ok:
        log("perfbench: fpa-report stdout differs from perfbench/expected/report.stdout")
    return wall, ok, rss


def workload_report(bins, args, res):
    expected = (EXPECTED / "report.stdout").read_bytes()
    if args.trace:
        wall, ok, _ = report_pass(bins, expected)
        res.add(REPORT_CELLS, ok)
        layers = helper(bins, "trace-report", "--expected", str(EXPECTED / "report.stdout"),
                        "--trace", str(res.trace_dir))
        res.add(REPORT_CELLS, layers is not None)
        if layers is None:
            return
        counts = json.loads((EXPECTED / "report_counters.json").read_text())
        res.correct &= check_counts(layers, counts, "report")
        res.layers(layers, layers["trace.traced_wall_s"] - wall)
        return
    pass_loop(res, REPORT_CELLS,
              [lambda: report_pass(bins, expected)] * passes(args.seconds, REPORT_PASS_S),
              [bins["fpa-report"], "table1"], 9,
              lambda: helper(bins, "quality", "--set", "report"))


# ---- fuzz --------------------------------------------------------------

def fuzz_pass(bins, campaign, path):
    cmd = [bins["fpa-fuzz"], "--cases", str(FUZZ_CASES), "--seed", str(campaign["seed"]),
           "--jobs", "1", "--no-corpus", "--json", str(path)]
    wall, code, _, rss = run_measured(cmd)
    data = path.read_bytes() if path.exists() else b""
    ok = code == 0 and sha256(data) == campaign["sha256"]
    if not ok:
        log(f"perfbench: campaign seed {campaign['seed']}: report differs from the expected digest")
    return wall, ok, rss


def workload_fuzz(bins, args, res):
    expected = json.loads((EXPECTED / "fuzz_campaigns.json").read_text())
    if expected["cases"] != FUZZ_CASES:
        fail("expected/fuzz_campaigns.json was made for another case count")
    pool = expected["campaigns"]
    report = OUT / f"fuzz-{os.getpid()}.json"
    if args.trace:
        campaign = pool[args.seed % len(pool)]
        wall, ok, _ = fuzz_pass(bins, campaign, report)
        res.add(FUZZ_CASES, ok)
        layers = helper(bins, "trace-fuzz", "--expected", str(report),
                        "--trace", str(res.trace_dir))
        res.add(FUZZ_CASES, layers is not None)
        report.unlink(missing_ok=True)
        if layers is None:
            return
        res.correct &= check_counts(layers, campaign["counters"], "fuzz")
        res.layers(layers, layers["trace.traced_wall_s"] - wall)
        return
    # The run's campaigns are fixed by the seed: the next k pool
    # campaigns from pool[seed mod 16].
    k = min(len(pool), passes(args.seconds, FUZZ_CAMPAIGN_S))
    campaigns = [pool[(args.seed + i) % len(pool)] for i in range(k)]
    pass_loop(res, FUZZ_CASES,
              [lambda c=c: fuzz_pass(bins, c, report) for c in campaigns],
              [bins["fpa-fuzz"], "--cases", "1", "--seed", str(pool[0]["seed"]),
               "--jobs", "1", "--no-corpus"], 2,
              lambda: helper(bins, "quality", "--set", "corpus"))
    report.unlink(missing_ok=True)


# ---- serve -------------------------------------------------------------

class Daemon:
    """The shipped fpa-serve on an OS-assigned port."""

    def __init__(self, bins, store):
        self.p = subprocess.Popen([bins["fpa-serve"], "--addr", "127.0.0.1:0",
                                   "--workers", "2", "--store", str(store)],
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        line = self.p.stderr.readline()
        if "listening on" not in line:
            self.stop()
            fail(f"fpa-serve did not start: {line.strip()}")
        self.addr = line.strip().rsplit(" ", 1)[1]

    def peak_rss_mb(self):
        with open(f"/proc/{self.p.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self):
        if self.p.poll() is None:
            self.p.terminate()
        self.p.wait(timeout=30)
        self.p.stderr.close()


def serve_setup(bins, work):
    """Store pre-fill with the corpus plus daemon start: the serve
    set-up. Returns (seconds, daemon, store directory)."""
    store = work / "daemon-store"
    shutil.rmtree(store, ignore_errors=True)
    t0 = time.perf_counter()
    if helper(bins, "prefill", "--store", str(store)) is None:
        fail("store pre-fill failed")
    daemon = Daemon(bins, store)
    return time.perf_counter() - t0, daemon, store


def workload_serve(bins, args, res):
    work = OUT / f"serve-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    daemon = None
    try:
        setups = []
        for _ in range(1 if args.trace else 3):
            if daemon is not None:
                daemon.stop()
            secs, daemon, store = serve_setup(bins, work)
            setups.append(secs)
        # The daemon has only read the store so far: copy it for the
        # in-process checks before the window writes misses to it.
        for name in ("verify-store", "replay-store") if args.trace else ("verify-store",):
            shutil.copytree(store, work / name)
        # A fixed stream prefix, so both sides of a comparison serve the
        # same misses and the daemon's memory tier holds the same programs.
        requests = max(1, round(args.seconds * SERVE_RPS))
        cmd = ["load", "--addr", daemon.addr, "--seed", str(args.seed),
               "--requests", str(requests), "--verify-store", str(work / "verify-store")]
        if args.trace:
            cmd += ["--trace", str(res.trace_dir), "--replay-store", str(work / "replay-store")]
        out = helper(bins, *cmd)
        rss = daemon.peak_rss_mb()
        daemon.stop()
        daemon = None
        if out is None:
            res.add(1, False)
            return
        res.attempted += out["requests"]
        res.failed += out["failed"]
        res.correct &= out["failed"] == 0 and out["store_exact"]
        if not out["store_exact"]:
            log(f"perfbench: daemon store counts {out['daemon_store']} differ from the "
                f"served set (mem {out['mem_hits']}, disk {out['disk_hits']}, miss {out['misses']})")
        res.details["serve"] = {k: v for k, v in out.items() if k != "layers"}
        if args.trace:
            layers = out["layers"]
            res.layers(layers, layers["trace.traced_wall_s"] - layers["serve.replay_respond_s"])
            return
        if out["beyond_p99"] < 10:
            log("perfbench: fewer than 10 samples beyond p99")
            res.correct = False
        quality = helper(bins, "quality", "--set", "corpus")
        res.metrics.update({
            "items_per_s": out["rps"],
            "latency_p50_ms": out["p50_ms"],
            "latency_p99_ms": out["p99_ms"],
        })
        res.e2e_common(quality, statistics.median(setups), rss)
    finally:
        if daemon is not None:
            daemon.stop()
        shutil.rmtree(work, ignore_errors=True)


# ---- results -----------------------------------------------------------

class Result:
    def __init__(self, args, bench):
        self.args = args
        self.bench = bench
        self.correct = True
        self.attempted = 0
        self.failed = 0
        self.metrics = {}
        self.details = {}
        self.trace_dir = OUT / f"trace-{args.workload}-s{args.seed}"

    def add(self, n, ok):
        self.attempted += n
        if not ok:
            self.failed += n
            self.correct = False

    def e2e_common(self, quality, setup, rss):
        if quality is None:
            self.correct = False
            quality = {"gen_cycles": 0, "gen_static_insts": 0}
        self.metrics.update({
            "gen_cycles": quality["gen_cycles"],
            "gen_static_insts": quality["gen_static_insts"],
            "setup_s": setup,
            "peak_rss_mb": rss,
        })

    def e2e(self, walls, items, quality, setup, rss):
        """Pass-based workloads: one operation is one run of the binary,
        and each statistic is taken over the run's passes."""
        if not walls:
            self.correct = False
            walls = [float("inf")]
        walls.sort()
        self.details["pass_walls_s"] = walls
        self.metrics.update({
            "items_per_s": statistics.median(items / w for w in walls),
            "latency_p50_ms": statistics.median(walls) * 1e3,
            "latency_p99_ms": percentile(walls, 0.99) * 1e3,
        })
        self.e2e_common(quality, setup, rss)

    def layers(self, layers, overhead_s):
        if layers.get("lint.findings", 0) != 0:
            log("perfbench: lint findings in the traced run")
            self.correct = False
        layers = dict(layers)
        layers.pop("trace.traced_wall_s", None)
        layers.pop("serve.replay_respond_s", None)
        layers["trace.overhead_s"] = overhead_s
        self.metrics = layers

    def emit(self):
        kind = "per_layer" if self.args.trace else "end_to_end"
        wanted = {m["name"]: m["unit"] for m in self.bench[kind]}
        if set(self.metrics) != set(wanted):
            log(f"perfbench: metric set mismatch: missing {sorted(set(wanted) - set(self.metrics))}, "
                f"extra {sorted(set(self.metrics) - set(wanted))}")
            self.correct = False
        metrics = {}
        for k, u in wanted.items():
            value = self.metrics.get(k, 0)
            if value is None or not math.isfinite(value):
                # Only failed operations produce these; JSON has no infinity.
                value = 0.0
                self.correct = False
            metrics[k] = {"value": value, "unit": u}
        for k, m in metrics.items():
            log(f"  {self.args.workload:6} {k:28} {m['value']:>16.6g} {m['unit']}")
        log(f"  {self.args.workload:6} attempted {self.attempted}, failed {self.failed}, "
            f"correct {self.correct}")
        return {"correct": self.correct, "attempted": max(self.attempted, 1),
                "failed": self.failed, "metrics": metrics}


def run_all(args):
    """Every workload, each in its own process."""
    results = {}
    for w in WORKLOADS:
        r = subprocess.run([sys.executable, __file__, "--workload", w, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", str(args.trace)],
                           stdout=subprocess.PIPE, text=True)
        lines = r.stdout.strip().splitlines()
        results[w] = json.loads(lines[-1]) if r.returncode in (0, 1) and lines else None
    print(json.dumps(results))
    return 0 if all(v and v["correct"] for v in results.values()) else 1


def main():
    bench = spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload == "all":
        return run_all(args)
    bins = build()
    OUT.mkdir(exist_ok=True)
    res = Result(args, bench)
    before = host_sample()
    {"report": workload_report, "fuzz": workload_fuzz, "serve": workload_serve}[args.workload](
        bins, args, res)
    noise = host_noise(before, host_sample())
    log(f"  host: {noise}")
    out = res.emit()
    record = dict(out, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, host=noise, details=res.details)
    (OUT / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
