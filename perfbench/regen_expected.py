#!/usr/bin/env python3
"""Regenerates perfbench/expected/ from the current build.

    python3 perfbench/regen_expected.py

Run it from the root of a checkout, and only in a change that means to
alter the outputs the benchmark checks (the `fpa-report all` stdout, the
campaign reports, or the exact counters); review the diff it leaves.
"""

import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

# Exact counters the traced runs must repeat.
COUNTERS = ["ir.interp_insts", "codegen.static_insts", "sim.cycles", "sim.retired",
            "sim.cells", "lint.binaries", "lint.findings"]
CAMPAIGN_SEEDS = range(1, 17)


def main():
    bins = run.build()
    run.OUT.mkdir(exist_ok=True)
    run.EXPECTED.mkdir(exist_ok=True)
    trace = run.OUT / "regen-trace"

    stdout = subprocess.run([bins["fpa-report"], "all", "--jobs", "1"], check=True,
                            stdout=subprocess.PIPE).stdout
    (run.EXPECTED / "report.stdout").write_bytes(stdout)
    layers = run.helper(bins, "trace-report", "--expected", str(run.EXPECTED / "report.stdout"),
                        "--trace", str(trace))
    if layers is None:
        run.fail("traced report failed")
    (run.EXPECTED / "report_counters.json").write_text(
        json.dumps({k: layers[k] for k in COUNTERS}, indent=1) + "\n")

    campaigns = []
    for seed in CAMPAIGN_SEEDS:
        path = run.OUT / f"regen-fuzz-{seed}.json"
        subprocess.run([bins["fpa-fuzz"], "--cases", str(run.FUZZ_CASES), "--seed", str(seed),
                        "--jobs", "1", "--no-corpus", "--json", str(path)],
                       check=True, stdout=subprocess.DEVNULL)
        data = path.read_bytes()
        if json.loads(data)["failures"]:
            run.fail(f"campaign seed {seed} has failures; the benchmark needs clean campaigns")
        layers = run.helper(bins, "trace-fuzz", "--expected", str(path), "--trace", str(trace))
        if layers is None:
            run.fail(f"traced campaign seed {seed} failed")
        path.unlink()
        counters = {k: layers[k] for k in COUNTERS + ["fuzz.features"]}
        campaigns.append({"seed": seed, "sha256": run.sha256(data), "counters": counters})
        run.log(f"campaign {seed}: {counters}")
    (run.EXPECTED / "fuzz_campaigns.json").write_text(
        json.dumps({"cases": run.FUZZ_CASES, "campaigns": campaigns}, indent=1) + "\n")


if __name__ == "__main__":
    main()
