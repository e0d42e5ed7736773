"""Self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

1. Every workload runs briefly untraced and traced; each run must print
   every metric BENCHMARK.json names for its mode, with that unit, and
   report no failed operation.
2. Every workload's check must reject a deliberately wrong output.
3. In a directory holding only BENCHMARK.json and perfbench/, the benchmark
   must exit non-zero without printing a result.

Exits 0 when all of these hold and 1 otherwise, naming what failed.
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

SECONDS = 0.2


def corrupt(out):
    """A plausible but wrong version of a workload output."""
    import flexcat as fc

    if isinstance(out, fc.FlexcatError):
        return 0.5  # malformed input accepted
    if isinstance(out, bool):
        return not out
    if isinstance(out, float):
        return out + 0.01
    if isinstance(out, fc.ViolationReport):
        return fc.ViolationReport(out.indices | {99}, out.m, 99)
    if isinstance(out, fc.OptResult):
        return dataclasses.replace(out, value=out.value + 0.01)
    if isinstance(out, fc.LandscapeGrid):
        return fc.LandscapeGrid(out.spec, 1.0 - out.values, out.kind)
    if isinstance(out, subprocess.CompletedProcess):
        return subprocess.CompletedProcess(out.args, out.returncode, "0.123456\n", out.stderr)
    raise TypeError(f"no corruption for {type(out).__name__}")


def check_metrics(name: str, trace_on: bool, spec: dict) -> list[str]:
    result, details = run.measure(name, 1, SECONDS, trace_on, setup_runs=1)
    wanted = spec["per_layer" if trace_on else "end_to_end"]
    got = result["metrics"]
    errors = []
    if set(got) != {m["name"] for m in wanted}:
        errors.append(f"{name} trace={int(trace_on)}: metrics {sorted(got)}")
    for m in wanted:
        entry = got.get(m["name"])
        if entry is not None and entry["unit"] != m["unit"]:
            errors.append(f"{name}: {m['name']} in {entry['unit']}, expected {m['unit']}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        errors.append(f"{name} trace={int(trace_on)}: {details['problems']}")
    return errors


def check_rejects_wrong(name: str, workdir: str) -> list[str]:
    import workloads

    wl = workloads.WORKLOADS[name](workdir, str(run.ROOT))
    rng = random.Random(7)
    reqs = [wl.request(rng) for _ in range(max(wl.block, wl.trace_pass))]
    errors = []
    for req in reqs:
        try:
            out = wl.execute(req)
        except Exception as exc:
            out = exc
        if wl.check(req, out) is not None:
            errors.append(f"{name}: a correct output was rejected")
        if name == "landscape.export":
            # the output is the exported file; flip every cell in it
            csv = Path(wl.paths(req["stem"])[0])
            header, *rows = csv.read_text().splitlines()
            flip = {"0.000000": "1.000000", "1.000000": "0.000000"}
            rows = [r[:-8] + flip[r[-8:]] for r in rows]
            csv.write_text("\n".join([header, *rows]) + "\n")
            wrong = out
        else:
            wrong = corrupt(out)
        if wl.check(req, wrong) is None:
            errors.append(f"{name}: wrong output {wrong!r:.80} was accepted")
    return errors


def check_no_checkout() -> list[str]:
    run.OUT.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.OUT))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(
            run.ROOT / "perfbench", bare / "perfbench",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "queries", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"without src/ the run exited {proc.returncode} and printed {proc.stdout!r:.80}"]
    return []


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    run.load_package()
    import workloads

    errors = []
    names = [w["name"] for w in spec["workloads"]]
    if set(names) != set(workloads.WORKLOADS):
        errors.append(f"BENCHMARK.json lists {names}, run.py knows {sorted(workloads.WORKLOADS)}")
    run.OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT)
    try:
        for name in names:
            for trace_on in (False, True):
                errors += check_metrics(name, trace_on, spec)
            errors += check_rejects_wrong(name, workdir)
            print(f"{name}: checked", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    errors += check_no_checkout()
    for e in errors:
        print("FAIL", e)
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
