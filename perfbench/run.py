"""flexcat benchmark: run one workload and print one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload queries --seed 3 --seconds 18 --trace 0

The package is imported from ./src of the same checkout, never from an
installed copy; without ./src/flexcat the run stops with exit code 2 and
prints no result.

--trace 0 measures the end-to-end metrics with nothing wrapped:
  p50_ms       median latency of one request of the workload
  setup_s      median, over fresh processes, of the time from process start
               to the first timed request (interpreter, `import flexcat`,
               input generation, warm-up)
  peak_rss_mb  peak resident memory of the measuring process
--trace 1 runs fixed passes of requests untraced, traced, and untraced with
FLEXCAT_THREADS=1 in turn, and reports per-layer metrics (see tracing.py).

Every output is checked after its timer stops; a request that raises
unexpectedly, returns a wrong answer or accepts malformed input counts as
failed. The line before the result holds the run's details: seed, machine
and version identifiers, the request count and the issue-level metric the
workload measures. Details and spans are also written to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_RUNS = 5


class NoCheckout(Exception):
    """The flexcat sources are not where the benchmark expects them."""


def load_package() -> float:
    """Import flexcat from this checkout's src/; return the import time in seconds."""
    if not (SRC / "flexcat" / "__init__.py").is_file():
        raise NoCheckout(f"no flexcat package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import flexcat

    elapsed = time.perf_counter() - start
    if not Path(flexcat.__file__).resolve().is_relative_to(SRC.resolve()):
        raise NoCheckout(f"flexcat was imported from {flexcat.__file__}, not {SRC}")
    return elapsed


def workload_rng(name: str, seed: int, stream: str = "run") -> random.Random:
    return random.Random(f"flexcat-bench:{name}:{seed}:{stream}")


def percentile(sorted_values: list[float], q: float) -> float:
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy

    return {
        "seed": seed,
        "cores": os.cpu_count(),
        "FLEXCAT_THREADS": os.environ.get("FLEXCAT_THREADS", "unset"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
    }


def setup_probes(name: str, seed: int, runs: int) -> tuple[list[float], list[float]]:
    """Time fresh processes from start until they are ready for the first request."""
    setups, imports = [], []
    probe = Path(__file__).resolve().parent / "probe.py"
    for _ in range(runs):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(probe), name, str(seed)],
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
        )
        try:
            line = proc.stdout.readline()
            setups.append(time.perf_counter() - start)
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait()
        if code != 0 or not line:
            raise RuntimeError(f"setup probe for {name} exited with {code}")
        imports.append(json.loads(line)["import_s"])
    return setups, imports


def execute_all(wl, reqs) -> tuple[list[float], list]:
    """Time each request back to back."""
    outputs, times = [], []
    for req in reqs:
        start = time.perf_counter()
        try:
            out = wl.execute(req)
        except Exception as exc:  # the check decides whether this was expected
            out = exc
        times.append(time.perf_counter() - start)
        outputs.append(out)
    return times, outputs


def check_all(wl, reqs, outputs) -> list[str]:
    problems = []
    for req, out in zip(reqs, outputs):
        try:
            problem = wl.check(req, out)
        except Exception as exc:  # a malformed output can break its own check
            problem = f"check raised {exc!r} on output {out!r}"
        if problem:
            problems.append(problem)
    return problems


def run_requests(wl, reqs) -> tuple[list[float], list[str]]:
    times, outputs = execute_all(wl, reqs)
    return times, check_all(wl, reqs, outputs)


def measure_untraced(wl, rng, seconds: float) -> tuple[list[float], list[str]]:
    latencies, problems = [], []
    deadline = time.perf_counter() + seconds
    while True:
        reqs = [wl.request(rng) for _ in range(wl.block)]
        times, bad = run_requests(wl, reqs)
        latencies += times
        problems += bad
        if time.perf_counter() >= deadline:
            return latencies, problems


def measure_traced(wl, rng, seconds: float, name: str, seed: int):
    """Alternate untraced, traced and single-threaded passes over fixed requests."""
    import tracing

    reqs = [wl.request(rng) for _ in range(wl.trace_pass)]
    tracer = tracing.Tracer()
    plain, traced, single, layer_self = [], [], [], []
    first = None
    problems = []
    deadline = time.perf_counter() + seconds
    threads = os.environ.get("FLEXCAT_THREADS")
    while True:
        times, bad = run_requests(wl, reqs)
        plain.append(sum(times))
        problems += bad

        tracer.install()
        try:
            times, outputs = execute_all(wl, reqs)
        finally:
            tracer.uninstall()
        spans, counts = tracer.reset()
        traced.append(sum(times))
        problems += check_all(wl, reqs, outputs)
        layer_self.append(tracing.self_times(spans))
        if first is None:
            first = (spans, counts)

        os.environ["FLEXCAT_THREADS"] = "1"
        try:
            times, bad = run_requests(wl, reqs)
        finally:
            if threads is None:
                del os.environ["FLEXCAT_THREADS"]
            else:
                os.environ["FLEXCAT_THREADS"] = threads
        single.append(sum(times))
        problems += bad
        if time.perf_counter() >= deadline:
            break

    spans, counts = first
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{name}-seed{seed}.jsonl"
    tracing.write_spans(str(spans_path), spans)
    calls, errors = tracing.layer_counts(spans)
    metrics = {}
    for layer in tracing.LAYERS:
        metrics[f"{layer}.calls"] = (calls[layer], "count")
        metrics[f"{layer}.self_s"] = (statistics.median(s[layer] for s in layer_self), "s")
        metrics[f"{layer}.errors"] = (errors[layer], "count")
    metrics["search.cells"] = (counts.get("search.cells", 0), "count")
    metrics["search.opt_evals"] = (counts.get("search.opt_evals", 0), "count")
    metrics["thermo.curves"] = (counts.get("thermo.curves", 0), "count")
    metrics["thermo.curve_pairs"] = (counts.get("thermo.curve_pairs", 0), "count")
    metrics["cli.bytes_written"] = (counts.get("cli.bytes_written", 0), "B")
    metrics["search.thread_speedup"] = (statistics.median(single) / statistics.median(plain), "ratio")
    metrics["trace_overhead_ratio"] = (statistics.median(traced) / statistics.median(plain), "ratio")
    info = {
        "requests_per_pass": len(reqs),
        "passes": len(plain),
        "spans_in_first_traced_pass": len(spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return metrics, problems, 3 * len(plain) * len(reqs), info


def measure(name: str, seed: int, seconds: float, trace_on: bool, setup_runs: int = SETUP_RUNS):
    """Run one workload; return (result line, details)."""
    load_package()
    import workloads

    setups, imports = setup_probes(name, seed, setup_runs)
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{name}-", dir=OUT)
    try:
        wl = workloads.WORKLOADS[name](workdir, str(ROOT))
        rng = workload_rng(name, seed, "trace" if trace_on else "run")
        wl.warm_up()
        if trace_on:
            layer_metrics, problems, attempted, info = measure_traced(wl, rng, seconds, name, seed)
        else:
            latencies, problems = measure_untraced(wl, rng, seconds)
            attempted = len(latencies)
        references = wl.reference()
        nan_accepted, nan_probed = workloads.nan_probes()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted += 1  # the reference check counts as one operation
    failed = len(problems) + bool(references)
    details = {"workload": name, "seconds": seconds, "trace": int(trace_on)}
    details.update(environment(seed))
    details["attempted"] = attempted
    details["failed_ratio"] = failed / attempted
    details["problems"] = (problems + references)[:10]
    details["nan_inputs_accepted"] = f"{nan_accepted} of {nan_probed}"
    details["package_import_s"] = statistics.median(imports)
    if trace_on:
        metrics = layer_metrics
        metrics["package.import_s"] = (statistics.median(imports), "s")
        metrics["probvec.nan_accepted"] = (nan_accepted, "count")
        details.update(info)
    else:
        ordered = sorted(latencies)
        p50 = statistics.median(ordered)
        metrics = {
            "p50_ms": (p50 * 1e3, "ms"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        details["requests"] = len(ordered)
        if len(ordered) >= 20:
            tail_q = 1.0 - 10.0 / len(ordered)  # the highest with ten samples beyond it
            details["tail_ms"] = {"percentile": 100 * tail_q, "value": percentile(ordered, tail_q) * 1e3}
        details["setup_samples_s"] = setups
        details.update(wl.detail(p50, ordered))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, details


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        load_package()
    except NoCheckout as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    result, details = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"details": details, "result": result}, indent=1) + "\n")
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
