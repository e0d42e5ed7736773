"""The benchmark's workloads: seeded inputs, the timed call, and output checks.

Each workload is one kind of request a flexcat user makes, so that one latency
median describes it. A request's inputs are drawn from the run's seeded
generator before its timer starts; the package receives only plain tuples of
floats, energy levels and beta. Checks run after the timer stops and compare
each output with an exact reference from `oracle`, never with flexcat itself
alone. The package is called through its module attributes at call time, so
the tracer's wrappers see the top-level calls too.
"""

from __future__ import annotations

import contextlib
import math
import os
import random
import subprocess
import sys

import flexcat as fc
from flexcat import cli

import oracle

# Reference instances and values from the package's acceptance criteria.
DEMO_X4 = (0.5789, 0.2691, 0.0872, 0.0648)
DEMO_Y4 = (0.4937, 0.2468, 0.2043, 0.0552)
DEMO_VIDAL_TEXT = "0.585742"
THERMO_P = (0.09, 0.53, 0.38)
THERMO_Q = (0.11, 0.75, 0.14)
THERMO_LEVELS_S = (0.0, 1.0, 2.0)

# Distinct-pair draws keep both partial-order margins at least this far from
# zero, so their verdicts never sit inside the oracle's tolerance band.
CLEAR = 1e-6


# --------------------------------------------------------------------------
# seeded inputs
# --------------------------------------------------------------------------


def simplex(rng, d: int) -> tuple[float, ...]:
    w = [rng.expovariate(1.0) for _ in range(d)]
    total = math.fsum(w)
    return tuple(v / total for v in w)


def sorted_simplex(rng, d: int) -> tuple[float, ...]:
    return tuple(sorted(simplex(rng, d), reverse=True))


def mixed_down(rng, y: tuple[float, ...]) -> tuple[float, ...]:
    """A convex mix of y with the flat vector: still sorted, and majorized by y."""
    t = rng.uniform(0.2, 0.9)
    return tuple(t * v + (1.0 - t) / len(y) for v in y)


def incomparable_pair(rng, d: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    while True:
        x, y = sorted_simplex(rng, d), sorted_simplex(rng, d)
        if (
            oracle.majorization_margin(x, y) < -CLEAR
            and oracle.majorization_margin(y, x) < -CLEAR
        ):
            return x, y


def thermal_system(rng, d: int = 3) -> dict:
    return {
        "p": simplex(rng, d),
        "q": simplex(rng, d),
        "levels_s": tuple(rng.uniform(0.0, 3.0) for _ in range(d)),
        "levels_c": (0.0, rng.uniform(0.2, 2.0)),
        "beta": rng.uniform(0.3, 2.0),
    }


def thermal_cell_problem(system: dict, c1: float, c2: float, verdict: bool) -> str | None:
    """Check one thermal 2-cycle verdict against the exact oracle and the scalar path."""
    states = [(c1, 1.0 - c1), (c2, 1.0 - c2)]
    s = system
    margin = oracle.margin(
        oracle.thermo_cycle_margin, s["p"], s["q"], s["levels_s"], s["beta"], states, s["levels_c"]
    )
    scalar = fc.thermo_flexible_ok(
        s["p"],
        s["q"],
        fc.gibbs_vector(s["levels_s"], s["beta"]),
        fc.make_cycle(states),
        fc.gibbs_vector(s["levels_c"], s["beta"]),
    )
    if not oracle.agrees(verdict, margin) or not oracle.agrees(scalar, margin):
        return (
            f"cell ({c1}, {c2}) reads {verdict}, scalar path {scalar}, "
            f"exact margin {float(margin):.3e}"
        )
    return None


def exact_violation_diffs(x, y) -> dict:
    """Prefix differences, exact when any of them is near zero."""
    diffs = oracle.violation_diffs(x, y)
    if any(abs(v) <= oracle.SURE for v in diffs.values()):
        diffs = oracle.violation_diffs(x, y, oracle.exact)
    return diffs


def csv_number(v: float) -> str:
    return repr(float(v))


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------


class Workload:
    """One kind of request. Subclasses define the inputs, the call and the check."""

    name = ""
    block = 1  # requests drawn, timed back to back, then checked
    trace_pass = 1  # requests in one pass of the traced run

    def __init__(self, workdir: str, root: str) -> None:
        self.workdir = workdir
        self.root = root

    def request(self, rng):
        raise NotImplementedError

    def execute(self, req):
        raise NotImplementedError

    def check(self, req, out) -> str | None:
        """A description of what is wrong with out, or None."""
        raise NotImplementedError

    def warm_up(self) -> None:
        pass

    def reference(self) -> list[str]:
        """Problems found by once-per-run checks against published values."""
        return []

    def detail(self, p50_s: float, latencies: list[float]) -> dict:
        """The issue-level metric this workload measures, from its sorted timings."""
        return {}


class ThermoScan(Workload):
    """Thermal 2-cycle feasibility landscapes (Fig. 2) at 1001² on random d=3 systems."""

    name = "landscape.scan1001"
    trace_pass = 2
    STEPS = 1001
    SAMPLED_CELLS = 3
    FEASIBLE_CELLS = 2

    def spec(self):
        return fc.GridSpec(0.0, 1.0, 0.0, 1.0, self.STEPS, self.STEPS)

    def request(self, rng):
        return {"system": thermal_system(rng), "check_seed": rng.randrange(2**31)}

    def execute(self, req):
        s = req["system"]
        return fc.scan_thermo_feasibility(
            s["p"], s["q"], s["levels_s"], s["levels_c"], s["beta"], self.spec()
        )

    def check(self, req, grid) -> str | None:
        values = grid.values
        n = self.STEPS
        if values.shape != (n, n) or not ((values == 0.0) | (values == 1.0)).all():
            return "grid has the wrong shape or non-0/1 values"
        rng = random.Random(req["check_seed"])
        cells = [(rng.randrange(n), rng.randrange(n)) for _ in range(self.SAMPLED_CELLS)]
        feasible = values.nonzero()
        if len(feasible[0]):
            for _ in range(self.FEASIBLE_CELLS):
                k = rng.randrange(len(feasible[0]))
                cells.append((int(feasible[0][k]), int(feasible[1][k])))
        for i, j in cells:
            problem = thermal_cell_problem(
                req["system"], i / (n - 1), j / (n - 1), bool(values[i, j])
            )
            if problem:
                return problem
        return None

    def warm_up(self) -> None:
        fc.scan_thermo_feasibility(
            THERMO_P, THERMO_Q, THERMO_LEVELS_S, (0.0, 1.0), 1.0,
            fc.GridSpec(0.0, 1.0, 0.0, 1.0, 11, 11),
        )

    def reference(self) -> list[str]:
        degenerate = fc.scan_thermo_feasibility(
            THERMO_P, THERMO_Q, THERMO_LEVELS_S, (0.0, 0.0), 1.0, self.spec()
        )
        cells = int(degenerate.values.sum())
        return [f"{cells} feasible cells with a degenerate catalyst"] if cells else []

    def detail(self, p50_s, latencies):
        return {"thermo_scan_1001_s": {"value": p50_s, "unit": "s"}}


class Export(Workload):
    """`flexcat scan-fig2` writing the Fig. 2 CSV and PGM at the default 401² grid."""

    name = "landscape.export"
    trace_pass = 2
    STEPS = 401
    SAMPLED_CELLS = 2

    def __init__(self, workdir: str, root: str) -> None:
        super().__init__(workdir, root)
        self.issued = 0

    def paths(self, stem: str) -> tuple[str, str]:
        base = os.path.join(self.workdir, stem)
        return base + ".csv", base + ".pgm"

    def argv(self, system: dict, stem: str, steps: int | None = None) -> list[str]:
        csv, pgm = self.paths(stem)
        argv = ["scan-fig2"]
        for flag, key in (("--x", "p"), ("--y", "q"), ("--levels-s", "levels_s"),
                          ("--levels-c", "levels_c")):
            argv += [flag, ",".join(csv_number(v) for v in system[key])]
        argv += ["--beta", csv_number(system["beta"]), "--out", csv, "--pgm", pgm]
        if steps is not None:
            argv += ["--grid", str(steps)]
        return argv

    def request(self, rng):
        # requests of one traced pass run before any is checked: one file each
        self.issued += 1
        stem = f"fig2-{self.issued % self.trace_pass}"
        return {"system": thermal_system(rng), "check_seed": rng.randrange(2**31), "stem": stem}

    def execute(self, req):
        return cli.run(self.argv(req["system"], req["stem"]))

    def check(self, req, code) -> str | None:
        if code != 0:
            return f"exit code {code}"
        n = self.STEPS
        csv, pgm = self.paths(req["stem"])
        with open(csv, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        if lines[0] != "c1,c2,value" or len(lines) != n * n + 1:
            return f"CSV has {len(lines)} lines for a {n}x{n} grid"
        header = f"P5\n{n} {n}\n255\n".encode("ascii")
        with open(pgm, "rb") as fh:
            image = fh.read()
        if not image.startswith(header) or len(image) != len(header) + n * n:
            return "PGM header or size does not match the grid"
        rng = random.Random(req["check_seed"])
        rows = [rng.randrange(n * n) for _ in range(self.SAMPLED_CELLS)]
        feasible = [k for k in range(n * n) if lines[k + 1].endswith(",1.000000")]
        if feasible:
            rows.append(feasible[rng.randrange(len(feasible))])
        for k in rows:
            i, j = divmod(k, n)
            c1, c2, value = lines[k + 1].split(",")
            if (c1, c2) != (f"{i / (n - 1):.6f}", f"{j / (n - 1):.6f}"):
                return f"CSV row {k + 1} has weights {c1}, {c2}"
            problem = thermal_cell_problem(
                req["system"], i / (n - 1), j / (n - 1), value == "1.000000"
            )
            if problem:
                return problem
        return None

    def warm_up(self) -> None:
        system = {"p": THERMO_P, "q": THERMO_Q, "levels_s": THERMO_LEVELS_S,
                  "levels_c": (0.0, 1.0), "beta": 1.0}
        cli.run(self.argv(system, "warm-up", steps=11))

    def detail(self, p50_s, latencies):
        return {"figure_export_s": {"value": p50_s, "unit": "s"}}


class Queries(Workload):
    """Single-instance library calls on random instances, with a malformed share.

    The calls cycle through a fixed order, so every seed gets the same mix;
    the seed draws the instances (d = 3..8, catalysts k = 2..3, cycles
    n = 2..3). Two calls in every sixteen carry malformed input that must be
    rejected with FlexcatError.
    """

    name = "queries"
    block = 64
    trace_pass = 256
    MALFORMED = ("negative", "off_normalization", "unsorted", "mixed_dimension")

    def __init__(self, workdir: str, root: str) -> None:
        super().__init__(workdir, root)
        self.kinds = [
            self._is_majorized_by,
            self._vidal_probability,
            self._flexible_cycle_ok,
            self._standard_catalysis_ok,
            self._violation_indices,
            self._endpoint_conditions_ok,
            self._boundary_ratios_ok,
            self._support_size_uniform,
            self._d3_no_go,
            self._ratio_bound_holds,
            self._adjacent_ratio_bound_ok,
            self._thermo_majorizes,
            self._thermo_flexible_ok,
            self._best_standard,
            self._malformed,
            self._malformed,
        ]
        self.issued = 0
        self.malformed_issued = 0

    # Each kind returns (call, check): call runs under the timer, check gets its output.

    def request(self, rng):
        kind = self.kinds[self.issued % len(self.kinds)]
        self.issued += 1
        return kind(rng)

    def execute(self, req):
        return req[0]()

    def check(self, req, out) -> str | None:
        return req[1](out)

    def warm_up(self) -> None:
        rng = random.Random("warm-up")
        for kind in self.kinds:
            with contextlib.suppress(fc.FlexcatError):
                kind(rng)[0]()

    def detail(self, p50_s, latencies):
        p99 = latencies[min(len(latencies) - 1, int(0.99 * len(latencies)))]
        return {
            "query_p50_us": {"value": p50_s * 1e6, "unit": "us"},
            "query_p99_us": {"value": p99 * 1e6, "unit": "us", "samples": len(latencies)},
        }

    # ------------------------------------------------------------ instances

    @staticmethod
    def _pair(rng, d=None, comparable_share=0.5):
        d = d or rng.randint(3, 8)
        y = sorted_simplex(rng, d)
        x = mixed_down(rng, y) if rng.random() < comparable_share else sorted_simplex(rng, d)
        return x, y

    @staticmethod
    def _states(rng, sort=True, zeros=False):
        k, n = rng.randint(2, 3), rng.randint(2, 3)
        states = []
        for _ in range(n):
            s = sorted_simplex(rng, k) if sort else simplex(rng, k)
            if zeros and rng.random() < 0.3:
                s = tuple(s[:-1]) + (0.0,)
                s = tuple(v / math.fsum(s) for v in s)
            states.append(s)
        return states

    # ------------------------------------------------------------ kinds

    @staticmethod
    def _expect_value(check):
        def wrapped(out):
            if isinstance(out, Exception):
                return f"raised {out!r}"
            return check(out)

        return wrapped

    def _verdict(self, call, margin_fn):
        def check(out):
            margin = margin_fn()
            if not isinstance(out, bool) or not oracle.agrees(out, margin):
                return f"verdict {out!r} against exact margin {float(margin):.3e}"
            return None

        return call, self._expect_value(check)

    def _is_majorized_by(self, rng):
        x, y = self._pair(rng)
        return self._verdict(
            lambda: fc.is_majorized_by(x, y), lambda: oracle.margin(oracle.majorization_margin, x, y)
        )

    def _vidal_probability(self, rng):
        x, y = self._pair(rng)

        def check(out):
            exact = oracle.vidal(x, y)
            return None if abs(out - exact) <= oracle.BAND else f"{out} != {float(exact)}"

        return (lambda: fc.vidal_probability(x, y)), self._expect_value(check)

    def _flexible_cycle_ok(self, rng):
        x, y = self._pair(rng)
        states = self._states(rng)
        if rng.random() < 0.5:
            states = [states[0]] * len(states)
        return self._verdict(
            lambda: fc.flexible_cycle_ok(x, y, fc.make_cycle(states)),
            lambda: oracle.margin(oracle.cycle_margin, x, y, states),
        )

    def _standard_catalysis_ok(self, rng):
        x, y = self._pair(rng)
        c = sorted_simplex(rng, rng.randint(2, 3))
        return self._verdict(
            lambda: fc.standard_catalysis_ok(x, y, c),
            lambda: oracle.margin(oracle.cycle_margin, x, y, [c]),
        )

    def _violation_indices(self, rng):
        x, y = self._pair(rng, comparable_share=0.25)

        def check(report):
            diffs = exact_violation_diffs(x, y)
            sure = {k for k, v in diffs.items() if v > oracle.BAND}
            maybe = {k for k, v in diffs.items() if 0 < v <= oracle.BAND}
            got = set(report.indices)
            if not sure <= got <= sure | maybe:
                return f"indices {sorted(got)} but exact violations {sorted(sure)}"
            if got and (report.m, report.n_max) != (min(got), max(got)):
                return f"report bounds {report.m}, {report.n_max} for {sorted(got)}"
            return None

        return (lambda: fc.violation_indices(x, y)), self._expect_value(check)

    def _endpoint_conditions_ok(self, rng):
        x, y = self._pair(rng, comparable_share=0.25)
        return self._verdict(
            lambda: fc.endpoint_conditions_ok(x, y), lambda: oracle.margin(oracle.endpoint_margin, x, y)
        )

    def _boundary_ratios_ok(self, rng):
        x, y = self._pair(rng)
        states = self._states(rng)
        return self._verdict(
            lambda: fc.boundary_ratios_ok(x, y, fc.make_cycle(states)),
            lambda: oracle.margin(oracle.boundary_ratios_margin, x, y, states),
        )

    def _support_size_uniform(self, rng):
        states = self._states(rng, zeros=True)

        def check(out):
            want = len(oracle.support_sizes(states)) == 1
            return None if out is want else f"verdict {out!r}, expected {want}"

        return (lambda: fc.support_size_uniform(fc.make_cycle(states))), self._expect_value(check)

    def _d3_no_go(self, rng):
        x, y = self._pair(rng, d=3, comparable_share=0.0)
        if rng.random() < 0.5:
            x = mixed_down(rng, y)

        def check(out):
            forward = oracle.holds(oracle.margin(oracle.majorization_margin, x, y))
            backward = oracle.holds(oracle.margin(oracle.majorization_margin, y, x))
            if forward is None or backward is None:
                return None
            want = not forward and not backward
            return None if out is want else f"verdict {out!r}, expected {want}"

        return (lambda: fc.d3_no_go(x, y)), self._expect_value(check)

    def _ratio_bound_holds(self, rng):
        x, y = incomparable_pair(rng, rng.randint(3, 8))
        states = self._states(rng)

        def call():
            return fc.ratio_bound_holds(fc.make_cycle(states), y, fc.violation_indices(x, y))

        def margin():
            diffs = exact_violation_diffs(x, y)
            indices = [k for k, v in diffs.items() if v > 0]
            return oracle.margin(oracle.ratio_bound_margin, states, y, indices)

        return self._verdict(call, margin)

    def _adjacent_ratio_bound_ok(self, rng):
        x, y = incomparable_pair(rng, rng.randint(3, 8))
        c = sorted_simplex(rng, rng.randint(2, 4))

        def margin():
            diffs = exact_violation_diffs(x, y)
            indices = [k for k, v in diffs.items() if v > 0]
            return oracle.margin(oracle.adjacent_ratio_margin, c, y, indices)

        return self._verdict(
            lambda: fc.adjacent_ratio_bound_ok(c, y, fc.violation_indices(x, y)), margin
        )

    def _thermo_majorizes(self, rng):
        d = rng.randint(3, 8)
        p, q = simplex(rng, d), simplex(rng, d)
        levels = tuple(rng.uniform(0.0, 3.0) for _ in range(d))
        beta = rng.uniform(0.3, 2.0)
        if rng.random() < 0.5:
            # a state mixed toward the Gibbs state is thermo-majorized by the original
            g = oracle.gibbs(levels, beta)
            t = rng.uniform(0.2, 0.9)
            q = tuple(t * a + (1.0 - t) * b for a, b in zip(p, g))
        return self._verdict(
            lambda: fc.thermo_majorizes(p, q, fc.gibbs_vector(levels, beta)),
            lambda: oracle.margin(oracle.thermo_margin, p, q, oracle.gibbs(levels, beta)),
        )

    def _thermo_flexible_ok(self, rng):
        d = rng.randint(3, 8)
        p, q = simplex(rng, d), simplex(rng, d)
        levels_s = tuple(rng.uniform(0.0, 3.0) for _ in range(d))
        states = self._states(rng, sort=False)
        levels_c = tuple(rng.uniform(0.0, 2.0) for _ in range(len(states[0])))
        beta = rng.uniform(0.3, 2.0)

        def call():
            return fc.thermo_flexible_ok(
                p,
                q,
                fc.gibbs_vector(levels_s, beta),
                fc.make_cycle(states),
                fc.gibbs_vector(levels_c, beta),
            )

        return self._verdict(
            call,
            lambda: oracle.margin(
                oracle.thermo_cycle_margin, p, q, levels_s, beta, states, levels_c
            ),
        )

    def _best_standard(self, rng):
        x, y = incomparable_pair(rng, rng.randint(3, 8))
        probes = [rng.randrange(201) * 0.0025 for _ in range(2)]

        def check(res):
            (c,) = res.params
            if not 0.0 <= c <= 0.5:
                return f"weight {c} outside [0, 0.5]"
            exact = oracle.per_step_probability(x, y, [(1.0 - c, c)])
            if abs(exact - res.value) > oracle.BAND:
                return f"value {res.value} but its catalyst gives {exact}"
            for a in probes:
                if oracle.per_step_probability(x, y, [(1.0 - a, a)]) > res.value + oracle.BAND:
                    return f"grid weight {a} beats the optimum {res.value}"
            return None

        return (lambda: fc.best_standard(x, y)), self._expect_value(check)

    def _malformed(self, rng):
        kind = self.MALFORMED[self.malformed_issued % len(self.MALFORMED)]
        self.malformed_issued += 1
        x, y = self._pair(rng)
        if kind == "negative":
            bad = (x[0] + x[-1] + 0.05, *x[1:-1], -0.05)
            call = lambda: fc.vidal_probability(bad, y)  # noqa: E731
        elif kind == "off_normalization":
            call = lambda: fc.is_majorized_by(tuple(v * 1.01 for v in x), y)  # noqa: E731
        elif kind == "unsorted":
            call = lambda: fc.vidal_probability(tuple(reversed(x)), y)  # noqa: E731
        else:
            states = [sorted_simplex(rng, 2), sorted_simplex(rng, 3)]
            call = lambda: fc.flexible_cycle_ok(x, y, fc.make_cycle(states))  # noqa: E731

        def check(out):
            if isinstance(out, fc.FlexcatError):
                return None
            return f"{kind} input gave {out!r} instead of FlexcatError"

        return call, check


class ColdCli(Workload):
    """A fresh `python -m flexcat.cli vidal` process per request: start-up cost."""

    name = "queries.cold_cli"
    trace_pass = 3

    def env(self) -> dict:
        env = dict(os.environ)
        src = os.path.join(self.root, "src")
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        return env

    def command(self, x, y) -> list[str]:
        return [
            sys.executable, "-m", "flexcat.cli", "vidal",
            "--x", ",".join(csv_number(v) for v in x),
            "--y", ",".join(csv_number(v) for v in y),
        ]

    def request(self, rng):
        return simplex(rng, 4), simplex(rng, 4)

    def execute(self, req):
        return subprocess.run(
            self.command(*req), env=self.env(), cwd=self.root,
            capture_output=True, text=True, timeout=60, check=False,
        )

    def check(self, req, proc) -> str | None:
        if proc.returncode != 0:
            return f"exit {proc.returncode}: {proc.stderr.strip()}"
        exact = oracle.vidal(*req)
        if abs(float(proc.stdout) - exact) > 5e-7 + oracle.BAND:
            return f"printed {proc.stdout.strip()} for probability {exact}"
        return None

    def warm_up(self) -> None:
        self.execute((DEMO_X4, DEMO_Y4))

    def reference(self) -> list[str]:
        proc = self.execute((DEMO_X4, DEMO_Y4))
        if proc.returncode != 0 or proc.stdout.strip() != DEMO_VIDAL_TEXT:
            return [f"demo pair printed {proc.stdout.strip()!r}, exit {proc.returncode}"]
        return []

    def detail(self, p50_s, latencies):
        return {"cli_cold_start_ms": {"value": p50_s * 1e3, "unit": "ms"}}


def nan_probes() -> tuple[int, int]:
    """How many NaN-carrying inputs the package accepts, out of how many tried.

    NaN passes every `<` and `>` test in validation, so it is accepted today.
    Reported on its own, outside the operation counts.
    """
    nan = float("nan")
    calls = [
        lambda: fc.make_prob_vec((nan, 0.5, 0.5)),
        lambda: fc.vidal_probability((0.5, nan, 0.5), DEMO_Y4),
        lambda: fc.is_majorized_by((0.6, 0.4, nan), (0.7, 0.2, 0.1)),
        lambda: fc.thermo_majorizes((nan, 0.5, 0.5), THERMO_Q, fc.gibbs_vector((0, 1, 2), 1.0)),
        lambda: fc.gibbs_vector((0.0, 1.0), nan),
    ]
    accepted = 0
    for call in calls:
        try:
            call()
        except fc.FlexcatError:
            continue
        accepted += 1
    return accepted, len(calls)


WORKLOADS = {
    "landscape.scan1001": ThermoScan,
    "landscape.export": Export,
    "queries": Queries,
    "queries.cold_cli": ColdCli,
}
