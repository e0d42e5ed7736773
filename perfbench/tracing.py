"""Per-layer spans around flexcat's public functions, installed from outside.

Every public function of a layer module is replaced, in every flexcat module
namespace where it is bound, by a wrapper that records a span: layer, name,
start, end, parent span and whether it raised. The value-type constructors of
`flexcat.probvec` are wrapped the same way. Calls made inside the package go
through module globals, so they are caught as well; private helpers are not
wrapped and count toward the self time of the public function that called
them. Spans live in memory and are written out when the benchmark ends.

Work counts are taken at the same boundaries, from arguments and results:
grid cells requested, optimizer evaluations,
Lorenz curves built and curve pairs compared, and bytes exported by the CLI.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

LAYERS = ("cli", "search", "thermo", "majorize", "conditions", "probvec")

@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    layer: str
    name: str
    start: float
    end: float
    thread: int
    raised: bool


class Tracer:
    """Wraps flexcat's public functions while installed; collects spans and counts."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._open: dict[int, str] = {}
        self._main_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._hooks = {
            ("search", "scan_pflex_landscape"): self._count_spec_cells,
            ("search", "scan_thermo_feasibility"): self._count_spec_cells,
            ("search", "scan_thermo_standard"): self._count_standard_cells,
            ("search", "best_standard"): self._count_best_standard,
            ("search", "best_flexible"): self._count_opt_evals,
            ("thermo", "lorenz_breakpoints_batch"): self._count_batch_curves,
            ("thermo", "lorenz_curve"): self._count_one_curve,
            ("thermo", "dominance_matrix"): self._count_matrix_pairs,
            ("thermo", "dominance_diagonal"): self._count_diagonal_pairs,
            ("thermo", "curve_geq"): self._count_one_pair,
            ("cli", "run"): self._count_cli_bytes,
        }

    # ------------------------------------------------------------------ install

    def install(self) -> None:
        package = importlib.import_module("flexcat")
        modules = {layer: importlib.import_module(f"flexcat.{layer}") for layer in LAYERS}
        namespaces = [package, *modules.values()]
        self._main_stack = self._stack()
        for layer, module in modules.items():
            for name, obj in list(vars(module).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrapped = self._wrap(layer, name, obj)
                    for ns in namespaces:
                        for attr, value in list(vars(ns).items()):
                            if value is obj:
                                self._patch(ns, attr, wrapped)
                elif (
                    layer == "probvec"
                    and inspect.isclass(obj)
                    and obj.__module__ == module.__name__
                    and "__init__" in vars(obj)
                ):
                    self._patch(obj, "__init__", self._wrap(layer, name, vars(obj)["__init__"]))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    def _patch(self, target: object, attr: str, value: object) -> None:
        self._patches.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    def reset(self) -> tuple[list[Span], dict[str, int]]:
        """Hand back what was collected so far and start empty."""
        spans, counts = self.spans, dict(self.counts)
        self.spans = []
        self.counts = defaultdict(int)
        return spans, counts

    # --------------------------------------------------------------- recording

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer: str, name: str, fn):
        hook = self._hooks.get((layer, name))
        signature = inspect.signature(fn) if hook else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                # a worker thread of the package's own pool: adopt the span of
                # the benchmark thread that submitted the work
                main = tracer._main_stack
                parent = main[-1] if main and stack is not main else None
            sid = next(tracer._ids)
            tracer._open[sid] = layer
            stack.append(sid)
            raised = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                # count an exception once, in the span it first leaves
                raised = getattr(tracer._local, "last_raised", None) is not exc
                tracer._local.last_raised = exc
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(
                    Span(sid, parent, layer, name, start, end, threading.get_ident(), raised)
                )
                del tracer._open[sid]
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(bound.arguments, result, tracer._open.get(parent))
            return result

        return traced

    def _add(self, key: str, amount: int) -> None:
        with self._lock:
            self.counts[key] += amount

    # ------------------------------------------------------------------ counts

    def _count_spec_cells(self, args, result, parent_layer) -> None:
        spec = args["spec"]
        self._add("search.cells", spec.steps1 * spec.steps2)

    def _count_standard_cells(self, args, result, parent_layer) -> None:
        self._add("search.cells", args["num"])

    def _count_best_standard(self, args, result, parent_layer) -> None:
        # best_standard's diagonal grid over catalyst weights in [0, 0.5]
        self._add("search.cells", int(round(0.5 / args["resolution"])) + 1)
        self._count_opt_evals(args, result, parent_layer)

    def _count_opt_evals(self, args, result, parent_layer) -> None:
        # best_flexible already includes the evaluations of the best_standard it calls
        if parent_layer != "search":
            self._add("search.opt_evals", result.iterations)

    def _count_batch_curves(self, args, result, parent_layer) -> None:
        self._add("thermo.curves", len(args["rows"]))

    def _count_one_curve(self, args, result, parent_layer) -> None:
        self._add("thermo.curves", 1)

    def _count_matrix_pairs(self, args, result, parent_layer) -> None:
        self._add("thermo.curve_pairs", len(args["xa"]) * len(args["xb"]))

    def _count_diagonal_pairs(self, args, result, parent_layer) -> None:
        self._add("thermo.curve_pairs", len(args["xa"]))

    def _count_one_pair(self, args, result, parent_layer) -> None:
        self._add("thermo.curve_pairs", 1)

    def _count_cli_bytes(self, args, result, parent_layer) -> None:
        argv = list(args["argv"])
        for flag in ("--out", "--pgm"):
            if flag in argv[:-1]:
                path = argv[argv.index(flag) + 1]
                if os.path.exists(path):
                    self._add("cli.bytes_written", os.path.getsize(path))


def self_times(spans: list[Span]) -> dict[str, float]:
    """Seconds per layer spent in its own spans, outside any child span.

    Children of one span may overlap when they ran on the package's worker
    threads, so the covered part is the union of the child intervals.
    """
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    totals = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        totals[s.layer] += (s.end - s.start) - covered
    return totals


def layer_counts(spans: list[Span]) -> tuple[dict[str, int], dict[str, int]]:
    calls = dict.fromkeys(LAYERS, 0)
    errors = dict.fromkeys(LAYERS, 0)
    for s in spans:
        calls[s.layer] += 1
        errors[s.layer] += s.raised
    return calls, errors


def write_spans(path: str, spans: list[Span]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps(s.__dict__, separators=(",", ":")) + "\n")
