"""Command-line front end.

Exit codes: 0 = success / checked relation true; 1 = input or validation
error, a request too large for memory, an export file or a stdout that
cannot be written, --out and --pgm naming one file (or --pgm naming the
file stdout is redirected to), or stdout closed by its reader (the only
case with no error line); 2 = checked relation
false or a search found a counterexample, so shell scripts can branch on
the math.

Vectors are passed inline as comma-separated floats or through a JSON
instance file with keys x, y, levels_s, levels_c, beta, cycle (inline flags
override the file; unknown keys are rejected). Numeric output uses fixed
6 decimal places; --json switches any subcommand to a single JSON object.

Only the commands that scan, search, export or compare thermal curves import
search, thermo and numpy, inside the command, so the scalar checks start in
pure Python. json is likewise imported only to read an instance file or to
print --json output.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import stat
import sys
import types
from collections.abc import Sequence
from typing import TYPE_CHECKING

from .conditions import (
    adjacent_ratio_bound_ok,
    boundary_ratios_ok,
    endpoint_conditions_ok,
    ratio_bound_holds,
    support_size_uniform,
)
from .errors import FlexcatError
from .majorize import (
    flexible_cycle_ok,
    is_majorized_by,
    vidal_probability,
    violation_indices,
)
from .probvec import (
    ENT_GRID_STEPS,
    FORMAT_TIE_BAND,
    THERMO_GRID_STEPS,
    Cycle,
    ProbVec,
    gibbs_vector,
    make_cycle,
    make_prob_vec,
    sort_desc,
)

if TYPE_CHECKING:
    import numpy as np

    from .search import GridSpec, LandscapeGrid

# The instance keys, each with its nesting depth: beta is a float, the vectors
# and levels are float lists, and cycle is a list of float lists.
_DEPTH = {"beta": 0, "x": 1, "y": 1, "levels_s": 1, "levels_c": 1, "cycle": 2}

# Embedded demonstration instances so `reproduce` runs without input files.
DEMO_X4 = (0.5789, 0.2691, 0.0872, 0.0648)
DEMO_Y4 = (0.4937, 0.2468, 0.2043, 0.0552)
ALT_X4 = (0.5064, 0.2565, 0.1401, 0.0970)
ALT_Y4 = (0.5474, 0.2048, 0.1903, 0.0575)
ALT_C1 = (0.6333, 0.2667, 0.1000)
ALT_C2 = (0.6167, 0.2833, 0.1000)
THERMO_P = (0.09, 0.53, 0.38)
THERMO_Q = (0.11, 0.75, 0.14)
THERMO_LEVELS_S = (0.0, 1.0, 2.0)
THERMO_LEVELS_C = (0.0, 1.0)
THERMO_BETA = 1.0
THERMO_C1 = (0.82, 0.18)
THERMO_C2 = (0.59, 0.41)


class CliError(Exception):
    """Input error carrying the message for stderr."""


def _fmt(v: float) -> str:
    return f"{v:.6f}"


def _fmt_bool(b: bool) -> str:
    return "true" if b else "false"


def _fields(text: str, sep: str, what: str) -> list[str]:
    """text split at sep: none if every field is blank, else an error if any is."""
    parts = text.split(sep)
    blank = sum(not part.strip() for part in parts)
    if blank == len(parts):
        return []
    if blank:
        raise CliError(f"empty field in {what}: {text!r}")
    return parts


def _parse_floats(text: str, what: str) -> list[float]:
    parts = _fields(text, ",", what)
    try:
        return [float(part) for part in parts]
    except ValueError as exc:
        raise CliError(f"cannot parse {what}: {text!r}") from exc


def _parse_cycle(text: str) -> list[list[float]]:
    states = _fields(text, ";", "cycle")
    if not states:
        raise CliError("cycle is empty")
    return [_parse_floats(s, "cycle state") for s in states]


def _parse_range(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise CliError(f"range must look like lo:hi, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise CliError(f"cannot parse range {text!r}") from exc
    return lo, hi


def _load_instance(path: str) -> dict:
    import json

    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8 or deep nesting
        raise CliError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise CliError(f"{path} must hold a JSON object")
    unknown = set(data) - _DEPTH.keys()
    if unknown:
        raise CliError(f"unknown instance keys: {sorted(unknown)}")
    return data


def _file_value(name: str, raw: object, depth: int):
    """Instance-file value of the given nesting depth, converted to floats."""
    if depth == 0:
        if isinstance(raw, (int, float)) and not isinstance(raw, bool):  # bool is an int
            try:
                return float(raw)
            except OverflowError:  # an integer past the float range; JSON's 1e400 is inf too
                return math.inf if raw > 0 else -math.inf
        raise CliError(f"instance key {name} holds a non-number: {raw!r}")
    if not isinstance(raw, list) or (depth > 1 and not all(isinstance(v, list) for v in raw)):
        raise CliError(f"instance key {name} must be a list" + " of lists" * (depth - 1))
    return [_file_value(name, v, depth - 1) for v in raw]


class _Inputs:
    """Merged view of the instance file and inline flags (inline wins)."""

    def __init__(self, args: argparse.Namespace):
        self.file = _load_instance(args.file) if getattr(args, "file", None) else {}
        self.args = args

    def get(self, name: str, required: bool = True):
        """Value of an instance key (see _DEPTH), or None if absent and optional."""
        depth = _DEPTH[name]
        flag = name.replace("_", "-")
        inline = getattr(self.args, name, None)
        if inline is not None:
            if depth == 0:
                return float(inline)
            return _parse_cycle(inline) if depth == 2 else _parse_floats(inline, flag)
        if name in self.file:
            return _file_value(name, self.file[name], depth)
        if required:
            what = f"vector {name}" if name in ("x", "y") else flag
            raise CliError(f"missing {what}: pass --{flag} or an instance file")
        return None

    def pair(self, sort: bool = True) -> tuple[ProbVec, ProbVec]:
        """Validated x and y: sorted for the entanglement commands, as given for the thermal ones."""
        convert = sort_desc if sort else make_prob_vec
        return convert(self.get("x")), convert(self.get("y"))  # x is validated before y is read

    def cycle(self, states: list | None = None, sort: bool = True) -> Cycle:
        """Validated catalyst cycle, from the given states or else the required cycle key."""
        states = self.get("cycle") if states is None else states
        return make_cycle(sort_desc(s) if sort else s for s in states)


def _print_json(payload: dict) -> None:
    import json

    print(json.dumps(payload, sort_keys=True))


def _emit(args: argparse.Namespace, payload: dict, text_lines: list[str]) -> None:
    if getattr(args, "json", False):
        _print_json(payload)
    else:
        for line in text_lines:
            print(line)


def _verdict(args: argparse.Namespace, key: str, ok: bool) -> int:
    """Emit a checked relation; exit 0 if it holds, else 2."""
    _emit(args, {key: ok}, [_fmt_bool(ok)])
    return 0 if ok else 2


def _grid_spec(args: argparse.Namespace, default: GridSpec) -> GridSpec:
    from .search import GridSpec

    steps = default.steps1 if args.grid is None else args.grid
    lo, hi = _parse_range(args.range) if args.range else (default.lo1, default.hi1)
    return GridSpec(lo, hi, lo, hi, steps, steps)


# Bytes of NUL-padded fields per CSV write: about 24 rows of a 401-point axis.
_CSV_BLOCK_BYTES = 1 << 18

# Byte columns of b"0.000000," that hold the digits of k = round(v * 10**6),
# from the last digit to the first: column 0 gets k // 10**6, 0 or 1.
_FIXED6_DIGIT_COLUMNS = (7, 6, 5, 4, 3, 2, 0)


def _fixed6(values: np.ndarray, end: bytes) -> np.ndarray:
    """f"{v:.6f}" + end for each entry of a float64 array, as an S array at
    least 9 bytes wide whose shorter fields are padded with NUL.

    A v in [0, 1] whose sign bit is clear is written from the decimal digits
    of k = rint(v * 1e6), an integer up to 10**6. The product is within
    0.5 ulp(1e6) < 6e-11 of the exact v * 10**6, so it rounds to the same k
    as the f-string, which rounds the exact value half to even, unless it
    lies within FORMAT_TIE_BAND of a .5 tie. Those values, -0.0, and every
    value outside [0, 1] (NaN and inf too) are formatted by the f-string.
    """
    import numpy as np

    fast = (values >= 0.0) & (values <= 1.0) & ~np.signbit(values)  # NaN fails both bounds
    scaled = np.where(fast, values, 0.0) * 1e6
    fast &= np.abs(scaled - np.floor(scaled) - 0.5) > FORMAT_TIE_BAND
    slow = [f"{v:.6f}".encode() + end for v in values[~fast].tolist()]
    width = max([9, *map(len, slow)])
    fields = np.zeros((len(values), width), dtype=np.uint8)
    k = np.rint(scaled).astype(np.uint32)
    for column in _FIXED6_DIGIT_COLUMNS:
        np.divmod(k, 10, out=(k, fields[:, column]))
    fields[:, :9] += np.frombuffer(b"0.000000" + end, dtype=np.uint8)
    if slow:
        fields[~fast] = np.array(slow, dtype=f"S{width}").view(np.uint8).reshape(len(slow), width)
    return fields.view(f"S{width}").ravel()


def _span(fields: np.ndarray) -> tuple[slice, np.dtype]:
    """The byte columns in which the rows of a (k, width) uint8 array differ,
    as a slice widened to 1, 2, 4 or 8 columns when that fits (numpy moves
    items of those sizes about four times faster than others), and the S
    dtype of that width; column 0 alone when the rows are all equal."""
    import numpy as np

    width = fields.shape[1]
    columns = np.ascontiguousarray(fields.T)  # numpy reduces rows faster than columns
    varying = np.flatnonzero(columns.min(axis=1) != columns.max(axis=1))
    lo, hi = (int(varying[0]), int(varying[-1]) + 1) if len(varying) else (0, 1)
    size = next((s for s in (1, 2, 4, 8) if s >= hi - lo), width)
    lo = min(lo, width - size)
    return slice(lo, lo + size), np.dtype(f"S{size}")


def _write_landscape_csv(grid: LandscapeGrid, out) -> None:
    """Write the grid to the binary file out as `c1,c2,value` rows of ASCII
    bytes, in row-major order, 6 decimals.

    Each axis point is formatted once by _fixed6, and each cell by the block
    that holds it, as fixed-width bytes fields padded with NUL. Grid rows are
    assembled in blocks, in one reused (rows, n, 3) array of fields of about
    _CSV_BLOCK_BYTES (at least one row), and each block is written at once
    with the padding dropped, so fields of unequal width come out right.
    Every field has the width of the grid's widest text. Only a value outside
    [0, 1] or with its sign bit set (-0.0, NaN, inf) can have a text that is
    not 9 bytes, so only those are formatted before the first block, to find
    that width; each block pads its texts to it, so no wider text of an
    earlier block leaves bytes behind. When every field fills its width (the
    usual case: all axis points and values in [0, 10), none negative),
    nothing is padded and each block's own buffer is written, with no copy.
    The axis texts differ only in a span of byte columns (see _span). The
    other axis bytes are the same in every grid row: the block's first row is
    built and copied into its other rows once per export. Each block fills
    the c1 span through a contiguous (rows, n) stage, a broadcast of each
    row's span bytes, that is then copied into the block: numpy fills the
    stage and copies it into the strided block faster than it fills the
    block directly. A bool cell prints as 0.000000 or 1.000000: the first
    byte of its value field is "0" plus the cell, written into the block
    unless the grid holds one value.
    """
    import numpy as np

    vals = grid.values
    if vals.dtype == bool:
        lo, hi = vals.min(), vals.max()
        widths = {9}
    else:
        wide = vals[np.signbit(vals) | ~(vals <= 1.0)].tolist()  # NaN fails the bound
        widths = {len(f"{v:.6f}\n") for v in wide}
        if len(wide) < vals.size:  # the other values' texts are 9 bytes
            widths.add(9)
    axis = _fixed6(grid.spec.axis1(), b",")
    width = max(axis.itemsize, *widths)
    axis = axis.astype(f"S{width}", copy=False).view(np.uint8).reshape(-1, width)
    padded = not axis[:, -1].all() or min(widths) < width  # else every field fills its width
    n = len(axis)
    rows = max(1, min(n, _CSV_BLOCK_BYTES // (3 * n * width)))
    cells = np.zeros((rows, n, 3, width), dtype=np.uint8)
    cells[0, :, 0], cells[0, :, 1] = axis[0], axis  # one axis for c1 and c2
    if vals.dtype == bool:
        cells[0, :, 2, :9] = np.frombuffer(b"%d.000000\n" % lo, dtype=np.uint8)
    cells[1:] = cells[0]  # the bytes outside the c1 span are the same in every grid row
    c1_cols, c1_span = _span(axis)
    c1_block = cells[:, :, 0, c1_cols].view(c1_span)[:, :, 0]
    c1_stage = np.empty((rows, n), dtype=c1_span)
    c1_table = axis[:, c1_cols].view(c1_span).ravel()  # one item a text
    out.write(b"c1,c2,value\n")
    for start in range(0, n, rows):
        m = min(rows, n - start)  # the last block may be partial
        c1_stage[:m] = c1_table[start : start + m, None]
        c1_block[:m] = c1_stage[:m]
        if vals.dtype != bool:
            text = _fixed6(vals[start : start + m].ravel(), b"\n").astype(f"S{width}", copy=False)
            cells[:m, :, 2] = text.view(np.uint8).reshape(m, n, width)
        elif hi > lo:
            np.add(vals[start : start + m].view(np.uint8), ord("0"), out=cells[:m, :, 2, 0])
        block = cells[:m]
        out.write(block.tobytes().replace(b"\0", b"") if padded else block)


def _write_landscape_pgm(grid: LandscapeGrid, out) -> None:
    import numpy as np

    vals = grid.values  # float64 or bool
    lo = float(vals.min())
    hi = float(vals.max())
    if vals.dtype == bool:  # (v - 0) / (1 - 0) * 255 is exactly 0 or 255
        pixels = vals.view(np.uint8) * np.uint8(255 if hi > lo else 0)
    else:
        pixels = (vals - lo) / (hi - lo) if hi > lo else np.zeros(vals.shape)
        pixels *= 255.0
        np.rint(pixels, out=pixels)  # ties to even
        pixels = pixels.astype(np.uint8)
    pixels = pixels.T  # rows follow c2 from lowest to highest; columns follow c1
    header = f"P5\n{pixels.shape[1]} {pixels.shape[0]}\n255\n"
    out.write(header.encode("ascii"))
    out.write(pixels.tobytes())


def _same_file_as_stdout(st: os.stat_result) -> bool:
    """True iff st is the file stdout writes to; False when stdout has no file descriptor."""
    try:
        return os.path.samestat(st, os.fstat(sys.stdout.fileno()))
    except (AttributeError, OSError, ValueError):  # no fileno(), no descriptor, or closed
        return False


def _export_landscape(args: argparse.Namespace, grid: LandscapeGrid) -> None:
    """Write the CSV to --out (or stdout) and the optional --pgm image.

    Every file is opened before any output is written, so a bad path fails
    before any output. An OSError on a file becomes a CliError naming that file.
    Files are opened without truncation, which cost about 5 ms on a 4.3 MB
    CSV, and written in place, so a run rejected before writing leaves an
    existing file as it was. Once the writers end, or one raises, each
    regular file is cut to the bytes that reached it (none if its writer
    never started), so no tail of an earlier, longer export is kept; the
    file keeps its inode, links and mode.
    Two paths that open one regular file (the same name, `sub/../f`, a
    symlink or a hard link) are rejected: the second writer would write over
    the first. So is a --pgm that opens the regular file stdout is redirected
    to when the CSV goes to stdout; a stdout without a file descriptor is not
    compared. A device such as /dev/null is never a clash, and is never cut.
    The CSV goes to stdout's binary buffer, or as text to a stdout without one.
    """
    outputs = []
    if args.out:
        outputs.append((args.out, _write_landscape_csv))
    if args.pgm:
        outputs.append((args.pgm, _write_landscape_pgm))
    path = None  # the file being opened or written, for the error message
    try:
        with contextlib.ExitStack() as stack:
            handles = []
            for path, _ in outputs:
                fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
                handles.append(stack.enter_context(open(fd, "wb")))
            # only a regular file has an offset that a second writer would write over
            stats = [os.fstat(fh.fileno()) for fh in handles]
            files = [st for st in stats if stat.S_ISREG(st.st_mode)]
            if len(files) == 2 and os.path.samestat(*files):
                raise CliError("--out and --pgm name the same file")
            if files and not args.out and _same_file_as_stdout(files[0]):
                raise CliError("--pgm and stdout name the same file")
            try:
                for (path, writer), fh in zip(outputs, handles):
                    writer(grid, fh)
                    fh.flush()
            finally:  # a file whose writer never started is cut to nothing
                for fh, st in zip(handles, stats):
                    if stat.S_ISREG(st.st_mode):
                        os.ftruncate(fh.fileno(), os.lseek(fh.fileno(), 0, os.SEEK_CUR))
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc.strerror or exc}") from exc
    if not args.out:
        sys.stdout.flush()  # text printed before the CSV goes out first
        out = getattr(sys.stdout, "buffer", None)
        if out is None:  # a text-only stdout, such as io.StringIO
            out = types.SimpleNamespace(write=lambda data: sys.stdout.write(str(data, "ascii")))
        _write_landscape_csv(grid, out)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_check_major(args: argparse.Namespace) -> int:
    return _verdict(args, "majorized", is_majorized_by(*_Inputs(args).pair()))


def _cmd_vidal(args: argparse.Namespace) -> int:
    p = vidal_probability(*_Inputs(args).pair())
    _emit(args, {"probability": p}, [_fmt(p)])
    return 0


def _cmd_check_flex(args: argparse.Namespace) -> int:
    inp = _Inputs(args)
    x, y = inp.pair()
    return _verdict(args, "feasible", flexible_cycle_ok(x, y, inp.cycle()))


def _cmd_check_thermo(args: argparse.Namespace) -> int:
    from .thermo import thermo_flexible_ok, thermo_majorizes

    inp = _Inputs(args)
    p, q = inp.pair(sort=False)
    beta = inp.get("beta")
    gamma_s = gibbs_vector(inp.get("levels_s"), beta)
    cycle_states = inp.get("cycle", required=False)
    if cycle_states is None:
        if args.levels_c is not None:
            raise CliError("--levels-c applies only to check-thermo --cycle")
        return _verdict(args, "thermo_majorizes", thermo_majorizes(p, q, gamma_s))
    # the states are converted only after levels_c is read: a missing levels_c is reported first
    gamma_c = gibbs_vector(inp.get("levels_c"), beta)
    cycle = inp.cycle(cycle_states, sort=False)
    return _verdict(args, "feasible", thermo_flexible_ok(p, q, gamma_s, cycle, gamma_c))


def _cmd_gibbs(args: argparse.Namespace) -> int:
    inp = _Inputs(args)
    g = gibbs_vector(inp.get("levels_s"), inp.get("beta"))
    _emit(args, {"gibbs": list(g.values)}, [",".join(_fmt(v) for v in g.values)])
    return 0


def _reject_export_with_json(args: argparse.Namespace) -> None:
    for name in ("out", "pgm"):
        if args.json and getattr(args, name) is not None:
            raise CliError(f"--{name} applies only without --json")


def _cmd_scan_fig1(args: argparse.Namespace) -> int:
    from .search import DEFAULT_ENT_GRID, scan_pflex_landscape

    _reject_export_with_json(args)
    x, y = _Inputs(args).pair()
    spec = _grid_spec(args, DEFAULT_ENT_GRID)
    grid = scan_pflex_landscape(x, y, spec)
    if args.json:
        _print_json({"steps": spec.steps1, "max": float(grid.values.max())})
    else:
        _export_landscape(args, grid)
    return 0


def _cmd_scan_fig2(args: argparse.Namespace) -> int:
    from .search import DEFAULT_THERMO_GRID, scan_thermo_feasibility

    _reject_export_with_json(args)
    inp = _Inputs(args)
    p, q = inp.pair(sort=False)
    spec = _grid_spec(args, DEFAULT_THERMO_GRID)
    grid = scan_thermo_feasibility(
        p, q, inp.get("levels_s"), inp.get("levels_c"), inp.get("beta"), spec
    )
    if args.json:
        feasible = int(grid.values.sum())
        _print_json({"steps": spec.steps1, "feasible_cells": feasible})
    else:
        _export_landscape(args, grid)
    return 0


def _cmd_best_catalyst(args: argparse.Namespace) -> int:
    from .search import DEFAULT_ENT_GRID, best_flexible, best_standard

    for name, mode in (("grid", "flexible"), ("range", "flexible"), ("resolution", "standard")):
        if getattr(args, name) is not None and not getattr(args, mode):
            raise CliError(f"--{name} applies only to best-catalyst --{mode}")
    x, y = _Inputs(args).pair()
    if args.standard:
        pitch = {} if args.resolution is None else {"resolution": args.resolution}
        result = best_standard(x, y, **pitch)  # best_standard holds the default pitch
    else:
        result = best_flexible(x, y, _grid_spec(args, DEFAULT_ENT_GRID))
    names = ("c",) if args.standard else ("c1", "c2")
    shown = {**dict(zip(names, result.params)), "value": result.value}
    lines = [f"{key} {_fmt(v)}" for key, v in shown.items()]
    _emit(args, {**shown, "iterations": result.iterations}, lines)
    return 0


def _cmd_conditions(args: argparse.Namespace) -> int:
    inp = _Inputs(args)
    x, y = inp.pair()
    report = violation_indices(x, y)
    checks: dict[str, bool] = {"endpoint_conditions": endpoint_conditions_ok(x, y)}
    cycle_states = inp.get("cycle", required=False)
    if cycle_states is not None:
        cycle = inp.cycle(cycle_states)
        checks["boundary_ratios"] = boundary_ratios_ok(x, y, cycle)
        checks["support_size_uniform"] = support_size_uniform(cycle)
        if not report.empty:
            checks["ratio_bound"] = ratio_bound_holds(cycle, y, report)
    indices = sorted(report.indices)
    lines = [f"violation_indices {indices if indices else 'none'}"]
    lines += [f"{name} {_fmt_bool(ok)}" for name, ok in checks.items()]
    payload = {"violation_indices": indices, **checks}
    _emit(args, payload, lines)
    return 0 if all(checks.values()) else 2


def _cmd_conjecture(args: argparse.Namespace) -> int:
    from .search import conjecture_search

    report = conjecture_search(args.trials, args.seed, args.d, args.resolution)
    if args.json:
        print(report.to_json())
    else:
        print(f"trials {report.trials}")
        print(f"flexible_feasible {report.flexible_feasible_trials}")
        standard = report.standard_on_grid_trials + report.standard_by_refinement_trials
        print(f"standard_found {standard}")
        print(f"candidates {len(report.candidates)}")
        for cand in report.candidates:
            print(
                f"candidate trial={cand.trial} x={cand.x} y={cand.y} "
                f"cycle={cand.cycle_weights} best_standard={cand.best_standard_weight} "
                f"margin={cand.best_standard_margin}"
            )
    return 2 if report.candidates else 0


def _reproduce_rows(section: str) -> list[tuple[str, float, float, float]]:
    """(name, expected, computed, tolerance) rows for the requested section."""
    from .search import (
        DEFAULT_THERMO_GRID,
        _catalyst,
        best_flexible,
        best_standard,
        per_step_probability,
        scan_thermo_feasibility,
        scan_thermo_standard,
    )
    from .thermo import thermo_flexible_ok, thermo_majorizes

    rows: list[tuple[str, float, float, float]] = []
    x4 = sort_desc(DEMO_X4)
    y4 = sort_desc(DEMO_Y4)
    if section in ("entanglement", "all"):
        rows.append(("base_probability", 0.5857, vidal_probability(x4, y4), 1e-4))
        std = best_standard(x4, y4)
        rows.append(("best_standard_weight", 0.2651, std.params[0], 5e-3))
        rows.append(("best_standard_value", 0.7299, std.value, 2e-3))
        flex = best_flexible(x4, y4)
        rows.append(("best_flexible_weight_1", 0.3936, flex.params[0], 5e-3))
        rows.append(("best_flexible_weight_2", 0.2149, flex.params[1], 5e-3))
        rows.append(("best_flexible_value", 0.7666, flex.value, 2e-3))
        reference = Cycle((_catalyst(0.3936), _catalyst(0.2149)))
        rows.append(("per_step_at_reference_cycle", 0.7666, per_step_probability(x4, y4, reference), 2e-3))
    if section in ("thermo", "all"):
        gamma = gibbs_vector(THERMO_LEVELS_S, THERMO_BETA)
        rows.append(("gibbs_ground_weight", 0.6652, gamma.values[0], 1e-4))
        rows.append(("gibbs_mid_weight", 0.2447, gamma.values[1], 1e-4))
        rows.append(("gibbs_top_weight", 0.0900, gamma.values[2], 1e-4))
        p = make_prob_vec(THERMO_P)
        q = make_prob_vec(THERMO_Q)
        rows.append(("thermo_direct_fails", 0.0, float(thermo_majorizes(p, q, gamma)), 0.5))
        gamma_c = gibbs_vector(THERMO_LEVELS_C, THERMO_BETA)
        cycle = make_cycle((THERMO_C1, THERMO_C2))
        ok = thermo_flexible_ok(p, q, gamma, cycle, gamma_c)
        rows.append(("thermo_cycle_feasible", 1.0, float(ok), 0.5))
        diag = scan_thermo_standard(p, q, THERMO_LEVELS_S, THERMO_LEVELS_C, THERMO_BETA, 1001)
        rows.append(("thermo_standard_feasible_count", 0.0, float(diag.sum()), 0.5))
        degen = scan_thermo_feasibility(
            p, q, THERMO_LEVELS_S, (0.0, 0.0), THERMO_BETA, DEFAULT_THERMO_GRID
        )
        rows.append(("thermo_degenerate_feasible_cells", 0.0, float(degen.values.sum()), 0.5))
    if section in ("supplement", "all"):
        xa = sort_desc(ALT_X4)
        ya = sort_desc(ALT_Y4)
        report = violation_indices(xa, ya)
        rows.append(("violation_index", 2.0, float(min(report.indices)), 0.5))
        rows.append(("violation_count", 1.0, float(len(report.indices)), 0.5))
        ya_vals = ya.values
        rows.append(
            ("adjacent_threshold", 2.673, min(ya_vals[0] / ya_vals[1], ya_vals[2] / ya_vals[3]), 1e-3)
        )
        c2 = sort_desc(ALT_C2)
        rows.append(("second_state_adjacent_ratio", 2.833, c2.values[1] / c2.values[2], 1e-3))
        cycle = Cycle((sort_desc(ALT_C1), c2))
        rows.append(("cycle_feasible", 1.0, float(flexible_cycle_ok(xa, ya, cycle)), 0.5))
        rows.append(
            ("second_state_breaks_adjacent_bound", 0.0, float(adjacent_ratio_bound_ok(c2, ya, report)), 0.5)
        )
    return rows


def _cmd_reproduce(args: argparse.Namespace) -> int:
    rows = _reproduce_rows(args.section)
    results = []
    all_ok = True
    for name, expected, computed, tol in rows:
        ok = abs(computed - expected) <= tol
        all_ok = all_ok and ok
        results.append(
            {"name": name, "expected": expected, "computed": computed, "tol": tol, "pass": ok}
        )
    if args.json:
        _print_json({"results": results, "all_pass": all_ok})
    else:
        width = max(len(r["name"]) for r in results)
        for r in results:
            status = "PASS" if r["pass"] else "FAIL"
            print(
                f"{r['name']:<{width}}  expected {_fmt(r['expected'])}  "
                f"computed {_fmt(r['computed'])}  tol {r['tol']:g}  {status}"
            )
    return 0 if all_ok else 2


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_io_flags(sub: argparse.ArgumentParser, *names: str) -> None:
    if "x" in names:
        sub.add_argument("--x", help="comma-separated entries of the first vector")
    if "y" in names:
        sub.add_argument("--y", help="comma-separated entries of the second vector")
    if "cycle" in names:
        sub.add_argument("--cycle", help="semicolon-separated catalyst states, e.g. 0.8,0.2;0.6,0.4")
    if "levels" in names:
        sub.add_argument("--levels-s", dest="levels_s", help="system energy levels")
        sub.add_argument("--levels-c", dest="levels_c", help="catalyst energy levels")
        sub.add_argument("--beta", type=float, help="inverse temperature")
    sub.add_argument("--file", help="JSON instance file")
    sub.add_argument("--json", action="store_true", help="emit a single JSON object")


def _add_grid_flags(sub: argparse.ArgumentParser, default_steps: int) -> None:
    sub.add_argument("--grid", type=int, help=f"grid points per axis (default {default_steps})")
    sub.add_argument("--range", help="axis range lo:hi")
    sub.add_argument("--out", help="write CSV to this path instead of stdout")
    sub.add_argument("--pgm", help="also write an 8-bit grayscale PGM image")


# Subcommands built from the shared flags alone, in --help order: (name, help,
# handler, _add_io_flags names, default --grid steps or None for no grid flags).
# best-catalyst's row gives only its I/O flags; build_parser adds its modes.
_IO_COMMANDS = (
    ("check-major", "is x majorized by y?", _cmd_check_major, ("x", "y"), None),
    ("vidal", "stochastic conversion probability x -> y", _cmd_vidal, ("x", "y"), None),
    ("check-flex", "does a catalyst cycle convert x -> y?", _cmd_check_flex, ("x", "y", "cycle"), None),
    ("check-thermo", "thermo-majorization, optionally with a cycle", _cmd_check_thermo,
     ("x", "y", "cycle", "levels"), None),
    ("gibbs", "thermal distribution of energy levels", _cmd_gibbs, ("levels",), None),
    ("scan-fig1", "per-step probability landscape (CSV)", _cmd_scan_fig1, ("x", "y"), ENT_GRID_STEPS),
    ("scan-fig2", "thermal 2-cycle feasibility landscape (CSV)", _cmd_scan_fig2,
     ("x", "y", "levels"), THERMO_GRID_STEPS),
    ("best-catalyst", "optimize the catalyst weight(s)", _cmd_best_catalyst, ("x", "y"), None),
    ("conditions", "necessary-condition predicates for x -> y", _cmd_conditions, ("x", "y", "cycle"), None),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flexcat",
        description="Majorization, thermo-majorization, and flexible-catalyst searches.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, text, func, io_flags, grid_steps in _IO_COMMANDS:
        sub = subs.add_parser(name, help=text)
        _add_io_flags(sub, *io_flags)
        if grid_steps:
            _add_grid_flags(sub, grid_steps)
        sub.set_defaults(func=func)

    sub = subs.choices["best-catalyst"]  # its mode flags follow its I/O flags
    mode = sub.add_mutually_exclusive_group(required=True)
    mode.add_argument("--standard", action="store_true", help="constant catalyst")
    mode.add_argument("--flexible", action="store_true", help="2-cycle of catalysts")
    sub.add_argument("--resolution", type=float, help="diagonal scan pitch for --standard")
    sub.add_argument("--grid", type=int, help="grid points per axis for --flexible")
    sub.add_argument("--range", help="axis range lo:hi for --flexible")

    sub = subs.add_parser("conjecture", help="random-instance search for flexible-only cases")
    sub.add_argument("--trials", type=int, default=1000)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--d", type=int, default=4, help="system dimension")
    sub.add_argument("--resolution", type=float, default=0.005, help="catalyst grid pitch")
    sub.add_argument("--json", action="store_true", help="emit the full report as JSON")
    sub.set_defaults(func=_cmd_conjecture)

    sub = subs.add_parser("reproduce", help="recompute embedded reference results")
    sub.add_argument(
        "--section",
        choices=["entanglement", "thermo", "supplement", "all"],
        default="all",
    )
    sub.add_argument("--all", dest="section", action="store_const", const="all")
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(func=_cmd_reproduce)

    return parser


_PARSER: argparse.ArgumentParser | None = None  # parsing leaves it unchanged: built once


def run(argv: Sequence[str]) -> int:
    global _PARSER
    _PARSER = _PARSER or build_parser()
    try:
        args = _PARSER.parse_args(list(argv))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (CliError, FlexcatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # a valid request too large to hold, such as --grid 1000000
        print(f"error: not enough memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 1


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except OSError as exc:
        # stdout cannot be written: its reader closed it early (`flexcat ... |
        # head`), which exits 1 quietly, or it is full or failing, which exits
        # 1 with one error line. Closing stdout drops the unwritten rest, so
        # the flush at interpreter exit does not fail again.
        if not isinstance(exc, BrokenPipeError):
            print(f"error: cannot write stdout: {exc.strerror or exc}", file=sys.stderr)
        with contextlib.suppress(OSError):
            sys.stdout.close()
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
