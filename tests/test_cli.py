"""CLI subcommands: exit codes, formats, and file handling."""

from __future__ import annotations

import errno
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

from flexcat import cli, search
from flexcat.cli import run
from flexcat.search import (
    DEFAULT_ENT_GRID,
    DEFAULT_THERMO_GRID,
    GridSpec,
    LandscapeGrid,
    scan_pflex_landscape,
    scan_thermo_feasibility,
)
from helpers import X_DEMO4, Y_DEMO4, endpoint_kept_trials, schmidt, two_cycle_walk

DEMO_X = ",".join(str(v) for v in X_DEMO4)
DEMO_Y = ",".join(str(v) for v in Y_DEMO4)
FIG2 = ["--x", "0.09,0.53,0.38", "--y", "0.11,0.75,0.14",
        "--levels-s", "0,1,2", "--levels-c", "0,1", "--beta", "1"]


def test_check_major_true(capsys):
    assert run(["check-major", "--x", "0.5,0.5", "--y", "1,0"]) == 0
    assert capsys.readouterr().out.strip() == "true"


def test_check_major_false_exits_two(capsys):
    assert run(["check-major", "--x", "1,0", "--y", "0.5,0.5"]) == 2
    assert capsys.readouterr().out.strip() == "false"


def test_validation_error_exits_one(capsys):
    assert run(["check-major", "--x", "0.5,0.6", "--y", "1,0"]) == 1
    assert "error" in capsys.readouterr().err


def test_unparseable_vector_exits_one(capsys):
    assert run(["vidal", "--x", "abc", "--y", "1,0"]) == 1


def test_missing_vector_exits_one(capsys):
    assert run(["vidal", "--x", "0.5,0.5"]) == 1


def test_usage_error_exits_one(capsys):
    assert run([]) == 1
    assert run(["no-such-command"]) == 1


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0


def test_vidal_six_decimals(capsys):
    assert run(["vidal", "--x", DEMO_X, "--y", DEMO_Y]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "0.585742"


def test_vidal_json_mode(capsys):
    assert run(["vidal", "--x", DEMO_X, "--y", DEMO_Y, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["probability"] == pytest.approx(0.5857, abs=1e-4)


def test_instance_file_roundtrip(tmp_path, capsys):
    inst = tmp_path / "pair.json"
    inst.write_text(json.dumps({"x": list(X_DEMO4), "y": list(Y_DEMO4)}))
    assert run(["vidal", "--file", str(inst)]) == 0
    assert capsys.readouterr().out.strip() == "0.585742"


def test_inline_overrides_file(tmp_path, capsys):
    inst = tmp_path / "pair.json"
    inst.write_text(json.dumps({"x": list(X_DEMO4), "y": list(Y_DEMO4)}))
    assert run(["vidal", "--file", str(inst), "--x", "0.5,0.5", "--y", "0.5,0.5"]) == 0
    assert capsys.readouterr().out.strip() == "1.000000"


def test_instance_file_rejects_unknown_keys(tmp_path, capsys):
    inst = tmp_path / "bad.json"
    inst.write_text(json.dumps({"x": [0.5, 0.5], "y": [1, 0], "zeta": 1}))
    assert run(["vidal", "--file", str(inst)]) == 1
    assert "unknown instance keys" in capsys.readouterr().err


def test_check_flex_feasible_cycle(capsys):
    code = run(
        [
            "check-flex",
            "--x", "0.5064,0.2565,0.1401,0.0970",
            "--y", "0.5474,0.2048,0.1903,0.0575",
            "--cycle", "0.6333,0.2667,0.1;0.6167,0.2833,0.1",
        ]
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == "true"


def test_check_flex_infeasible_cycle(capsys):
    code = run(["check-flex", "--x", DEMO_X, "--y", DEMO_Y, "--cycle", "0.9,0.1;0.8,0.2"])
    assert code == 2


def test_check_thermo_direct_and_cycle(capsys):
    base = ["check-thermo", "--x", "0.09,0.53,0.38", "--y", "0.11,0.75,0.14",
            "--levels-s", "0,1,2", "--beta", "1"]
    assert run(base) == 2
    assert capsys.readouterr().out.strip() == "false"
    code = run(base + ["--levels-c", "0,1", "--cycle", "0.82,0.18;0.59,0.41"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "true"
    # catalyst weight e^-45: some Lorenz segments have zero width in floats
    code = run(base + ["--levels-c", "0,45", "--cycle", "1,0;0.5,0.5"])
    captured = capsys.readouterr()
    assert (code, captured.out.strip(), captured.err) == (2, "false", "")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["check-thermo", *FIG2], "--levels-c applies only to check-thermo --cycle"),
        (["scan-fig1", "--x", DEMO_X, "--y", DEMO_Y, "--json", "--out", "f.csv"],
         "--out applies only without --json"),
        (["scan-fig2", *FIG2, "--json", "--pgm", "f.pgm"], "--pgm applies only without --json"),
    ],
)
def test_ignored_option_names_the_flag(argv, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_check_thermo_file_levels_c_without_cycle(tmp_path, capsys):
    inst = tmp_path / "thermo.json"
    inst.write_text(json.dumps({"x": [0.09, 0.53, 0.38], "y": [0.11, 0.75, 0.14],
                                "levels_s": [0, 1, 2], "levels_c": [0, 1], "beta": 1}))
    assert run(["check-thermo", "--file", str(inst)]) == 2
    assert capsys.readouterr().out.strip() == "false"


def test_gibbs_output(capsys):
    assert run(["gibbs", "--levels-s", "0,1,2", "--beta", "1"]) == 0
    parts = capsys.readouterr().out.strip().split(",")
    assert [float(p) for p in parts] == pytest.approx([0.6652, 0.2447, 0.0900], abs=1e-4)


def test_scan_fig1_csv_roundtrip(tmp_path, capsys):
    out = tmp_path / "fig1.csv"
    code = run(["scan-fig1", "--x", DEMO_X, "--y", DEMO_Y, "--grid", "21", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "c1,c2,value"
    assert len(lines) == 1 + 21 * 21
    grid = scan_pflex_landscape(schmidt(X_DEMO4), schmidt(Y_DEMO4), GridSpec(0, 0.5, 0, 0.5, 21, 21))
    a = grid.spec.axis1()
    for idx, line in enumerate(lines[1:]):
        c1, c2, value = (float(v) for v in line.split(","))
        i, j = divmod(idx, 21)
        assert c1 == pytest.approx(a[i], abs=5e-7)
        assert c2 == pytest.approx(a[j], abs=5e-7)
        assert value == pytest.approx(grid.values[i, j], abs=5e-7)


def test_scan_fig1_pgm_export(tmp_path):
    pgm = tmp_path / "fig1.pgm"
    code = run(
        ["scan-fig1", "--x", DEMO_X, "--y", DEMO_Y, "--grid", "15",
         "--out", str(tmp_path / "f.csv"), "--pgm", str(pgm)]
    )
    assert code == 0
    blob = pgm.read_bytes()
    assert blob.startswith(b"P5\n15 15\n255\n")
    assert len(blob) == len(b"P5\n15 15\n255\n") + 15 * 15


def test_scan_fig2_feasibility_csv(tmp_path):
    out = tmp_path / "fig2.csv"
    code = run(
        ["scan-fig2", "--x", "0.09,0.53,0.38", "--y", "0.11,0.75,0.14",
         "--levels-s", "0,1,2", "--levels-c", "0,1", "--beta", "1",
         "--grid", "41", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 1 + 41 * 41
    values = {float(line.split(",")[2]) for line in lines[1:]}
    assert values <= {0.0, 1.0}


def _reference_csv(grid: LandscapeGrid) -> str:
    """The landscape CSV written cell by cell, as the exporter once did."""
    a, v = grid.spec.axis1().tolist(), grid.values.tolist()  # Python floats format as numpy's do
    out = io.StringIO()
    out.write("c1,c2,value\n")
    for i in range(grid.spec.steps1):
        for j in range(grid.spec.steps1):
            out.write(f"{a[i]:.6f},{a[j]:.6f},{v[i][j]:.6f}\n")
    return out.getvalue()


def _fig1_grid(spec: GridSpec) -> LandscapeGrid:
    return scan_pflex_landscape(schmidt(X_DEMO4), schmidt(Y_DEMO4), spec)


def _fig2_grid(steps: int) -> LandscapeGrid:
    return scan_thermo_feasibility(
        cli.THERMO_P, cli.THERMO_Q, cli.THERMO_LEVELS_S, cli.THERMO_LEVELS_C,
        cli.THERMO_BETA, GridSpec(0, 1, 0, 1, steps, steps),
    )


def _random_grid(steps: int) -> LandscapeGrid:
    spec = GridSpec(0, 1, 0, 1, steps, steps)
    return LandscapeGrid(spec, np.random.default_rng(steps).random((steps, steps)), kind="probability")


def _float_cells(spec: GridSpec, values) -> types.SimpleNamespace:
    """A grid-like stand-in with arbitrary float cells (NaN, -0.0, wide fields), which
    no LandscapeGrid kind accepts; the writers read only spec and values."""
    return types.SimpleNamespace(spec=spec, values=np.array(values, dtype=float))


def _degenerate_fig2_grid(steps: int) -> LandscapeGrid:
    """An all-False feasibility grid: a catalyst with equal levels never helps."""
    return scan_thermo_feasibility(
        cli.THERMO_P, cli.THERMO_Q, cli.THERMO_LEVELS_S, (0, 0),
        cli.THERMO_BETA, GridSpec(0, 1, 0, 1, steps, steps),
    )


def _last_block_wide(value: float) -> types.SimpleNamespace:
    """Float cells whose only text that is not 9 bytes is the last cell's."""
    cells = [[0.25, 0.5, 0.75], [1.0, 0.0, 0.125], [0.5, 0.375, value]]
    return _float_cells(GridSpec(0, 0.5, 0, 0.5, 3, 3), cells)


def _bool_grid(steps: int, fill: bool | None) -> LandscapeGrid:
    """A feasibility grid of one value, or random and not symmetric when fill is None."""
    if fill is None:
        cells = np.random.default_rng(steps).random((steps, steps)) < 0.3
    else:
        cells = np.full((steps, steps), fill)
    return LandscapeGrid(GridSpec(0, 1, 0, 1, steps, steps), cells, kind="feasibility")


def _tie_values(count: int) -> np.ndarray:
    """Seeded values in [0, 1] at a tie of the 7th decimal or near one, in random order:
    the exact ties odd k / 128 (2**-7 among them), the floats nearest to `count` draws
    of odd k / 2e6, and for each of these a float 1 to 3 ulps away; 2 * (64 + count) values."""
    rng = np.random.default_rng(count)
    ties = np.concatenate((np.arange(1, 128, 2) / 128, (2 * rng.integers(0, 10**6, count) + 1) / 2e6))
    near = ties + rng.choice([-3, -2, -1, 1, 2, 3], len(ties)) * np.spacing(ties)
    return rng.permutation(np.concatenate((ties, near)))


# Fields of a grid on [0, 1] with values in [0, 1) are 9 bytes wide ("0.500000," and
# "0.500000\n"), so a row of n cells fills 27 * n bytes of the block budget.
@pytest.mark.parametrize(
    "make_grid, block_bytes",
    [
        (lambda: _fig1_grid(DEFAULT_ENT_GRID), None),
        (lambda: _fig1_grid(GridSpec(0.1, 0.4, 0.1, 0.4, 201, 201)), None),
        (lambda: _fig2_grid(DEFAULT_THERMO_GRID.steps1), None),
        (lambda: _fig2_grid(1001), None),
        (lambda: _random_grid(7), 3 * 27 * 7),  # blocks of 3, 3 and 1 rows
        (lambda: _random_grid(7), 27 * 7 - 1),  # a row wider than the budget: one row a block
        # not symmetric, so a writer that transposes the grid fails
        (
            lambda: _float_cells(
                GridSpec(-0.5, 0.25, -0.5, 0.25, 4, 4),
                [
                    [-0.0, 0.0, -1e-13, 5e-7],
                    [4.999999e-7, 1.0, math.nan, -0.0],
                    [0.0, 1.0, 5e-7, -1e-13],
                    [1.0, -0.0, 0.0, 4.999999e-7],
                ],
            ),
            None,
        ),
        # value fields wider than the axis fields
        (
            lambda: _float_cells(
                GridSpec(0, 0.5, 0, 0.5, 3, 3),
                [[12.5, 0.25, -123.25], [1.0, 12.5, 0.0], [-0.0, 1e6, 0.5]],
            ),
            None,
        ),
        (
            lambda: LandscapeGrid(
                GridSpec(0, 1, 0, 1, 50, 50), np.random.default_rng(0).random((50, 50)), kind="probability"
            ),
            None,
        ),
        (
            lambda: LandscapeGrid(
                GridSpec(0, 1, 0, 1, 2, 2), np.array([[0.25, 1.0], [-0.0, 0.75]]), kind="probability"
            ),
            None,
        ),
        (lambda: _degenerate_fig2_grid(41), None),
        (lambda: _bool_grid(9, True), None),
        # not symmetric, in blocks of 2, 2 and 1 rows of 1-byte cells
        (lambda: _bool_grid(5, None), 2 * 27 * 5),
        # Value texts that share most of their bytes: each block copies whole value fields,
        # so none of the shared bytes may come from another cell's text.
        # one value in every cell
        (lambda: LandscapeGrid(GridSpec(0, 1, 0, 1, 3, 3), np.full((3, 3), 0.3), kind="probability"),
         None),
        # "0.250000" and "0.350000" differ in one interior byte
        (lambda: _float_cells(GridSpec(0, 1, 0, 1, 3, 3), [[0.25, 0.35, 0.25], [0.35] * 3, [0.25] * 3]),
         None),
        # texts differing in the first and last digit, with equal bytes between
        (lambda: _float_cells(GridSpec(0, 1, 0, 1, 2, 2), [[1.000001, 2.000002], [2.000002, 1.000001]]),
         None),
        # texts differing in three bytes with an equal one inside
        (lambda: _float_cells(GridSpec(0, 1, 0, 1, 2, 2), [[0.205, 0.306], [0.306, 0.306]]), None),
        # padded: "1.000000\n" is one byte short of "10.000000\n" and ends in a NUL
        (lambda: _float_cells(GridSpec(0, 0.5, 0, 0.5, 2, 2), [[1.0, 10.0], [10.0, 1.0]]), None),
        # both values in the first block of 2 rows, and only False in the blocks after it
        (lambda: LandscapeGrid(GridSpec(0, 1, 0, 1, 5, 5), np.arange(25).reshape(5, 5) == 1,
                               kind="feasibility"), 2 * 27 * 5),
        # f-string texts of values near a .5 tie among integer-formatted ones, in blocks of 3 rows
        (lambda: LandscapeGrid(GridSpec(0, 1, 0, 1, 16, 16), _tie_values(64).reshape(16, 16),
                               kind="probability"), 3 * 27 * 16),
        # one row a block, the only text that is not 9 bytes in the last: fields sized and
        # the padding found from an earlier block would cut "-0.000000\n" and "12.500000\n"
        # and keep the NULs after "nan\n"
        (lambda: _last_block_wide(-0.0), 1),
        (lambda: _last_block_wide(math.nan), 1),
        (lambda: _last_block_wide(12.5), 1),
        # a 10-byte text only in the first block: each later block's 9-byte texts are padded
        # with NUL, so no byte of the wider text is left behind
        (lambda: _float_cells(GridSpec(0, 0.5, 0, 0.5, 3, 3), [[12.5, 0.25, 0.5], [0.75, 1.0, 0], [0.5] * 3]),
         1),
        # both values under 10-byte axis fields ("-1.000000," to "-0.000000,"): the 9-byte
        # value template is padded with NUL, in blocks of 2, 2 and 1 rows
        (lambda: LandscapeGrid(GridSpec(-1.0, -0.0, -1.0, -0.0, 5, 5),
                               np.random.default_rng(5).random((5, 5)) < 0.5, kind="feasibility"),
         2 * 30 * 5),
    ],
    ids=["fig1-201", "fig1-range", "fig2-401", "fig2-1001", "partial-last-block", "row-over-budget",
         "signed-zeros", "wide-values", "all-distinct", "axis-2", "bool-all-false", "bool-all-true",
         "bool-asymmetric", "span-empty", "span-interior-byte", "span-first-last-digit",
         "span-three-bytes", "span-padded-nul", "bool-first-block-only", "ties",
         "last-block-negative-zero", "last-block-nan", "last-block-wide", "first-block-wide",
         "bool-signed-zero-axis"],
)
def test_landscape_csv_matches_cell_loop(make_grid, block_bytes, monkeypatch):
    if block_bytes is not None:
        monkeypatch.setattr(cli, "_CSV_BLOCK_BYTES", block_bytes)
    grid = make_grid()
    out = io.BytesIO()
    cli._write_landscape_csv(grid, out)
    assert out.getvalue() == _reference_csv(grid).encode("ascii")


@pytest.mark.parametrize("end", [b",", b"\n"], ids=["comma", "newline"])
def test_fixed6_matches_fstring(end):
    """The integer formatter gives the f-string's text at and near ties, at the ends of
    [0, 1], for a signed zero, and past [0, 1], where it falls back to the f-string."""
    special = [0.0, 1.0, -0.0, 1e-13, -1e-13, 1 + 1e-12, 1e6, math.nan, math.inf, -math.inf, 5e-324]
    rng = np.random.default_rng(2026)
    values = np.concatenate((_tie_values(4000), special, rng.random(4000), 1 + 9 * rng.random(200)))
    assert cli._fixed6(values, end).tolist() == [f"{v:.6f}".encode() + end for v in values.tolist()]


def _reference_pgm(grid: LandscapeGrid) -> bytes:
    """The PGM image built pixel by pixel: rows follow c2, columns follow c1."""
    v, n = grid.values, grid.spec.steps1
    lo, hi = float(v.min()), float(v.max())
    pixels = bytes(
        round(255 * ((v[c1, c2] - lo) / (hi - lo))) if hi > lo else 0
        for c2 in range(n)
        for c1 in range(n)
    )
    return f"P5\n{n} {n}\n255\n".encode("ascii") + pixels


@pytest.mark.parametrize(
    "make_grid",
    [
        # not symmetric, so a writer that loses the transpose fails
        lambda: _float_cells(GridSpec(0, 0.5, 0, 0.5, 5, 5), np.arange(25.0).reshape(5, 5) ** 1.5),
        lambda: LandscapeGrid(GridSpec(0, 0.5, 0, 0.5, 4, 4), np.full((4, 4), 0.3), kind="probability"),
        lambda: _fig1_grid(DEFAULT_ENT_GRID),
        # 255 * k / 512 is exact, and k = 256 gives the tie 127.5, which rounds to 128
        lambda: LandscapeGrid(
            GridSpec(0, 1, 0, 1, 23, 23),
            np.minimum(np.arange(23 * 23), 512).reshape(23, 23) / 512,
            kind="probability",
        ),
        # each j + 0.5 scales to itself exactly: 0.5 rounds to 0, 1.5 and 2.5 to 2
        lambda: _float_cells(
            GridSpec(0, 1, 0, 1, 17, 17),
            np.concatenate(([0.0, 255.0], np.arange(255) + 0.5, np.zeros(32))).reshape(17, 17),
        ),
        # one-valued bool grids take the all-equal path, which must not scale a bool array
        lambda: _degenerate_fig2_grid(41),
        lambda: _bool_grid(9, True),
        lambda: _bool_grid(6, None),
    ],
    ids=["asymmetric", "constant", "fig1-201", "ties-k-512", "ties-half", "bool-all-false",
         "bool-all-true", "bool-asymmetric"],
)
def test_landscape_pgm_matches_pixel_loop(make_grid):
    grid = make_grid()
    out = io.BytesIO()
    cli._write_landscape_pgm(grid, out)
    assert out.getvalue() == _reference_pgm(grid)


# sha256 of stdout, recorded while each scan still computed its second step
# direction on a separate weight axis
PINNED_OUTPUTS = [
    (
        "fig1-201",
        ["scan-fig1", "--x", DEMO_X, "--y", DEMO_Y],
        "a5de9af9c704d92895de3bc67811ebf68d9266ba78a21dcd94a33a77df6160b8",
    ),
    (
        "fig1-401-range",
        ["scan-fig1", "--x", DEMO_X, "--y", DEMO_Y, "--grid", "401", "--range", "0.1:0.4"],
        "cd44bad0e5afbc8f36bff8fde0514502778141dd8309779474dda0393d617c16",
    ),
    (
        "fig2-tiny-weight",
        ["scan-fig2", "--x", "0.5,0.3,0.2", "--y", "0.6,0.3,0.1", "--levels-s", "0,1,40",
         "--levels-c", "0,1", "--beta", "1", "--grid", "11"],
        "515d87c60c2b4ad2a64e9ee343f07669e65eb05634d40525f3803e4ea6c9586a",
    ),
    (
        "fig2-tiny-weight-json",
        ["scan-fig2", "--x", "0.5,0.3,0.2", "--y", "0.6,0.3,0.1", "--levels-s", "0,1,40",
         "--levels-c", "0,1", "--beta", "1", "--grid", "11", "--json"],
        hashlib.sha256(b'{"feasible_cells": 15, "steps": 11}\n').hexdigest(),
    ),
    (
        "reproduce-all",
        ["reproduce", "--all", "--json"],
        "abe8a5d330670b758cebf3ef7b797c2c52ac9ac09d40cf1367bc394d8eb2a20d",
    ),
    (
        "best-flexible-201",
        ["best-catalyst", "--flexible", "--x", DEMO_X, "--y", DEMO_Y, "--json"],
        "109132b782d91066578925954e1b3c7a2b423b0f58707a0aaabbca87c511dffa",
    ),
    (
        "best-flexible-51-range",
        ["best-catalyst", "--flexible", "--x", DEMO_X, "--y", DEMO_Y,
         "--grid", "51", "--range", "0.1:0.45", "--json"],
        "8904d724cbbcce7b3eb1bbd7dc614e590dc1cbc4216290c26eb8de1f52bce0d8",
    ),
]


@pytest.mark.parametrize(
    "argv, sha", [row[1:] for row in PINNED_OUTPUTS], ids=[row[0] for row in PINNED_OUTPUTS]
)
def test_landscape_outputs_match_pinned_hashes(argv, sha, capsys):
    assert run(argv) == 0
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode()).hexdigest() == sha
    assert captured.err == ""


def _export_digests(tmp_path, argv) -> tuple[str, str]:
    """sha256 of the CSV and the PGM file that argv writes."""
    csv, pgm = tmp_path / "grid.csv", tmp_path / "grid.pgm"
    assert run([*argv, "--out", str(csv), "--pgm", str(pgm)]) == 0
    return tuple(hashlib.sha256(f.read_bytes()).hexdigest() for f in (csv, pgm))


FIG2_401_DIGESTS = (
    "033a1f1928a84dd1f005e99c97488df2346ca6b01bb672c2a52d122aeae1566f",
    "106f6743aed49208b39902a683b857b38ad40271b13e63d633a7f3a6d409070e",
)


def test_fig2_export_matches_pinned_hashes(tmp_path):
    assert _export_digests(tmp_path, ["scan-fig2", *FIG2]) == FIG2_401_DIGESTS


def test_export_writes_over_existing_files_in_place(tmp_path):
    """A shorter export over a longer one, then a longer one over that, gives the bytes
    of a fresh export each time, in the same two files (inodes)."""
    files = [tmp_path / "grid.csv", tmp_path / "grid.pgm"]
    small = ["scan-fig2", *FIG2, "--grid", "11"]
    (tmp_path / "fresh").mkdir()
    fresh = _export_digests(tmp_path / "fresh", small)
    _export_digests(tmp_path, ["scan-fig2", *FIG2, "--grid", "1001"])
    inodes = [f.stat().st_ino for f in files]
    assert _export_digests(tmp_path, small) == fresh
    assert _export_digests(tmp_path, ["scan-fig2", *FIG2]) == FIG2_401_DIGESTS
    assert [f.stat().st_ino for f in files] == inodes


@pytest.mark.parametrize("kind", ["symlink", "hard-link", "mode-600"])
def test_export_keeps_links_and_mode(kind, tmp_path, capsys):
    """The export writes into the file the path leads to: links survive, the mode stays."""
    argv = ["scan-fig2", *FIG2, "--grid", "11"]
    assert run(argv) == 0
    expected = capsys.readouterr().out.encode("ascii")
    target = tmp_path / "fig2.csv"
    target.write_bytes(b"an earlier, longer export\n" * 1000)
    out = target
    if kind == "mode-600":
        target.chmod(0o600)
    else:
        out = tmp_path / "alias.csv"
        (os.symlink if kind == "symlink" else os.link)(target, out)
    before = target.stat()
    assert run([*argv, "--out", str(out)]) == 0
    after = target.stat()
    assert target.read_bytes() == expected
    assert out.is_symlink() == (kind == "symlink") and os.path.samefile(out, target)
    assert (after.st_ino, after.st_nlink, after.st_mode) == (before.st_ino, before.st_nlink, before.st_mode)


def test_fig2_1001_export_and_summary_match_pinned_values(tmp_path, capsys):
    # the 1001-point CSV is written in many blocks of rows
    assert _export_digests(tmp_path, ["scan-fig2", *FIG2, "--grid", "1001"]) == (
        "b5fe66fc870c51a51ffd787638b78a54c20548f264ddeeb78ac4f4428b23e8ec",
        "9cbb2007ea553aec950afaf819190c7fac462ba1c61d99fafd6344b97bc5d1dd",
    )
    assert run(["scan-fig2", *FIG2, "--grid", "1001", "--json"]) == 0
    assert capsys.readouterr().out == '{"feasible_cells": 354, "steps": 1001}\n'


def test_scan_fig1_unequal_dimensions_summary(capsys):
    # scans zero-pad unequal dimensions as per_step_probability does, which gives 0 here
    assert run(["scan-fig1", "--x", "0.5,0.3,0.2", "--y", "0.4,0.3,0.2,0.1", "--grid", "3", "--json"]) == 0
    assert capsys.readouterr().out == '{"max": 0.0, "steps": 3}\n'


def test_fig1_export_matches_pinned_hashes(tmp_path):
    assert _export_digests(tmp_path, ["scan-fig1", "--x", DEMO_X, "--y", DEMO_Y]) == (
        "a5de9af9c704d92895de3bc67811ebf68d9266ba78a21dcd94a33a77df6160b8",
        "04d8363b5770a346efe10585c0914651721d311ef39b6ba1b0eb4046430f8830",
    )


def test_fig1_range_export_matches_pinned_hashes(tmp_path):
    # 39,444 distinct values, pinned while each was formatted by an f-string
    argv = ["scan-fig1", "--x", DEMO_X, "--y", DEMO_Y, "--range", "0.1:0.4", "--grid", "401"]
    assert _export_digests(tmp_path, argv) == (
        "cd44bad0e5afbc8f36bff8fde0514502778141dd8309779474dda0393d617c16",
        "74f295c38c3aee2fd759c7a47c5bc6bbeb712e9a6e9210359086abc9361381a9",
    )


MATRIX_FILES = {
    "pair.json": json.dumps({"x": list(X_DEMO4), "y": list(Y_DEMO4)}),
    "thermo.json": json.dumps({"x": [0.09, 0.53, 0.38], "y": [0.11, 0.75, 0.14], "levels_s": [0, 1, 2],
                               "levels_c": [0, 1], "beta": 1, "cycle": [[0.82, 0.18], [0.59, 0.41]]}),
    "flex.json": json.dumps({"x": [0.5064, 0.2565, 0.1401, 0.0970], "y": [0.5474, 0.2048, 0.1903, 0.0575],
                             "cycle": [[0.6333, 0.2667, 0.1], [0.6167, 0.2833, 0.1]]}),
    "array.json": "[0.5, 0.5]",
    "broken.json": '{"x": [0.5,',
    "unknown.json": json.dumps({"x": [0.5, 0.5], "y": [1, 0], "zeta": 1}),
    "levels.json": json.dumps({"levels_s": 3, "beta": 1}),
    "beta.json": json.dumps({"levels_s": [0, 1], "beta": [1]}),
    "bools.json": json.dumps({"x": [True, False], "y": [0.5, 0.5]}),
    "flat-cycle.json": json.dumps({"x": [1, 0], "y": [1, 0], "cycle": [1, 0]}),
}
_ALT = ["--x", "0.5064,0.2565,0.1401,0.0970", "--y", "0.5474,0.2048,0.1903,0.0575"]
_ALT_CYCLE = "0.6333,0.2667,0.1;0.6167,0.2833,0.1"
_DEMO = ["--x", DEMO_X, "--y", DEMO_Y]
_THERMO = FIG2[:6] + ["--beta", "1"]  # x, y, levels-s and beta, no levels-c
_COMMANDS = ["check-major", "vidal", "check-flex", "check-thermo", "gibbs", "scan-fig1", "scan-fig2",
             "best-catalyst", "conditions", "conjecture", "reproduce"]
# Each runs as given and with --json appended.
_MATRIX_RUNS = [
    ["check-major", "--x", "0.5,0.5", "--y", "1,0"],
    ["check-major", "--x", "1,0", "--y", "0.5,0.5"],
    ["vidal", *_DEMO],
    ["vidal", "--x", "0.5,0.3,0.2", "--y", "0.4,0.3,0.2,0.1"],
    ["check-flex", *_ALT, "--cycle", _ALT_CYCLE],
    ["check-flex", *_DEMO, "--cycle", "0.9,0.1;0.8,0.2"],
    ["check-thermo", *_THERMO],
    ["check-thermo", *FIG2, "--cycle", "0.82,0.18;0.59,0.41"],
    ["gibbs", "--levels-s", "0,1,2", "--beta", "1"],
    ["scan-fig1", *_DEMO, "--grid", "5"],
    ["scan-fig1", "--x", "0.5,0.3,0.2", "--y", "0.4,0.3,0.2,0.1", "--grid", "3", "--range", "0.1:0.4"],
    ["scan-fig2", *FIG2, "--grid", "5"],
    ["scan-fig2", *FIG2, "--grid", "7", "--range", "0.2:0.9"],
    ["best-catalyst", "--standard", *_DEMO],
    ["best-catalyst", "--standard", *_DEMO, "--resolution", "0.05"],
    ["best-catalyst", "--flexible", *_DEMO, "--grid", "21", "--range", "0.1:0.45"],
    ["conditions", *_ALT, "--cycle", _ALT_CYCLE],
    ["conditions", *_DEMO],
    ["conjecture", "--trials", "20", "--seed", "3", "--d", "3", "--resolution", "0.05"],
    ["reproduce", "--section", "supplement"],
    ["reproduce", "--all"],
    ["vidal", "--file", "pair.json"],
    ["vidal", "--file", "pair.json", "--x", "0.5,0.5", "--y", "0.5,0.5"],
    ["check-flex", "--file", "flex.json"],
    ["conditions", "--file", "flex.json"],
    ["check-thermo", "--file", "thermo.json"],
    ["gibbs", "--file", "thermo.json"],
    ["scan-fig2", "--file", "thermo.json", "--grid", "3"],
]
# Run once each: help texts, each documented error, and two invalid inputs at once.
_MATRIX_ONCE = [
    ["--help"],
    *([command, "--help"] for command in _COMMANDS),
    [],
    ["no-such-command"],
    ["best-catalyst", *_DEMO],
    ["vidal", *_DEMO, "--grid", "3"],
    ["scan-fig1", *_DEMO, "--grid", "x"],
    ["reproduce", "--section", "nope"],
    ["check-major", "--x", "0.5,0.6", "--y", "1,0"],
    ["vidal", "--x", "abc", "--y", "1,0"],
    ["vidal", "--x", "0.5,0.5"],
    ["vidal", "--y", "0.5,0.5"],
    ["vidal", "--x", "nan,0.5,0.5", "--y", "0.5,0.5"],
    ["vidal", "--x", "1e308,1e308", "--y", "0.5,0.5"],
    ["vidal", "--x=-0.1,1.1", "--y", "1"],
    ["vidal", "--x", "", "--y", "1"],
    ["check-flex", *_DEMO],
    ["check-flex", *_DEMO, "--cycle", ";"],
    ["check-flex", *_DEMO, "--cycle", "0.7,0.2,0.1;0.6,0.4"],
    ["check-flex", *_DEMO, "--cycle", "0.5,b"],
    ["check-thermo", *FIG2],
    ["check-thermo", *_THERMO, "--cycle", "0.82,0.18;0.59,0.41"],
    ["check-thermo", "--x", "0.6,0.4", "--y", "0.5,0.3,0.2", "--levels-s", "0,1,2", "--beta", "1"],
    ["check-thermo", *FIG2[:4], "--levels-s", "0,1,400", "--levels-c", "0,400", "--beta", "1",
     "--cycle", "0.5,0.5;0.4,0.6"],
    ["check-thermo", *FIG2[:8], "--beta", "-0.5"],
    ["gibbs", "--levels-s", "0,1", "--beta", "-1"],
    ["gibbs", "--levels-s", "0,1", "--beta", "inf"],
    ["gibbs", "--levels-s", "nan,1,2", "--beta", "1"],
    ["gibbs", "--levels-s=-1e308,1e308", "--beta", "1"],
    ["gibbs", "--levels-s", "", "--beta", "1"],
    ["gibbs", "--beta", "1"],
    ["gibbs", "--levels-s", "0,1"],
    ["scan-fig1", *_DEMO, "--grid", "0"],
    ["scan-fig1", *_DEMO, "--grid", "1"],
    ["scan-fig1", *_DEMO, "--range", "0.1:0.6"],
    ["scan-fig1", *_DEMO, "--range=-0.1:0.3"],
    ["scan-fig1", *_DEMO, "--range", "0.4:0.1"],
    ["scan-fig1", *_DEMO, "--range", "0.2"],
    ["scan-fig1", *_DEMO, "--range", "a:b"],
    ["scan-fig1", *_DEMO, "--range", "nan:1"],
    ["scan-fig1", *_DEMO, "--grid", "3", "--json", "--out", "f.csv"],
    ["scan-fig2", *FIG2, "--range", "0:1.5", "--json"],
    ["scan-fig2", *FIG2, "--range", "0:inf", "--grid", "3"],
    ["scan-fig2", *FIG2, "--grid", "3", "--json", "--pgm", "f.pgm"],
    ["scan-fig2", *FIG2, "--grid", "3", "--out", "missing/f.csv"],
    ["scan-fig2", *FIG2, "--grid", "3", "--out", "f.csv", "--pgm", "missing/f.pgm"],
    ["scan-fig2", *_THERMO, "--grid", "3"],
    ["best-catalyst", "--standard", *_DEMO, "--grid", "7"],
    ["best-catalyst", "--standard", *_DEMO, "--range", "0.4:0.5"],
    ["best-catalyst", "--flexible", *_DEMO, "--resolution", "0.3"],
    ["best-catalyst", "--standard", *_DEMO, "--resolution", "0"],
    ["best-catalyst", "--standard", *_DEMO, "--resolution", "0.6"],
    ["best-catalyst", "--standard", "--flexible", *_DEMO],
    ["conditions", "--x", DEMO_X],
    ["conjecture", "--trials", "5", "--resolution", "0"],
    ["conjecture", "--trials", "5", "--d", "2"],
    ["conjecture", "--trials", "3", "--seed", "-1"],
    ["conjecture", "--trials", "-1"],
    ["vidal", "--file", "missing.json"],
    ["vidal", "--file", "broken.json"],
    ["vidal", "--file", "array.json"],
    ["vidal", "--file", "unknown.json"],
    ["gibbs", "--file", "levels.json"],
    ["gibbs", "--file", "beta.json"],
    ["vidal", "--file", "bools.json"],
    ["check-flex", "--file", "flat-cycle.json"],
    # two invalid inputs at once: the first one checked is reported
    ["check-major", "--x", "0.5,0.6", "--y", "a,b"],
    ["vidal", "--x", "nan,1", "--y", "0.5,0.6"],
    ["vidal", "--file", "unknown.json", "--x", "abc"],
    ["vidal", "--file", "broken.json", "--y", "0.5,0.6"],
    ["check-flex", "--x", "0.5,0.6", "--y", "1,0", "--cycle", ";"],
    ["check-flex", "--x", "0.5,0.5", "--y", "1,0", "--cycle", "0.5,0.6;0.5,b"],
    ["check-flex", "--x", "0.5,0.5", "--y", "1,0", "--cycle", "0.5,0.6;0.2,0.3,0.5"],
    ["check-thermo", *_THERMO, "--cycle", "0.5,0.6;0.5,0.5"],
    ["check-thermo", *_THERMO, "--cycle", ";"],
    ["check-thermo", *FIG2[:8], "--beta", "-1", "--cycle", "0.5,0.6;0.5,0.5"],
    ["check-thermo", *_THERMO, "--levels-c", "nan,0", "--cycle", "0.5,0.6;0.5,0.5"],
    ["check-thermo", *_THERMO, "--levels-c", "0,1", "--cycle", "0.5,0.6;0.5,0.5"],
    ["check-thermo", "--x", "0.5,0.6", "--y", "0.5,0.3,0.2", "--levels-s", "0,1", "--beta", "1"],
    ["gibbs", "--levels-s", "nan,1", "--beta", "-1"],
    ["gibbs", "--levels-s", "0,1", "--beta", "hot"],
    ["scan-fig1", "--x", "0.5,0.6", "--y", DEMO_Y, "--grid", "0"],
    ["scan-fig1", "--x", "0.5,0.6", "--y", DEMO_Y, "--json", "--out", "f.csv"],
    ["scan-fig2", *FIG2[:8], "--beta", "-1", "--range", "0:1.5"],
    ["scan-fig2", *FIG2[:6], "--levels-c", "a,b", "--beta", "1", "--range", "0:1.5"],
    ["scan-fig2", *FIG2[:6], "--levels-c", "a,b", "--beta", "1", "--range", "0.2"],
    ["best-catalyst", "--standard", "--x", "0.5,0.6", "--y", DEMO_Y, "--grid", "7"],
    ["best-catalyst", "--flexible", "--x", "0.5,0.6", "--y", DEMO_Y, "--grid", "0"],
    ["conditions", "--x", DEMO_X, "--y", "0.5,0.6", "--cycle", ";"],
    ["conditions", *_ALT, "--cycle", "0.5,0.6;0.5,0.5"],
    ["conjecture", "--trials", "5", "--resolution", "0", "--d", "2"],
    ["conjecture", "--trials", "-1", "--seed", "-1"],
    ["reproduce", "--section", "nope", "--json"],
]
# sha256 over exit code, stdout and stderr of every argv above, recorded before
# the subcommands shared one input reader, verdict writer and parser table
MATRIX_SHA = "3f1f659330572a2dca314f9962e587c5832bf31f784c0c255b492d34ab462e04"


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="argparse texts vary by Python version")
def test_cli_matrix_matches_pinned_hash(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    for name, text in MATRIX_FILES.items():
        (tmp_path / name).write_text(text)
    digest = hashlib.sha256()
    for argv in [*_MATRIX_RUNS, *([*argv, "--json"] for argv in _MATRIX_RUNS), *_MATRIX_ONCE]:
        code = run(argv)
        captured = capsys.readouterr()
        digest.update(json.dumps([argv, code, captured.out, captured.err]).encode())
    assert digest.hexdigest() == MATRIX_SHA


def test_landscape_csv_file_equals_stdout(tmp_path, capsys):
    argv = ["scan-fig1", "--x", DEMO_X, "--y", DEMO_Y, "--grid", "31", "--range", "0.1:0.4"]
    out = tmp_path / "fig1.csv"
    assert run(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert run(argv) == 0
    assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()


def test_landscape_csv_to_text_only_stdout_equals_file(tmp_path, monkeypatch):
    """A stdout with no binary buffer, such as io.StringIO, gets the same CSV as text."""
    monkeypatch.setattr(cli, "_CSV_BLOCK_BYTES", 3 * 27 * 31)  # several blocks
    argv = ["scan-fig1", "--x", DEMO_X, "--y", DEMO_Y, "--grid", "31", "--range", "0.1:0.4"]
    out = tmp_path / "fig1.csv"
    assert run(argv + ["--out", str(out)]) == 0
    stdout = io.StringIO()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert run(argv) == 0
    assert stdout.getvalue().encode("ascii") == out.read_bytes()


def test_unwritable_out_exits_one(tmp_path, capsys):
    bad = tmp_path / "missing" / "fig2.csv"
    assert run(["scan-fig2", *FIG2, "--grid", "11", "--out", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {bad}: ")


def test_unwritable_pgm_fails_before_any_output(tmp_path, capsys):
    bad = tmp_path / "missing" / "fig2.pgm"
    out = tmp_path / "fig2.csv"
    assert run(["scan-fig2", *FIG2, "--grid", "11", "--out", str(out), "--pgm", str(bad)]) == 1
    assert out.read_bytes() == b""
    assert run(["scan-fig2", *FIG2, "--grid", "11", "--pgm", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {bad}: ")


@pytest.mark.parametrize("alias", ["dot-dot", "symlink", "hard-link"])
def test_out_and_pgm_naming_one_file_exit_one(alias, tmp_path, capsys):
    out = tmp_path / "fig2.out"
    out.write_bytes(b"")
    if alias == "dot-dot":
        (tmp_path / "sub").mkdir()
        pgm = tmp_path / "sub" / ".." / out.name
    else:
        pgm = tmp_path / "fig2.pgm"
        (os.symlink if alias == "symlink" else os.link)(out, pgm)
    assert run(["scan-fig2", *FIG2, "--grid", "11", "--out", str(out), "--pgm", str(pgm)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: --out and --pgm name the same file\n")
    assert out.read_bytes() == b""


@pytest.mark.parametrize(
    "alias", ["name", "symlink", "hard-link", "other-file", "device", "device-out"]
)
def test_pgm_naming_stdout_file_exits_one(alias, tmp_path, capsys, monkeypatch):
    """`--pgm f > f` would write the CSV on stdout over the PGM; another file is fine.

    A device has no offset to write over: `--pgm /dev/null > /dev/null` and
    `--out /dev/null --pgm /dev/null` are no clash.
    """
    if alias.startswith("device"):
        if not os.path.exists(os.devnull):
            pytest.skip("needs a null device")
        out = ["--out", os.devnull] if alias == "device-out" else []
        with open(os.devnull, "w", encoding="utf-8") as stdout, monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", stdout)
            code = run(["scan-fig2", *FIG2, "--grid", "11", *out, "--pgm", os.devnull])
        assert (code, capsys.readouterr().err) == (0, "")
        return
    target = tmp_path / "fig2.out"
    target.write_bytes(b"")
    pgm = target if alias == "name" else tmp_path / "fig2.pgm"
    if alias in ("symlink", "hard-link"):
        (os.symlink if alias == "symlink" else os.link)(target, pgm)
    with open(target, "w", encoding="utf-8") as stdout, monkeypatch.context() as patch:
        patch.setattr(sys, "stdout", stdout)
        code = run(["scan-fig2", *FIG2, "--grid", "11", "--pgm", str(pgm)])
    captured = capsys.readouterr()
    if alias == "other-file":
        assert (code, captured.err) == (0, "")
        assert target.read_bytes().startswith(b"c1,c2,value\n")
        assert pgm.read_bytes().startswith(b"P5\n")
        return
    assert (code, captured.out) == (1, "")
    assert captured.err == "error: --pgm and stdout name the same file\n"
    assert target.read_bytes() == b""


@pytest.mark.parametrize(
    "case, message",
    [
        ("out-and-pgm", "error: --out and --pgm name the same file\n"),
        ("pgm-and-appending-stdout", "error: --pgm and stdout name the same file\n"),
        ("unopenable-pgm", "error: cannot write {}: No such file or directory\n"),
    ],
    ids=["out-and-pgm", "pgm-and-appending-stdout", "unopenable-pgm"],
)
def test_rejected_export_keeps_existing_file(case, message, tmp_path, capsys, monkeypatch):
    """A run rejected before writing leaves an existing file byte for byte as it was."""
    target = tmp_path / "fig2.out"
    old = b"c1,c2,value\nan earlier export\n"
    target.write_bytes(old)
    bad = tmp_path / "missing" / "fig2.pgm"
    argv = ["scan-fig2", *FIG2, "--grid", "11"]
    if case == "out-and-pgm":
        argv += ["--out", str(target), "--pgm", str(target)]
    elif case == "unopenable-pgm":
        argv += ["--out", str(target), "--pgm", str(bad)]
    else:
        argv += ["--pgm", str(target)]
    with open(target, "a", encoding="utf-8") as stdout, monkeypatch.context() as patch:
        if case == "pgm-and-appending-stdout":  # `--pgm f >> f`
            patch.setattr(sys, "stdout", stdout)
        code = run(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (1, "", message.format(bad))
    assert target.read_bytes() == old


@pytest.mark.parametrize(
    "exc, message",
    [
        (OSError(errno.EIO, "Input/output error"), "error: cannot write {}: Input/output error\n"),
        (MemoryError(), "error: not enough memory: allocation failed\n"),
    ],
    ids=["os-error", "memory-error"],
)
def test_failed_writer_keeps_no_earlier_tail(exc, message, tmp_path, capsys, monkeypatch):
    """A writer that raises leaves its file cut to the bytes it wrote, and a
    file whose writer never started cut to nothing."""
    out, pgm = tmp_path / "fig2.csv", tmp_path / "fig2.pgm"
    out.write_bytes(b"an earlier, longer export\n" * 1000)
    pgm.write_bytes(b"an earlier image")

    def failing_writer(grid, fh):
        fh.write(b"c1,c2,value\n")
        raise exc

    monkeypatch.setattr(cli, "_write_landscape_csv", failing_writer)
    assert run(["scan-fig2", *FIG2, "--grid", "11", "--out", str(out), "--pgm", str(pgm)]) == 1
    assert capsys.readouterr().err == message.format(out)
    assert out.read_bytes() == b"c1,c2,value\n"
    assert pgm.read_bytes() == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("flag", ["--out", "--pgm"])
def test_full_device_exits_one(tmp_path, capsys, flag):
    argv = ["scan-fig2", *FIG2, "--grid", "11", "--out", str(tmp_path / "f.csv"), flag, "/dev/full"]
    assert run(argv) == 1
    assert capsys.readouterr().err == "error: cannot write /dev/full: No space left on device\n"


def test_closed_stdout_pipe_exits_quietly():
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "flexcat.cli", "scan-fig2", *FIG2],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    try:
        assert proc.stdout.readline() == b"c1,c2,value\n"
        proc.stdout.close()  # the 401x401 CSV is far larger than the pipe buffer
        assert proc.wait(timeout=60) == 1
        assert proc.stderr.read() == b""
    finally:
        proc.kill()
        proc.stderr.close()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv",
    [["vidal", "--x", DEMO_X, "--y", DEMO_Y], ["scan-fig1", "--x", DEMO_X, "--y", DEMO_Y, "--grid", "11"]],
    ids=["vidal", "scan-fig1"],
)
def test_full_stdout_exits_one_with_one_line(argv, unbuffered):
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]), "PYTHONUNBUFFERED": unbuffered}
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "flexcat.cli", *argv], stdout=full, stderr=subprocess.PIPE, env=env, timeout=60
        )
    assert (proc.returncode, proc.stderr) == (1, b"error: cannot write stdout: No space left on device\n")


def test_stdout_pipe_csv_matches_pinned_hash():
    """The CSV through a real pipe, which in-process capture does not exercise."""
    argv, sha = next(row[1:] for row in PINNED_OUTPUTS if row[0] == "fig1-401-range")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "flexcat.cli", *argv], capture_output=True, env=env, timeout=120
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert hashlib.sha256(proc.stdout).hexdigest() == sha


def test_best_catalyst_standard_output(capsys):
    assert run(["best-catalyst", "--standard", "--x", DEMO_X, "--y", DEMO_Y]) == 0
    out = capsys.readouterr().out
    fields = dict(line.split() for line in out.strip().splitlines())
    assert float(fields["c"]) == pytest.approx(0.2651, abs=5e-3)
    assert float(fields["value"]) == pytest.approx(0.7299, abs=2e-3)


def test_best_catalyst_flexible_json(capsys):
    code = run(
        ["best-catalyst", "--flexible", "--x", DEMO_X, "--y", DEMO_Y, "--grid", "81", "--json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == pytest.approx(0.7666, abs=2e-3)
    assert payload["c1"] >= payload["c2"]


def test_best_catalyst_requires_mode(capsys):
    assert run(["best-catalyst", "--x", DEMO_X, "--y", DEMO_Y]) == 1


def test_conditions_exit_semantics(capsys):
    code = run(
        ["conditions",
         "--x", "0.5064,0.2565,0.1401,0.0970",
         "--y", "0.5474,0.2048,0.1903,0.0575",
         "--cycle", "0.6333,0.2667,0.1;0.6167,0.2833,0.1"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "violation_indices [2]" in out
    assert "endpoint_conditions true" in out
    # the demonstration pair fails the endpoint conditions
    assert run(["conditions", "--x", DEMO_X, "--y", DEMO_Y]) == 2


def test_conjecture_cli(capsys):
    assert run(["conjecture", "--trials", "10", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "candidates 0" in out
    assert run(["conjecture", "--trials", "10", "--seed", "5", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["trials"] == 10
    assert payload["candidates"] == []


def test_conjecture_text_lists_each_candidate(monkeypatch, capsys):
    """The off-diagonal walk of test_search.test_conjecture_reports_an_off_diagonal_walk,
    reached through the CLI's text output."""
    monkeypatch.setattr(search, "_majorization_matrix", two_cycle_walk)
    assert run(["conjecture", "--trials", "60", "--seed", "0", "--d", "4", "--resolution", "0.05"]) == 2
    lines = capsys.readouterr().out.splitlines()
    kept = endpoint_kept_trials(60, seed=0, d=4)
    candidates = [line for line in lines if line.startswith("candidate ")]
    assert kept and f"candidates {len(kept)}" in lines
    assert [int(line.split()[1].removeprefix("trial=")) for line in candidates] == kept
    assert all("cycle=(0.1, 0.25) best_standard=" in line for line in candidates)


def test_reproduce_supplement_section(capsys):
    assert run(["reproduce", "--section", "supplement"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "FAIL" not in out


def test_reproduce_json_mode(capsys):
    assert run(["reproduce", "--section", "supplement", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["all_pass"] is True
    assert all(row["pass"] for row in payload["results"])


def test_non_finite_entry_exits_one(capsys):
    assert run(["vidal", "--x", "nan,0.5,0.5", "--y", "0.5,0.5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    thermo = ["--x", "0.09,0.53,0.38", "--y", "0.11,0.75,0.14", "--beta", "1"]
    for argv in (
        ["gibbs", "--levels-s", "nan,1,2", "--beta", "1"],
        ["gibbs", "--levels-s", "inf,1,2", "--beta", "1"],
        ["scan-fig2", *thermo, "--levels-s", "0,1,2", "--levels-c", "0,nan", "--grid", "11"],
    ):
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: energy levels must be finite")


def test_overflowing_sum_exits_one(capsys):
    assert run(["vidal", "--x", "1e308,1e308", "--y", "0.5,0.5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: entries sum to inf, expected 1 within 1e-09\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["check-thermo"],
        ["check-thermo", "--levels-c", "0,1", "--cycle", "0.5,0.5;0.4,0.6"],
        ["scan-fig2", "--levels-c", "0,1", "--grid", "3"],
    ],
    ids=["check-thermo", "check-thermo-cycle", "scan-fig2"],
)
def test_thermal_dimension_mismatch_has_one_message(argv, capsys):
    # a 2-entry state against 3 system levels, however the check is reached
    mismatched = ["--x", "0.6,0.4", "--y", "0.5,0.3,0.2", "--levels-s", "0,1,2", "--beta", "1"]
    assert run([*argv, *mismatched]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: state dim 2 != reference dim 3\n"


def test_underflowing_composite_gibbs_weight_exits_one(capsys):
    # e^-400 * e^-400 underflows to 0.0, so there is no valid composite reference
    system = ["--x", "0.5,0.3,0.2", "--y", "0.6,0.3,0.1", "--levels-s", "0,1,400",
              "--levels-c", "0,400", "--beta", "1"]
    for argv in (["scan-fig2", *system, "--grid", "3"],
                 ["check-thermo", *system, "--cycle", "0.5,0.5;0.4,0.6"]):
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: reference distribution must be strictly positive\n"


def test_subnormal_gibbs_weight_exits_one(capsys):
    # e^-720 is subnormal: a system reference, or a composite one of normal factors
    fig2 = ["--x", "0.5,0.3,0.2", "--y", "0.6,0.3,0.1", "--beta", "1", "--json"]
    for levels in (["--levels-s", "0,1,720", "--levels-c", "0,1"],
                   ["--levels-s", "0,1,360", "--levels-c", "0,360"]):
        assert run(["scan-fig2", *fig2, *levels]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: reference weight ")
        assert "is subnormal" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["gibbs", "--levels-s", "0,1", "--beta", "-1"],
        ["gibbs", "--levels-s", "0,1000", "--beta", "-1"],
        ["check-thermo", *FIG2[:6], "--beta", "-0.5"],
        ["scan-fig2", *FIG2[:8], "--beta", "-1", "--grid", "11"],
    ],
)
def test_negative_beta_exits_one(argv, capsys):
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: beta must be non-negative\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["conjecture", "--trials", "5", "--resolution", "0"],
        ["conjecture", "--trials", "5", "--resolution", "0.6"],
        ["conjecture", "--trials", "5", "--d", "2"],
        ["conjecture", "--trials", "3", "--seed", "-1"],
        ["scan-fig1", "--x", DEMO_X, "--y", DEMO_Y, "--grid", "0"],
        ["best-catalyst", "--flexible", "--x", DEMO_X, "--y", DEMO_Y, "--grid", "0"],
        ["scan-fig2", *FIG2, "--range", "0:1.5", "--json"],  # a negative population
        ["scan-fig2", *FIG2, "--range", "0:inf", "--grid", "3"],
        ["best-catalyst", "--standard", "--x", DEMO_X, "--y", DEMO_Y, "--range", "0.4:0.5", "--grid", "7"],
        ["best-catalyst", "--standard", "--x", DEMO_X, "--y", DEMO_Y, "--range", "0.4:0.5"],
        ["best-catalyst", "--flexible", "--x", DEMO_X, "--y", DEMO_Y, "--resolution", "0.3"],
        ["check-thermo", *FIG2],  # --levels-c without --cycle
        ["scan-fig1", "--x", DEMO_X, "--y", DEMO_Y, "--grid", "3", "--json", "--out", "f.csv"],
        ["scan-fig2", *FIG2, "--grid", "3", "--json", "--pgm", "f.pgm"],
        # axes whose square grid numpy could not size, rejected before any allocation
        ["scan-fig1", "--x", DEMO_X, "--y", DEMO_Y, "--grid", "100000000000000000000"],
        ["scan-fig2", *FIG2, "--grid", "100000000000000000000"],
        ["scan-fig1", "--x", "0.5,0.3,0.2", "--y", "0.6,0.3,0.1", "--grid", "100000000000000000000", "--json"],
        ["best-catalyst", "--flexible", "--x", DEMO_X, "--y", DEMO_Y, "--grid", "100000000000000000000"],
        ["best-catalyst", "--standard", "--x", DEMO_X, "--y", DEMO_Y, "--resolution", "1e-300"],
        ["conjecture", "--trials", "1", "--resolution", "1e-300"],
        ["best-catalyst", "--standard", "--x", DEMO_X, "--y", DEMO_Y, "--resolution", "5e-324"],
        ["conjecture", "--trials", "1", "--resolution", "5e-324"],  # 0.5 / 5e-324 is inf
        ["check-flex", "--x", DEMO_X, "--y", DEMO_Y, "--cycle", ";"],
        # an empty field among others, a single trailing one included
        ["vidal", "--x", "0.5,,0.5", "--y", "0.5,0.5"],
        ["vidal", "--x", "0.5,0.5,", "--y", "0.5,0.5"],
        ["check-flex", "--x", DEMO_X, "--y", DEMO_Y, "--cycle", "0.8,0.2;;0.6,0.4"],
        ["scan-fig2", *FIG2, "--grid", "3", "--out", "same.out", "--pgm", "same.out"],
    ],
)
def test_bad_search_arguments_exit_one(argv, tmp_path, monkeypatch, capsys, recwarn):
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert captured.err.count("\n") == 1
    assert len(recwarn) == 0


NUMPY_OOM = "Unable to allocate 931. GiB for an array with shape (1000000, 1000000) and data type float64"


@pytest.mark.parametrize(
    "command, scan",
    [(["scan-fig1", "--x", DEMO_X, "--y", DEMO_Y], "scan_pflex_landscape"),
     (["scan-fig2", *FIG2], "scan_thermo_feasibility")],
    ids=["fig1", "fig2"],
)
@pytest.mark.parametrize("flags", [["--json"], []], ids=["json", "csv"])
@pytest.mark.parametrize(
    "exc, message",
    [(MemoryError(NUMPY_OOM), f"error: not enough memory: {NUMPY_OOM}\n"),
     (MemoryError(), "error: not enough memory: allocation failed\n")],
    ids=["numpy-message", "bare"],
)
def test_grid_too_large_for_memory_exits_one(command, scan, flags, exc, message, monkeypatch, capsys):
    # a valid --grid 1000000 asks for terabytes; the scan is replaced so nothing is allocated
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(search, scan, fail)
    assert run([*command, "--grid", "1000000", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message


@pytest.mark.parametrize(
    "command, instance, message",
    [
        ("gibbs", {"levels_s": 3, "beta": 1.0}, "instance key levels_s must be a list"),
        ("gibbs", {"levels_s": [0, 1], "beta": "hot"}, "instance key beta holds a non-number"),
        ("gibbs", {"levels_s": [0, 1], "beta": [1]}, "instance key beta holds a non-number"),
        ("gibbs", {"levels_s": [0, 1], "beta": "1"}, "instance key beta holds a non-number"),
        ("vidal", {"x": ["a", 0.5], "y": [0.5, 0.5]}, "instance key x holds a non-number"),
        ("vidal", {"x": [None, 1], "y": [0.5, 0.5]}, "instance key x holds a non-number"),
        ("vidal", {"x": [True, False], "y": [0.5, 0.5]}, "instance key x holds a non-number"),
        ("vidal", {"x": ["0.5", "0.5"], "y": [1, 0]}, "instance key x holds a non-number"),
        ("vidal", {"x": ["0.5", "0.5"], "y": ["1", "0"]}, "instance key x holds a non-number"),
        (
            "check-flex",
            {"x": [1, 0], "y": [1, 0], "cycle": [[1, 0], [0.5, "b"]]},
            "instance key cycle holds a non-number",
        ),
        ("check-flex", {"x": [0.5, 0.5], "y": [1, 0], "cycle": []}, "cycle is empty"),
        ("vidal", {"x": [10**400, 0], "y": [0.5, 0.5]}, "entry inf is not finite"),
        ("vidal", [0.5, 0.5], "instance.json must hold a JSON object"),
        ("vidal", None, "cannot read instance.json: [Errno 2] No such file or directory"),
    ],
    ids=["levels-not-list", "beta-string", "beta-list", "beta-numeric-string", "x-string", "x-null",
         "x-bool", "x-numeric-string", "xy-numeric-strings", "cycle-string", "empty-cycle",
         "x-int-past-float-range", "array", "missing-file"],
)
def test_instance_file_rejects_non_list_levels(tmp_path, monkeypatch, capsys, command, instance, message):
    monkeypatch.chdir(tmp_path)
    if instance is not None:  # None: no file is written
        Path("instance.json").write_text(json.dumps(instance))
    assert run([command, "--file", "instance.json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "blob, message",
    [
        (b"\xff\xfe{", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        (b"[" * 100_000 + b"]" * 100_000, "maximum recursion depth exceeded"),
    ],
    ids=["not-utf8", "deep-nesting"],
)
def test_malformed_instance_file_exits_one(blob, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("bad.json").write_bytes(blob)
    assert run(["vidal", "--file", "bad.json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: bad.json is not valid JSON: {message}")
    assert captured.err.count("\n") == 1


# Pools for the argv fuzz below, each a (valid, invalid) pair: invalid values
# overflow, are non-finite, empty, malformed or of the wrong dimension.
# Unequal dimensions are valid for the entanglement commands.
_BAD_VECTORS = ["1e308,1e308", "1e308,1e-308", "nan,0.5,0.5", "0.5,0.6", "-0.1,1.1", "", "a,b", "0.5,,0.5"]
FUZZ_POOLS = {
    "vector": (["0.5,0.3,0.2", "0.4,0.3,0.2,0.1", "0.6,0.4", DEMO_X, DEMO_Y, "0.2,0.3,0.5",
                "1,0,0", "0.5,0.5,0", "1"], _BAD_VECTORS),
    "state": (["0.5,0.3,0.2", "0.09,0.53,0.38", "0.11,0.75,0.14", "0.2,0.3,0.5", "1,0,0", "0.6,0.3,0.1"],
              [*_BAD_VECTORS, "0.6,0.4", "0.4,0.3,0.2,0.1"]),
    "cycle": (["0.8,0.2;0.6,0.4", "0.5,0.5", "1,0;0.5,0.5", "0.7,0.2,0.1;0.6,0.3,0.1"],
              ["0.7,0.2,0.1;0.6,0.4", "0.2,0.8", "nan,1", "1e308,1e308;0.5,0.5", ";",
               "0.8,0.2;;0.6,0.4"]),
    "thermal-cycle": (["0.82,0.18;0.59,0.41", "1,0;0.5,0.5", "0.2,0.8", "0.5,0.5;0.4,0.6;0.3,0.7"],
                      ["0.7,0.2,0.1;0.6,0.4", "nan,1", "1e308,1e308;0.5,0.5", ";", "0.5,0.3,0.2"]),
    "levels-s": (["0,1,2", "0,0,0", "0,1,40", "0,2,1"],
                 ["0,1e308", "-1e308,1e308", "nan,1,2", "", "0,1,2,3", "0,1"]),
    "levels-c": (["0,1", "0,0", "0,45"], ["0,1,2", "nan,0", "-1e308,1e308", ""]),
    "beta": (["1", "0", "0.5", "2"], ["-1", "nan", "inf", "1e308"]),
    "grid": (["2", "3", "7", "11"], ["-1", "0", "1"]),
    "range": (["0:0.5", "0.1:0.4", "0.2:0.3"], ["0.5:0.1", "0:1.5", "-0.1:0.3", "a:b", "0:inf", "nan:1", "0.2"]),
    "thermal-range": (["0:1", "0.2:0.9"], ["0.9:0.2", "0:1.5", "-0.1:0.3", "0:inf", "nan:1"]),
    "resolution": (["0.05", "0.1", "0.25", "0.5"], ["0.6", "0", "-0.1", "nan"]),
}


def _fuzz_argv(rng: np.random.Generator) -> list[str]:
    """One bounded argv: grid <= 11, trials <= 3, resolution >= 0.05 when valid.

    Options use the --name=value form, so values starting with "-" reach the
    command. Each value is invalid one time in eight, and an input is left out
    one time in sixteen.
    """

    def pick(values):
        return values[int(rng.integers(len(values)))]

    def opt(name, pool=None, required=False):
        if not required and rng.random() < 1 / 16:
            return []
        good, bad = FUZZ_POOLS[pool or name]
        return [f"--{name}={pick(bad if rng.random() < 1 / 8 else good)}"]

    command = pick(["check-major", "vidal", "check-flex", "check-thermo", "gibbs", "scan-fig1",
                    "scan-fig2", "best-catalyst", "conditions", "conjecture", "reproduce"])
    argv: list[str] = []
    if command in ("check-major", "vidal", "check-flex", "conditions", "scan-fig1", "best-catalyst"):
        argv = opt("x", "vector") + opt("y", "vector")
    elif command in ("check-thermo", "scan-fig2"):
        argv = opt("x", "state") + opt("y", "state") + opt("levels-s") + opt("beta")
    if command == "check-flex" or (command == "conditions" and rng.random() < 0.5):
        argv += opt("cycle")
    elif command == "check-thermo" and rng.random() < 0.5:
        argv += opt("levels-c") + opt("cycle", "thermal-cycle")
    elif command == "gibbs":
        argv = opt("levels-s") + opt("beta")
    elif command == "scan-fig1":
        argv += opt("grid", required=True) + (opt("range") if rng.random() < 0.5 else [])
    elif command == "scan-fig2":
        argv += opt("levels-c") + opt("grid", required=True)
        argv += opt("range", "thermal-range") if rng.random() < 0.5 else []
    elif command == "best-catalyst":
        if rng.random() < 0.5:
            argv += ["--flexible", *opt("grid", required=True)]
            argv += opt("range") if rng.random() < 0.5 else []
        else:
            argv += ["--standard", *opt("resolution", required=True)]
        if rng.random() < 1 / 8:  # an option that only the other mode takes
            argv.append(pick(["--grid=3", "--range=0:0.5", "--resolution=0.1"]))
    elif command == "conjecture":
        argv = [f"--trials={rng.integers(0, 4)}", f"--seed={rng.integers(-1, 6)}",
                f"--d={rng.integers(1, 7)}", *opt("resolution", required=True)]
    elif command == "reproduce":
        argv = [f"--section={pick(['entanglement', 'thermo', 'supplement'])}"]
    if command != "gibbs" and rng.random() < 0.5:
        argv.append("--json")
    return [command, *argv]


NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


def _unclean_run(argv: list[str], capsys) -> str | None:
    """What went wrong in one run, or None if it exits 0, 1 or 2 with no escaping
    exception or warning, an exit of 1 prints exactly one stderr line, and any
    other exit prints no stderr and no non-finite number."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(argv)
    except Exception as exc:  # noqa: BLE001 - every escape is a failure to report
        capsys.readouterr()
        return repr(exc)
    out, err = capsys.readouterr()
    if code not in (0, 1, 2):
        return f"exit {code}"
    if code == 1 and not (err.startswith("error:") and err.count("\n") == 1):
        return f"stderr {err!r}"
    if code != 1 and (err or NON_FINITE.search(out)):
        return f"exit {code} with stdout {out[:80]!r} and stderr {err!r}"
    return None


def test_cli_fuzz_exits_cleanly(capsys):
    """Seeded argv for every subcommand, each run checked by _unclean_run."""
    rng = np.random.default_rng(20261018)
    failures = []
    for _ in range(600):
        argv = _fuzz_argv(rng)
        problem = _unclean_run(argv, capsys)
        if problem:
            failures.append((argv, problem))
    assert not failures, f"{len(failures)} bad runs, first: {failures[:3]}"


# Pools for the instance-file fuzz below: JSON texts of plausible values per key
# and kind of command, and texts of every JSON type, including numbers past the
# float range, for any key.
_ENT_VECTORS = [[0.5, 0.3, 0.2], [0.4, 0.3, 0.2, 0.1], [0.6, 0.4], list(X_DEMO4), list(Y_DEMO4), [1, 0, 0]]
_STATES = [[0.09, 0.53, 0.38], [0.11, 0.75, 0.14], [0.5, 0.3, 0.2], [0.6, 0.3, 0.1]]
FILE_POOLS = {
    "entanglement": {"x": _ENT_VECTORS, "y": _ENT_VECTORS,
                     "cycle": [[[0.6333, 0.2667, 0.1], [0.6167, 0.2833, 0.1]], [[0.8, 0.2], [0.6, 0.4]]]},
    "thermal": {"x": _STATES, "y": _STATES, "levels_s": [[0, 1, 2], [0, 0, 0], [0, 1, 40]],
                "levels_c": [[0, 1], [0, 45]], "beta": [1, 0, 0.5],
                "cycle": [[[0.82, 0.18], [0.59, 0.41]], [[1, 0], [0.5, 0.5]]]},
}
ANY_JSON = ["0.5", "1", "0", "-1", "1e400", "-1e400", "1e308", "1" + "0" * 400, '"0.5"', '"a"', '""',
            "true", "false", "null", "[]", "[[]]", "{}", '{"x": 1}', "[0.5, 0.5]", "[1e400, 0]",
            '[0.5, "b"]', "[true, false]", "[null]", "[[0.5, 0.5], [0.4, 0.6]]", "[[1e400, 0]]",
            "[[0.5, 0.5], [0.2, 0.3, 0.5]]", "[0.5, [0.5]]"]
FILE_COMMANDS = {  # every subcommand that takes --file, with its bounded options
    "check-major": ("entanglement", []), "vidal": ("entanglement", []),
    "check-flex": ("entanglement", []), "conditions": ("entanglement", []),
    "check-thermo": ("thermal", []), "gibbs": ("thermal", []),
    "scan-fig1": ("entanglement", ["--grid", "3", "--json"]),
    "scan-fig2": ("thermal", ["--grid", "3", "--json"]),
    "best-catalyst --standard": ("entanglement", []),
    "best-catalyst --flexible": ("entanglement", ["--grid", "5"]),
}


def _fuzz_instance(rng: np.random.Generator, kind: str) -> bytes:
    """One instance file: each key present 15 times in 16, its value plausible seven
    times in eight, an unknown key one time in eight, and one time in eight the
    whole file corrupted."""
    def pick(values):
        return values[int(rng.integers(len(values)))]

    def value(key):
        plausible = FILE_POOLS[kind].get(key)
        return json.dumps(pick(plausible)) if plausible and rng.random() < 7 / 8 else pick(ANY_JSON)

    keys = ("x", "y", "levels_s", "levels_c", "beta", "cycle")
    fields = [f'"{key}": {value(key)}' for key in keys if rng.random() < 15 / 16]
    if rng.random() < 1 / 8:
        fields.append(f'"zeta": {pick(ANY_JSON)}')
    text = ("{" + ", ".join(fields) + "}").encode()
    if rng.random() >= 1 / 8:
        return text
    corruption = pick(["array", "truncated", "not-utf8", "deep"])
    cut = int(rng.integers(len(text)))
    if corruption == "array":
        return b"[" + text + b"]"
    if corruption == "truncated":
        return text[:cut]
    if corruption == "not-utf8":
        return text[:cut] + b"\xff" + text[cut:]
    return b"[" * 100_000 + b"]" * 100_000


def test_instance_file_fuzz_exits_cleanly(tmp_path, capsys):
    """Seeded instance files for every subcommand that takes --file, each run
    checked by _unclean_run."""
    rng = np.random.default_rng(20261019)
    commands = list(FILE_COMMANDS)
    failures = []
    for i in range(300):
        command = commands[int(rng.integers(len(commands)))]
        kind, options = FILE_COMMANDS[command]
        path = tmp_path / f"{i}.json"
        path.write_bytes(_fuzz_instance(rng, kind))
        argv = [*command.split(), "--file", str(path), *options]
        if "--json" not in options and rng.random() < 0.5:
            argv.append("--json")
        problem = _unclean_run(argv, capsys)
        if problem:
            failures.append((argv, path.read_bytes()[:200], problem))
    assert not failures, f"{len(failures)} bad runs, first: {failures[:3]}"
