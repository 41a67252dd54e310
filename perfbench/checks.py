"""Correctness checks of one pass against the stored reference outputs.

One operation is one checked output value: a profile row, a gap row, a Monte
Carlo mean or a Wilson invariant.  ``check_pass`` returns (attempted, failed)
for one pass.  A value missing from either side counts as attempted and failed.
"""

from __future__ import annotations

import math
import os

from workloads import WORKLOADS

MC_SLACK_SE = 4.0  # combined standard errors, the slack the test suite states
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
WILSON_COLUMNS = ("trel_multiple", "pi_a_t", "pi_mean_out_sq")


def read_csv(path):
    """Rows of a harness CSV as dicts of strings, skipping ``#`` comments."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if not ln.startswith("#")]
    columns = lines[0].split(",")
    return [dict(zip(columns, ln.split(","))) for ln in lines[1:] if ln]


def csv_body(path) -> str:
    """File text without the ``# generated`` timestamp line."""
    with open(path, "r", encoding="utf-8") as fh:
        return "".join(ln for ln in fh if not ln.startswith("# generated"))


def max_abs_diff(body_a: str, body_b: str) -> float:
    """Largest absolute difference between matching cells of two CSV bodies
    (inf where the shapes or a non-numeric cell differ)."""
    rows_a, rows_b = body_a.splitlines(), body_b.splitlines()
    if len(rows_a) != len(rows_b):
        return math.inf
    worst = 0.0
    for ra, rb in zip(rows_a, rows_b):
        cells_a, cells_b = ra.split(","), rb.split(",")
        if len(cells_a) != len(cells_b):
            return math.inf
        for a, b in zip(cells_a, cells_b):
            if a == b:
                continue
            try:
                x, y = float(a), float(b)
            except ValueError:
                return math.inf
            worst = max(worst, abs(x - y))
    return worst


def _close(a: str, b: str, tol: float) -> bool:
    return abs(float(a) - float(b)) <= tol


def _profile_row_ok(row, ref, tol):
    """Same row identity, every numeric column within ``tol`` (absolute)."""
    return (row["experiment"] == ref["experiment"] and row["kind"] == ref["kind"]
            and row["k"] == ref["k"]
            and all(_close(row[c], ref[c], tol)
                    for c in ("t", "t_normalized", "value", "stderr")))


def _gap_row_ok(row, ref, tol):
    """Status ok and the gap within relative ``tol`` of the reference."""
    return (row["graph"] == ref["graph"] and row["k"] == ref["k"]
            and row["status"] == "ok"
            and abs(float(row["gap"]) / float(ref["gap"]) - 1.0) <= tol)


def _mc_row_ok(row, ref, _tol):
    """Same time, mean within MC_SLACK_SE combined standard errors."""
    if not math.isclose(float(row["t"]), float(ref["t"]), rel_tol=1e-12):
        return False
    se = math.hypot(float(row["stderr"]), float(ref["stderr"]))
    return abs(float(row["value"]) - float(ref["value"])) <= MC_SLACK_SE * se


_RULES = {
    "profile": (_profile_row_ok, lambda r: True),
    "gap": (_gap_row_ok, lambda r: True),
    "montecarlo": (_mc_row_ok, lambda r: r["kind"] == "wasserstein"),
}


def check(rule: str, out_path, ref_path, tol: float):
    """(attempted, failed) for one output CSV against its reference."""
    row_ok, selected = _RULES[rule]
    refs = [r for r in read_csv(ref_path) if selected(r)]
    try:
        rows = [r for r in read_csv(out_path) if selected(r)]
    except (IndexError, KeyError, UnicodeDecodeError):
        return len(refs), len(refs)  # unreadable output: every value fails
    attempted = max(len(refs), len(rows))
    passed = 0
    for row, ref in zip(rows, refs):
        try:
            passed += bool(row_ok(row, ref, tol))
        except (KeyError, ValueError, ZeroDivisionError):
            pass
    return attempted, attempted - passed


def check_wilson(rows, ref_path, tol: float):
    """(attempted, failed) for a pass's Wilson invariants (rows of
    WILSON_COLUMNS values) against their reference, each within relative
    ``tol``.  ``rows`` is None when the pass did not report them."""
    refs = read_csv(ref_path)
    attempted = (len(WILSON_COLUMNS) - 1) * len(refs)
    passed = 0
    for row, ref in zip(rows or (), refs):
        if row[0] != float(ref[WILSON_COLUMNS[0]]):
            continue
        passed += sum(abs(got / float(ref[col]) - 1.0) <= tol
                      for got, col in zip(row[1:], WILSON_COLUMNS[1:]))
    return attempted, attempted - passed


def check_pass(name: str, result, out_path):
    """(attempted, failed) for one pass of workload ``name``.  ``result`` is
    the pass's pass.json dict, or None if the pass failed: then every value
    it should have produced fails."""
    workload = WORKLOADS[name]
    ref = os.path.join(REFERENCE, f"{name}.csv")
    tol = float(workload.config.get("tol", 1e-9))
    if result is None:
        _, selected = _RULES[workload.check]
        attempted = failed = sum(1 for r in read_csv(ref) if selected(r))
    else:
        attempted, failed = check(workload.check, out_path, ref, tol)
    if workload.wilson_trel:
        more, bad = check_wilson(result and result.get("wilson"),
                                 os.path.join(REFERENCE, f"{name}_wilson.csv"), tol)
        attempted, failed = attempted + more, failed + bad
    return attempted, failed
