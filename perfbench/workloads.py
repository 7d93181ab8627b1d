"""Workloads of the bianchi benchmark and the known answer of every verdict.

Each workload is one closed-loop round of work run in a fresh process: one
thread, one call after another.  The seed is the only input; it selects the
sampling seed of every check and, in ``mutation_sweep``, which Christoffel
symbols are mutated.

Known answers:

- On an unmutated case every check is a theorem: it must pass with a finite
  residual.  A failed or non-finite verdict is wrong.
- Every off-diagonal mutant Gamma^k_ij += 1 (i != j) shifts the torsion by 1,
  so it must fail ``D1``.  Its other verdicts have no known answer, but a
  non-finite residual is still wrong.
- A verdict lost to an exception is wrong.
- The known rounding defect (see ``is_known_defect``) is counted as wrong like
  any other and only kept apart in the report.
"""

from __future__ import annotations

import contextlib
import decimal
import functools
import hashlib
import io
import json
import math
import random
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
CASE_FILE = HERE / "heisenberg.case"

NAMES = ("gallery_verify", "few_points", "mutation_sweep")

# The gallery cases of gallery_verify and few_points: a Levi-Civita case of
# dimension 2 and a random torsionful connection of dimension 3, both
# evaluation-heavy at the default 20 points.  Two tuples instead of the
# default five keep a round near 6 s, so that several rounds fit in a run.
GALLERY_CASES = ("random_poly", "sphere_lc")
GALLERY_TUPLES = 2
FEW_POINTS_TUPLES = 3

# The program's known wrong verdicts: its float64 cancellation error can
# exceed the default absolute tolerance 1e-8, most of all on sphere_lc, whose
# curvature terms are large (E1: 1.23e-7 at seed 0; B2v: 1.88e-8 at seed 9;
# S2: 1.30e-8 at seed 2023928098).  A failed theorem is that defect when its
# sides, evaluated again at the same points with PRECISION significant digits,
# agree within the check's tolerance; a broken identity still fails then.
PRECISION = 50

# Mutated gallery cases of dimension 2, 3 and 4, and how many off-diagonal
# Christoffel symbols of each one round mutates.
MUTATION_CASES = (("sphere_lc", 2), ("flat_with_torsion", 2), ("foliation_adapted_n4", 1))
MUTATION_POINTS = 10
MUTATION_TUPLES = 2


def cli_argv(name: str, seed: int) -> list[str]:
    argv = ["verify"]
    for case_id in GALLERY_CASES:
        argv += ["--case", case_id]
    if name == "few_points":
        argv += ["--case-file", str(CASE_FILE), "--points", "1", "--tuples", str(FEW_POINTS_TUPLES)]
    else:
        argv += ["--tuples", str(GALLERY_TUPLES)]
    return argv + ["--case-checks", "--format", "json", "--seed", str(seed)]


def _row(case, check, passed, residual, mutant=None, lost=None, config=None) -> dict:
    return {
        "case": case,
        "check": check,
        "mutant": mutant,
        "pass": passed,
        "residual": residual,
        "lost": lost,
        "config": config,
    }


def _run_cli(name: str, seed: int) -> tuple[list[dict], str]:
    from bianchi import cli

    buffer = io.StringIO()
    try:
        with contextlib.redirect_stdout(buffer):
            code = cli.main(cli_argv(name, seed))
    except Exception:
        return [_row(None, None, None, None, lost=traceback.format_exc())], ""
    text = buffer.getvalue()
    if code not in (0, 1):
        return [_row(None, None, None, None, lost=f"verify exited with {code}")], text
    rows = [
        _row(r["case"], r["check"], r["pass"], r["max_residual"],
             config={"points": r["points"], "tuples": r["tuples"], "tolerance": r["tol"], "seed": r["seed"]})
        for r in json.loads(text)
    ]
    if code != (0 if all(r["pass"] for r in rows) else 1):
        for row in rows:
            row["lost"] = f"exit code {code} contradicts the verdicts"
    return rows, text


def mutants(seed: int, case) -> list[tuple[int, int, int]]:
    """Off-diagonal Christoffel indices (k, i, j), i != j, chosen by the seed."""
    n = case.chart.dim
    count = dict(MUTATION_CASES)[case.id]
    candidates = [(k, i, j) for k in range(n) for i in range(n) for j in range(n) if i != j]
    return random.Random(f"mutation_sweep/{seed}/{case.id}").sample(candidates, count)


def _run_mutations(seed: int) -> tuple[list[dict], str]:
    from bianchi import gallery
    from bianchi import identity_suite as ids

    config = ids.CheckConfig(points=MUTATION_POINTS, tuples=MUTATION_TUPLES, seed=seed)
    rows = []
    for case_id, _ in MUTATION_CASES:
        case = gallery.build_case(case_id)
        checks = [c for c in sorted(ids.CATALOG) if ids.CATALOG[c].applicable(case)]
        for index in mutants(seed, case):
            mutant = list(index)
            try:
                reports = ids.mutation_probe(case, checks, index=index, delta=1, config=config)
            except Exception:
                lost = traceback.format_exc()
                rows += [_row(case_id, c, None, None, mutant, lost) for c in checks]
                continue
            rows += [_row(case_id, r.check_id, r.passed, r.max_residual, mutant) for r in reports]
    return rows, json.dumps(rows, sort_keys=True)


def run(name: str, seed: int) -> tuple[list[dict], str]:
    """Run one round; return its verdict rows and the sha256 of its output."""
    if name == "mutation_sweep":
        rows, text = _run_mutations(seed)
    else:
        rows, text = _run_cli(name, seed)
    return rows, hashlib.sha256(text.encode()).hexdigest()


def wrong_reason(row: dict) -> str | None:
    """Why a verdict row is wrong, or None when it matches its known answer."""
    if row["lost"] is not None:
        return "lost: " + row["lost"].strip().splitlines()[-1]
    if not math.isfinite(row["residual"]):
        return f"non-finite residual {row['residual']!r}"
    if row["mutant"] is not None:
        if row["check"] == "D1" and row["pass"]:
            return "mutant passed D1"
        return None
    if not row["pass"]:
        return f"theorem failed: residual {row['residual']:.3e}"
    return None


def _decimal_evaluate(e, point):
    """``symexpr.evaluate`` in decimal arithmetic of the current context."""
    from bianchi import symexpr as se

    memo: dict[int, decimal.Decimal] = {}

    def sin_cos(x):
        # Taylor series; sampled coordinates are small, so no argument reduction
        s = c = decimal.Decimal(0)
        term, n = decimal.Decimal(1), 0
        tiny = decimal.Decimal(10) ** -(PRECISION + 10)
        while n <= abs(x) or abs(term) > tiny:
            if n % 4 == 0:
                c += term
            elif n % 4 == 1:
                s += term
            elif n % 4 == 2:
                c -= term
            else:
                s -= term
            n += 1
            term = term * x / n
        return s, c

    def ev(node):
        got = memo.get(id(node))
        if got is not None:
            return got
        if isinstance(node, se.Const):
            out = decimal.Decimal(node.value.numerator) / node.value.denominator
        elif isinstance(node, se.Var):
            out = decimal.Decimal(point[node.name])
        elif isinstance(node, se.Add):
            out = ev(node.a) + ev(node.b)
        elif isinstance(node, se.Mul):
            out = ev(node.a) * ev(node.b)
        elif isinstance(node, se.Div):
            out = ev(node.a) / ev(node.b)
        elif isinstance(node, se.Pow):
            out = ev(node.base) ** node.exponent
        elif isinstance(node, se.Neg):
            out = -ev(node.arg)
        elif isinstance(node, (se.Sin, se.Cos)):
            out = sin_cos(ev(node.arg))[isinstance(node, se.Cos)]
        elif isinstance(node, se.Exp):
            out = ev(node.arg).exp()
        elif isinstance(node, se.Ln):
            out = ev(node.arg).ln()
        else:
            raise TypeError(f"cannot evaluate {type(node).__name__}")
        memo[id(node)] = out
        return out

    return ev(e)


def _case(case_id: str):
    from bianchi import casefile, gallery

    if case_id in gallery.case_ids():
        return gallery.build_case(case_id)
    case = casefile.load_case_file(CASE_FILE).case
    if case.id != case_id:
        raise ValueError(f"no case {case_id!r} in the gallery or {CASE_FILE.name}")
    return case


def recheck(case, check_id: str, config):
    """The report of one catalog check on ``case``, its sides evaluated with
    PRECISION significant digits at the same points as in float64.  (The
    workloads' cases have no case-specific checks.)

    Runs the check in this process with ``symexpr.evaluate`` replaced.
    """
    from bianchi import symexpr
    from bianchi import identity_suite as ids

    float_evaluate = symexpr.evaluate
    symexpr.evaluate = _decimal_evaluate
    try:
        with decimal.localcontext(decimal.Context(prec=PRECISION)):
            return ids.check_identity(check_id, case, config)
    finally:
        symexpr.evaluate = float_evaluate


@functools.cache
def _precise_residual(case_id: str, check_id: str, config: tuple) -> float:
    from bianchi import identity_suite as ids

    try:
        report = recheck(_case(case_id), check_id, ids.CheckConfig(**dict(config)))
    except Exception:
        traceback.print_exc()
        return math.inf
    return float(report.max_residual)


def precise_residual(row: dict) -> float:
    """The residual of an unmutated verdict row at PRECISION digits; inf when
    that cannot be computed."""
    return _precise_residual(row["case"], row["check"], tuple(sorted(row["config"].items())))


def is_known_defect(row: dict) -> bool:
    """Whether a wrong verdict is the known rounding defect: a failed theorem
    with a finite residual that passes its tolerance at PRECISION digits."""
    return (
        row["mutant"] is None
        and row["lost"] is None
        and not row["pass"]
        and math.isfinite(row["residual"])
        and precise_residual(row) <= row["config"]["tolerance"]
    )
