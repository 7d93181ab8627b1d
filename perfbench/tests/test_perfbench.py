"""Self-tests of the benchmark's tracer and runner.

    python3 -m pytest perfbench/tests -q
"""

import cProfile
import dataclasses
import decimal
import json
import pstats
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from bianchi import connection as con  # noqa: E402
from bianchi import gallery  # noqa: E402
from bianchi import identity_suite as ids  # noqa: E402
from bianchi import structure_forms as sf  # noqa: E402
from bianchi import symexpr as se  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

CONFIG = ids.CheckConfig(points=2, tuples=1)
COMPARED = {
    "symexpr.evaluate": se.evaluate,
    "symexpr.differentiate": se.differentiate,
    "connection.torsion": con.torsion,
    "connection.curvature": con.curvature,
}


def _suite():
    return ids.run_suite(gallery.build_case("flat_with_torsion"), CONFIG)


def test_traced_counts_equal_cprofile_ncalls():
    with Tracer() as tracer:
        traced_reports = _suite()
    profile = cProfile.Profile()
    profile.enable()
    try:
        reports = _suite()
    finally:
        profile.disable()
    stats = pstats.Stats(profile).stats
    for key, fn in COMPARED.items():
        code = fn.__code__
        ncalls = stats[(code.co_filename, code.co_firstlineno, code.co_name)][1]
        assert tracer.calls[key] == ncalls, key
        assert ncalls > 0
    assert [r.to_json_dict() for r in traced_reports] == [r.to_json_dict() for r in reports]


def test_uninstall_restores_every_binding():
    before = (se.evaluate, se.add, con.torsion, sf.torsion, sf.curvature, ids.CATALOG["S1"])
    tracer = Tracer().install()
    assert sf.torsion is con.torsion is not before[2]
    tracer.uninstall()
    after = (se.evaluate, se.add, con.torsion, sf.torsion, sf.curvature, ids.CATALOG["S1"])
    assert all(a is b for a, b in zip(before, after))


def test_self_times_partition_the_traced_time():
    with Tracer() as tracer:
        start = tracer.now()
        _suite()
        total = tracer.now() - start
    spans = sum(tracer.self_s.values())
    assert 0 < spans <= total
    layers = tracer.layer_metrics()
    phases = sum(layers[f"identity_suite.{p}_s"] for p in ("sample", "factory", "build", "evaluate", "verdict"))
    assert phases == pytest.approx(tracer.inclusive_s["identity_suite.check_identity"])
    assert layers["identity_suite.pairs"] == sum(r["pairs"] for r in tracer.records)


def _traced_round(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), workload, str(seed), "--trace"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=300,
    )
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_counts_repeat_across_processes(workload):
    first, second = (_traced_round(workload, 3) for _ in range(2))
    assert first["trace"]["counts"] == second["trace"]["counts"]
    assert first["sha256"] == second["sha256"]
    assert first["probe_samples"] > 10


def test_decimal_evaluate_matches_float_evaluate():
    expr = se.parse("sin(x)*cos(y)^2/(1+x^2) - exp(-y)*ln(2+x) + 3/7", ["x", "y"])
    for point in ({"x": 0.3, "y": -1.7}, {"x": 2.9, "y": 4.1}):
        with decimal.localcontext(decimal.Context(prec=workloads.PRECISION)):
            precise = workloads._decimal_evaluate(expr, point)
        assert float(precise) == pytest.approx(se.evaluate(expr, point), rel=1e-14, abs=1e-15)


def _row(check, residual, mutant=None):
    config = {"points": 20, "tuples": 2, "tolerance": 1e-8, "seed": 0}
    return {"case": "sphere_lc", "check": check, "mutant": mutant, "pass": False,
            "residual": residual, "lost": None, "config": config}


def test_rounding_failure_is_the_known_defect():
    row = _row("E1", 1.23e-7)  # gallery_verify at seed 0
    assert workloads.wrong_reason(row) is not None
    assert workloads.precise_residual(row) < 1e-30
    assert workloads.is_known_defect(row)
    assert not workloads.is_known_defect(_row("E1", float("nan")))
    assert not workloads.is_known_defect(_row("D1", 1.0, mutant=[1, 0, 1]))


def test_broken_identity_still_fails_at_high_precision():
    case = gallery.build_case("flat_with_torsion")
    mutant = dataclasses.replace(
        case, id="flat_with_torsion+mutated",
        connection=case.connection.perturbed(2, 0, 1, 1), rhs_connection=case.connection,
    )
    report = workloads.recheck(mutant, "D1", CONFIG)
    assert not report.passed
    assert report.max_residual > 0.5


def test_speed_probe_samples_the_round():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "mutation_sweep", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=300,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["probe_samples"] > 10
    assert 0 < result["setup_speed"] and 0 < result["speed"]
    assert "trace" not in result


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("traces", "__pycache__"))
    if (ROOT / "BENCHMARK.json").exists():
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gallery_verify", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
