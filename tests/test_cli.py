"""CLI tests: exit codes, output formats, determinism, and case-file parsing."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from bianchi import casefile, cli, gallery

ALL_CHECKS = [
    "B1", "B1v", "B2", "B2v", "C1", "C2", "CS1", "CS2", "D1", "D2",
    "DB1", "DB2", "E1", "LC1", "S1", "S1p", "S2", "S2p",
]
CONTACT_CHECKS = [
    "reeb-parallel", "reeb-covector-parallel", "reeb-connection-form-vanishes",
    "reeb-curvature-form-vanishes", "reeb-contracted-second-bianchi",
]


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


METRIC_CASE = """
[chart]
name = heisenberg
coords = x y z

[metric]
1 1 = 1/2 + y^2
1 3 = -y
2 2 = 1/2
3 3 = 1

[forms]
alpha[1] = -y
alpha[3] = 1

[fields]
V[3] = 1
"""

TORSION_CASE = """
[chart]
coords = x y z

[christoffel]
3 1 2 = 1
3 2 1 = -1
"""


@pytest.fixture
def metric_case(tmp_path):
    path = tmp_path / "heisenberg.case"
    path.write_text(METRIC_CASE)
    return str(path)


@pytest.fixture
def torsion_case(tmp_path):
    path = tmp_path / "skew.case"
    path.write_text(TORSION_CASE)
    return str(path)


# -- verify -----------------------------------------------------------------------


def test_verify_single_case_json(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--case", "flat_euclidean", "--all-checks",
        "--format", "json", "--points", "4", "--tuples", "2",
    )
    assert code == 0
    reports = json.loads(out)
    assert [r["check"] for r in reports] == ALL_CHECKS
    assert all(r["pass"] for r in reports)
    assert list(reports[0]) == [
        "case", "check", "points", "tuples", "max_residual", "tol", "pass", "seed",
    ]


def test_verify_unknown_case_exits_2(capsys):
    code, out, err = run_cli(capsys, "verify", "--case", "nonexistent")
    assert code == 2
    assert out == ""
    assert "unknown case" in err


def test_verify_seeded_random_case_single_check(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--case", "random_poly:7", "--check", "B2",
        "--points", "8", "--tuples", "2",
    )
    assert code == 0
    assert "B2" in out and "pass" in out


def test_verify_json_runs_are_byte_identical(capsys):
    argv = (
        "verify", "--case", "flat_with_torsion", "--format", "json",
        "--points", "5", "--tuples", "2", "--seed", "3",
    )
    code_a, out_a, _ = run_cli(capsys, *argv)
    code_b, out_b, _ = run_cli(capsys, *argv)
    assert code_a == code_b == 0
    assert out_a == out_b


def test_verify_json_output_matches_the_pinned_digest(capsys):
    """Default JSON output is byte-identical across refactors.  These cases
    evaluate only Add, Const, Mul, Neg and Var nodes, so the digits do not
    depend on the platform's libm."""
    code, out, _ = run_cli(
        capsys,
        "verify", "--case", "flat_with_torsion", "--case", "random_poly",
        "--case", "foliation_adapted", "--case-checks", "--points", "5",
        "--tuples", "2", "--format", "json", "--seed", "0",
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "b6a8e95ecbf72e93badf7bd12e2f494e84b5028eca3ce38ad783606f5c7f985a"
    )


def test_verify_application_checks_match_the_pinned_digest(capsys):
    """JSON output of the foliation and mechanics checks is byte-identical
    across refactors; like the pin above it needs no libm (``contact_r3``
    evaluates powers and is left out)."""
    code, out, _ = run_cli(
        capsys,
        "verify", "--case", "foliation_adapted_n4", "--case", "sode_oscillator",
        "--case-checks", "--points", "5", "--tuples", "2", "--format", "json",
        "--seed", "0",
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "6e5d70ec05c656b93b681124dc2cb647f1bbcd7781fb71a8acdd8f448e7db9f0"
    )


def test_verify_orders_output_by_case_then_check(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--case", "flat_with_torsion", "--case", "flat_euclidean",
        "--check", "S1", "--check", "D1", "--points", "3", "--tuples", "1",
        "--format", "json",
    )
    assert code == 0
    rows = [(r["case"], r["check"]) for r in json.loads(out)]
    assert rows == [
        ("flat_euclidean", "D1"),
        ("flat_euclidean", "S1"),
        ("flat_with_torsion", "D1"),
        ("flat_with_torsion", "S1"),
    ]


def test_verify_check_and_all_checks_conflict(capsys):
    code, _, err = run_cli(capsys, "verify", "--check", "S1", "--all-checks")
    assert code == 2
    assert "mutually exclusive" in err


def test_verify_unknown_check_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify", "--case", "flat_euclidean", "--check", "ZZ")
    assert code == 2
    assert "unknown check" in err


def test_verify_bad_points_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify", "--case", "flat_euclidean", "--points", "0")
    assert code == 2
    assert "points" in err


def test_verify_inapplicable_explicit_check_is_skipped_with_note(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--case", "flat_with_torsion", "--check", "LC1",
        "--points", "3", "--tuples", "1", "--format", "json",
    )
    assert code == 0
    assert json.loads(out) == []
    assert "not applicable" in err


def test_verify_failure_exits_1(capsys):
    """Absolute residuals on the sphere exceed 1e-8 for the composed
    structure-equation check; the relative flag rescales and passes."""
    argv = ("verify", "--case", "sphere_lc", "--check", "E1", "--seed", "0")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 1
    assert "FAIL" in out
    code, out, _ = run_cli(capsys, *argv, "--relative")
    assert code == 0
    assert "FAIL" not in out


def test_verify_case_checks_flag_appends_structure_checks(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--case", "contact_r3", "--check", "S1",
        "--case-checks", "--points", "4", "--tuples", "2", "--format", "json",
    )
    assert code == 0
    ids = [r["check"] for r in json.loads(out)]
    assert ids == sorted(["S1", *CONTACT_CHECKS])


# -- list and describe ---------------------------------------------------------------


def test_list_checks_covers_the_catalog(capsys):
    code, out, _ = run_cli(capsys, "list", "checks")
    assert code == 0
    listed = [line.split()[0] for line in out.strip().splitlines()]
    assert listed == ALL_CHECKS


def test_list_cases_covers_the_gallery(capsys):
    code, out, _ = run_cli(capsys, "list", "cases")
    assert code == 0
    listed = [line.split()[0] for line in out.strip().splitlines()]
    assert listed == gallery.case_ids()


def test_describe_contact_case_prints_structure_and_checks(capsys):
    code, out, _ = run_cli(capsys, "describe-case", "contact_r3")
    assert code == 0
    assert "(-y) dx + (1) dz" in out
    assert "reeb field: (1) d/dz" in out
    for check_id in CONTACT_CHECKS:
        assert check_id in out


def test_describe_unknown_case_exits_2(capsys):
    code, _, err = run_cli(capsys, "describe-case", "nonexistent")
    assert code == 2
    assert "unknown case" in err


# -- case files -----------------------------------------------------------------------


def test_metric_case_file_gets_levi_civita_connection(metric_case):
    loaded = casefile.load_case_file(metric_case)
    assert loaded.case.id == "heisenberg"
    assert loaded.case.torsion_free
    assert not loaded.case.flat
    assert loaded.case.metric is not None
    assert loaded.case.coframe is not None
    assert set(loaded.forms) == {"alpha"}
    assert loaded.forms["alpha"].degree == 1
    assert set(loaded.fields) == {"V"}


def test_metric_case_file_verifies_clean(capsys, metric_case):
    code, out, _ = run_cli(
        capsys, "verify", "--case-file", metric_case,
        "--points", "4", "--tuples", "2", "--format", "json",
    )
    assert code == 0
    reports = json.loads(out)
    assert [r["check"] for r in reports] == ALL_CHECKS
    assert all(r["pass"] for r in reports)


def test_christoffel_case_file_probes_flags(torsion_case):
    loaded = casefile.load_case_file(torsion_case)
    assert loaded.case.flat
    assert not loaded.case.torsion_free


def test_torsion_case_file_skips_the_torsion_free_check(capsys, torsion_case):
    code, out, _ = run_cli(
        capsys, "verify", "--case-file", torsion_case,
        "--points", "4", "--tuples", "2", "--format", "json",
    )
    assert code == 0
    ids = [r["check"] for r in json.loads(out)]
    assert "LC1" not in ids
    assert len(ids) == 17


def test_describe_case_file_prints_named_objects(capsys, metric_case):
    code, out, _ = run_cli(capsys, "describe-case", "ignored", "--case-file", metric_case)
    assert code == 0
    assert "form alpha: (-y) dx + (1) dz" in out
    assert "field V: (1) d/dz" in out


def test_case_file_without_chart_section_rejected(tmp_path, capsys):
    path = tmp_path / "no_chart.case"
    path.write_text("[christoffel]\n1 1 1 = x\n")
    with pytest.raises(casefile.CaseFileError, match="chart"):
        casefile.load_case_file(str(path))
    code, _, err = run_cli(capsys, "verify", "--case-file", str(path))
    assert code == 2
    assert "chart" in err


def test_case_file_bad_expression_rejected(tmp_path):
    path = tmp_path / "bad_expr.case"
    path.write_text("[chart]\ncoords = x y\n\n[christoffel]\n1 1 1 = x +\n")
    with pytest.raises(casefile.CaseFileError, match="christoffel"):
        casefile.load_case_file(str(path))


def test_case_file_unknown_variable_rejected(tmp_path):
    path = tmp_path / "bad_var.case"
    path.write_text("[chart]\ncoords = x y\n\n[christoffel]\n1 1 1 = q\n")
    with pytest.raises(casefile.CaseFileError):
        casefile.load_case_file(str(path))


def test_case_file_index_out_of_range_rejected(tmp_path):
    path = tmp_path / "bad_index.case"
    path.write_text("[chart]\ncoords = x y\n\n[christoffel]\n3 1 1 = x\n")
    with pytest.raises(casefile.CaseFileError, match="out of range"):
        casefile.load_case_file(str(path))


def test_case_file_incompatible_pair_rejected(tmp_path, capsys):
    path = tmp_path / "incompatible.case"
    path.write_text(
        "[chart]\ncoords = x y\n\n[christoffel]\n1 1 1 = y\n\n[metric]\n1 1 = 1\n2 2 = 1\n"
    )
    with pytest.raises(gallery.CaseValidationError, match="compatible"):
        casefile.load_case_file(str(path))
    code, _, err = run_cli(capsys, "verify", "--case-file", str(path))
    assert code == 2
    assert "compatible" in err


def test_case_file_range_overrides(tmp_path):
    path = tmp_path / "ranges.case"
    path.write_text(
        "[chart]\ncoords = x y\nrange = -2 2\nrange y = 0.5 1.5\n"
    )
    chart = casefile.load_case_file(str(path)).case.chart
    assert chart.intervals == ((-2.0, 2.0), (0.5, 1.5))


def test_case_file_duplicate_metric_pair_rejected(tmp_path):
    path = tmp_path / "dup.case"
    path.write_text("[chart]\ncoords = x y\n\n[metric]\n1 2 = x\n2 1 = x\n")
    with pytest.raises(casefile.CaseFileError, match="twice"):
        casefile.load_case_file(str(path))


def test_case_file_form_indices_must_increase(tmp_path):
    path = tmp_path / "decreasing.case"
    path.write_text("[chart]\ncoords = x y z\n\n[forms]\nw[2,1] = x\n")
    with pytest.raises(casefile.CaseFileError, match="increasing"):
        casefile.load_case_file(str(path))


@pytest.mark.parametrize("command", ["verify", "describe-case"])
@pytest.mark.parametrize(
    "chart_range, culprit",
    [("", "ln(x)"), ("range = 800 900\n", "exp(x)")],
    ids=["ln", "exp"],
)
def test_case_file_domain_error_exits_2(tmp_path, capsys, command, chart_range, culprit):
    path = tmp_path / "domain.case"
    path.write_text(f"[chart]\ncoords = x y\n{chart_range}\n[christoffel]\n1 1 2 = {culprit}\n")
    if command == "verify":
        argv = ["verify", "--case-file", str(path), "--check", "S1", "--points", "3"]
    else:
        argv = ["describe-case", "user", "--case-file", str(path)]
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert culprit in err


def test_case_file_torsion_probe_rejects_non_finite_values(tmp_path):
    path = tmp_path / "overflow.case"
    nan = "10^300*x*10^300 - 10^300*x*10^300"  # inf - inf
    path.write_text(f"[chart]\ncoords = x y\n\n[christoffel]\n1 1 2 = {nan}\n")
    assert not casefile.load_case_file(str(path)).case.torsion_free


def test_readme_case_file_example_verifies(tmp_path, capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "heisenberg.case"
    path.write_text(example)
    assert casefile.load_case_file(str(path)).case.id == "heisenberg"
    code, _, _ = run_cli(
        capsys, "verify", "--case-file", str(path), "--check", "S1", "--points", "3"
    )
    assert code == 0


# -- console entry point ----------------------------------------------------------------


def test_module_invocation_round_trip():
    proc = subprocess.run(
        [sys.executable, "-m", "bianchi.cli", "list", "checks"],
        capture_output=True, text=True, check=False,
    )
    assert proc.returncode == 0
    assert "S2p" in proc.stdout
