"""CLI tests: exit codes, output formats, determinism, and case-file parsing."""

import hashlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bianchi import case_checks, casefile, cli, gallery, mechanics
from bianchi import identity_suite as ids

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

# every identity between forms of degree 2 or 3 reduces to 0 = 0 on a line
LINE_CASE = """
[chart]
coords = x

[christoffel]
1 1 1 = x
"""

# torsion far below the torsion-free probe's 1e-10
TINY_TORSION_CASE = """
[chart]
coords = x y z

[christoffel]
1 1 2 = y*z/1000000000000
3 2 1 = x/1000000000000
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
        capsys, "verify", "--case", "flat_euclidean",
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


# Two pinned verify runs.  These cases evaluate only Add, Const, Mul, Neg and
# Var nodes, so the digits do not depend on the platform's libm
# (``contact_r3`` evaluates powers and is left out).
GALLERY_RUN = (
    "verify", "--case", "flat_with_torsion", "--case", "random_poly",
    "--case", "foliation_adapted", "--case-checks", "--points", "5",
    "--tuples", "2", "--format", "json", "--seed", "0",
)
APPLICATION_RUN = (
    "verify", "--case", "foliation_adapted_n4", "--case", "sode_oscillator",
    "--case-checks", "--points", "5", "--tuples", "2", "--format", "json",
    "--seed", "0",
)
# One point per check: every value comes from the float walk at one point.
# ``sphere_lc`` evaluates sin and cos, so this digest assumes the libm of
# the platform it was pinned on.
ONE_POINT_RUN = (
    "verify", "--case", "random_poly", "--case", "sphere_lc", "--case-checks",
    "--points", "1", "--tuples", "2", "--format", "json", "--seed", "0",
)
# All nine gallery cases with their case checks at default sampling.
# ``contact_r3`` and ``sphere_lc`` evaluate powers, sin and cos, so this
# digest too assumes the libm of the platform it was pinned on.
NINE_CASE_RUN = ("verify", "--case-checks", "--format", "json", "--seed", "0")


def test_verify_json_output_matches_the_pinned_digest(capsys):
    """Default JSON output is byte-identical across refactors that keep
    the shape of every expression tree."""
    code, out, _ = run_cli(capsys, *GALLERY_RUN)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "6762391cc9ad83945538c1ae0d3ccd7ae477ca28b59dd1710185e817bdd5275e"
    )


def test_verify_application_checks_match_the_pinned_digest(capsys):
    """JSON output of the foliation and mechanics checks is byte-identical
    across refactors that keep the shape of every expression tree."""
    code, out, _ = run_cli(capsys, *APPLICATION_RUN)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "f33f55b915e950daa5f527a3b6c5b694a7a5b30b2bbf166f124da8984e8f84f3"
    )


def test_verify_at_one_point_matches_the_pinned_digest(capsys):
    """JSON output of a one-point run is byte-identical across changes to
    how the scan shares its walks."""
    code, out, _ = run_cli(capsys, *ONE_POINT_RUN)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "a050917d6e7c2b85fdcb243421576ebe643dcb994e903f7a50ff3b8279adfce2"
    )


def test_verify_of_every_case_matches_the_pinned_digest(capsys):
    """JSON output of every gallery case and case check at default
    sampling is byte-identical across refactors that keep the shape of
    every expression tree."""
    code, out, _ = run_cli(capsys, *NINE_CASE_RUN)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "75a67973c9254e83ded74fdde5ee21517363111325cefdd1a1e6b7de84cbd0d1"
    )


@pytest.mark.parametrize("argv, digest", [
    (GALLERY_RUN, "bbb15f9e4fb6cd8446280dd7082a5147a80fb9dee31be65437f4bdf1e0c4e670"),
    (APPLICATION_RUN, "a3a9fb7e5547f8cfa58e98c117be018cf2d7590409bc72fa46e2a78be350fa76"),
], ids=["gallery", "applications"])
def test_verify_verdicts_match_the_pinned_digest_apart_from_rounding(capsys, argv, digest):
    """The rows of the pinned runs without ``max_residual``: a change of
    tree shape moves the residuals at rounding level, never a verdict, a
    key or the row order."""
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    rows = [{k: v for k, v in row.items() if k != "max_residual"} for row in json.loads(out)]
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == digest


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


@pytest.mark.parametrize("flag", ["--relative", "--all-checks"])
def test_verify_has_no_relative_or_all_checks_option(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--case", "flat_euclidean", flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    fields = list(inspect.signature(ids.CheckConfig).parameters)
    assert fields == ["points", "tuples", "tolerance", "seed"]


def test_verify_unknown_check_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify", "--case", "flat_euclidean", "--check", "ZZ")
    assert code == 2
    assert "unknown check" in err


def test_verify_bad_points_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify", "--case", "flat_euclidean", "--points", "0")
    assert code == 2
    assert "points" in err


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_verify_non_finite_tolerance_exits_2(capsys, tol):
    code, out, err = run_cli(capsys, "verify", "--case", "flat_euclidean", "--tol", tol)
    assert (code, out) == (2, "")
    assert "tolerance" in err


def test_verify_inapplicable_explicit_check_is_skipped_with_note(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--case", "flat_with_torsion", "--check", "LC1",
        "--points", "3", "--tuples", "1", "--format", "json",
    )
    assert code == 0
    assert json.loads(out) == []
    assert "not applicable" in err


def test_verify_failure_exits_1(tmp_path, capsys):
    """Torsion of order 1e-12 passes the case file's torsion-free probe
    (1e-10), so LC1 runs; its residual fails a tolerance of 1e-16, and the
    exact recheck confirms that the identity fails."""
    path = tmp_path / "tiny_torsion.case"
    path.write_text(TINY_TORSION_CASE)
    code, out, _ = run_cli(
        capsys, "verify", "--case-file", str(path), "--check", "LC1", "--tol", "1e-16",
        "--points", "5", "--tuples", "2",
    )
    assert code == 1
    assert "FAIL  max_residual=2.478e-10" in out


def test_verify_rounding_failure_is_cleared_by_the_exact_recheck(capsys):
    """Float64 cancellation on the sphere exceeds 1e-8 for the composed
    structure-equation check at one point of seed 7; the identity holds
    exactly, so the check passes with that residual marked as rounding
    error."""
    argv = ("verify", "--case", "sphere_lc", "--check", "E1", "--seed", "7")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert "pass  max_residual=3.166e-08  tol=1e-08  (holds exactly: rounding error)" in out


def test_verify_check_accepts_case_check_ids(capsys):
    argv = ("verify", "--case", "contact_r3", "--case", "flat_euclidean", "--check", "S1",
            "--check", "reeb-parallel", "--points", "4", "--tuples", "2", "--format", "json")
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    rows = [(r["case"], r["check"]) for r in json.loads(out)]
    assert rows == [("contact_r3", "S1"), ("contact_r3", "reeb-parallel"), ("flat_euclidean", "S1")]
    assert "note: check reeb-parallel is not applicable to case flat_euclidean, skipped" in err
    code, out, _ = run_cli(capsys, *argv, "--case-checks")
    assert code == 0
    checks = [r["check"] for r in json.loads(out) if r["case"] == "contact_r3"]
    assert checks == sorted(["S1", *CONTACT_CHECKS])


def test_a_check_reports_the_same_row_alone_and_among_other_checks(capsys):
    base = ("verify", "--case", "contact_r3", "--points", "3", "--tuples", "2", "--format", "json")
    code, out, _ = run_cli(capsys, *base, "--case-checks")
    assert code == 0
    together = json.loads(out)
    assert [r["check"] for r in together] == sorted(ALL_CHECKS + CONTACT_CHECKS)
    for row in together:
        code, out, _ = run_cli(capsys, *base, "--check", row["check"])
        assert (code, json.loads(out)) == (0, [row])


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
    assert listed == ALL_CHECKS + list(case_checks.CASE_CHECKS)
    assert f"reeb-parallel [{case_checks.CASE_CHECKS['reeb-parallel'].anchor}]" in out


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


@pytest.mark.parametrize("case_id, digest", [
    ("contact_r3", "3d09becdb6be93e842895e300864b6ee4486255bb781d6c3af3a9e70df6a7415"),
    ("sode_oscillator", "3ab6f286f99151d45964569be403d028749c233870c57fb9031fc107378fbb2d"),
    ("metric_case", "9d6ec318c997365e7382db147f0d52c5e32bf69b78df96d313926c2f0ca76a5f"),
])
def test_describe_case_output_matches_the_pinned_digest(capsys, request, case_id, digest):
    """describe-case output is byte-identical across refactors; it samples
    the points of its Christoffel filter and validates the case first."""
    if case_id == "metric_case":
        argv = ["describe-case", "--case-file", request.getfixturevalue(case_id)]
    else:
        argv = ["describe-case", case_id]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_describe_unknown_case_exits_2(capsys):
    code, _, err = run_cli(capsys, "describe-case", "nonexistent")
    assert code == 2
    assert "unknown case" in err


@pytest.mark.parametrize("with_id, with_file", [(False, False), (True, True)],
                         ids=["neither", "both"])
def test_describe_case_takes_an_id_or_a_case_file(capsys, metric_case, with_id, with_file):
    argv = ["describe-case"] + ["contact_r3"] * with_id + ["--case-file", metric_case] * with_file
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: describe-case takes either a case ID or --case-file PATH\n"


@pytest.mark.parametrize(
    "case, flags",
    [
        ("flat_euclidean", ["--case", "flat_euclidean"]),
        ("flat_euclidean", ["--check", "D1"]),
        ("random_poly", ["--case", "random_poly:0"]),
        ("random_poly:7", ["--case", "random_poly:07"]),
    ],
    ids=["case", "check", "seed-suffix-0", "seed-suffix-07"],
)
def test_a_repeated_id_runs_once(capsys, case, flags):
    """Also under an alias: a seed suffix that builds the same case."""
    argv = ["verify", "--case", case, "--check", "D1", "--check", "S1",
            "--points", "2", "--tuples", "1", "--format", "json"]
    _, once, _ = run_cli(capsys, *argv)
    code, twice, _ = run_cli(capsys, *argv, *flags)
    assert code == 0
    assert twice == once
    assert [r["check"] for r in json.loads(twice)] == ["D1", "S1"]


@pytest.mark.parametrize(
    "case, name",
    [("flat_euclidean", "flat_euclidean"), ("random_poly:0", "random_poly")],
    ids=["same-id", "seed-suffix"],
)
def test_a_case_file_may_not_reuse_the_id_of_a_gallery_case(tmp_path, capsys, case, name):
    path = tmp_path / "x.case"
    path.write_text(f"[chart]\nname = {name}\ncoords = x y\n")
    code, out, err = run_cli(capsys, "verify", "--case", case, "--case-file", str(path))
    assert (code, out) == (2, "")
    assert err == (f"error: case file {path} names case '{name}', "
                   "which --case already runs\n")


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


@pytest.mark.parametrize("text, vacuous", [
    (METRIC_CASE, ()),
    (LINE_CASE, (
        "B1", "B2", "C1", "C2", "CS1", "CS2", "D1", "D2", "DB1", "DB2", "E1", "LC1", "S1", "S2",
    )),
], ids=["heisenberg", "line"])
def test_case_file_verifies_clean(capsys, tmp_path, text, vacuous):
    path = tmp_path / "input.case"
    path.write_text(text)
    code, out, _ = run_cli(
        capsys, "verify", "--case-file", str(path),
        "--points", "4", "--tuples", "2", "--format", "json",
    )
    assert code == 0
    reports = json.loads(out)
    assert [r["check"] for r in reports] == ALL_CHECKS
    assert all(r["pass"] for r in reports)
    assert [r["max_residual"] for r in reports if r["check"] in vacuous] == [0.0] * len(vacuous)


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


@pytest.mark.parametrize("name", "abcdefghijkl")
def test_probed_flags_are_not_re_checked_by_validation(tmp_path, capsys, name):
    """A file that declares no flags loads under any name.  Torsion x^200
    is below the 1e-10 probe at the loader's points for some names (e, h,
    l), so those get LC1; validation checks only declared structure and
    must not reject the file for the loader's own measurement (under the
    name l, validation's 8 points saw 1.070e-09 > 1e-9)."""
    path = tmp_path / f"{name}.case"
    path.write_text(f"[chart]\nname = {name}\ncoords = x y\n\n[christoffel]\n1 1 2 = x^200\n")
    loaded = casefile.load_case_file(str(path))
    assert loaded.case.torsion_free == (name in "ehl")
    code, out, err = run_cli(
        capsys, "verify", "--case-file", str(path), "--points", "4", "--tuples", "1",
        "--format", "json",
    )
    assert code == 0, err
    assert ("LC1" in [r["check"] for r in json.loads(out)]) == loaded.case.torsion_free


def test_describe_case_file_prints_named_objects(capsys, metric_case):
    code, out, _ = run_cli(capsys, "describe-case", "--case-file", metric_case)
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


@pytest.mark.parametrize("command", ["verify", "describe-case"])
@pytest.mark.parametrize("bounds", ["-inf inf", "-1e308 1e308"])
def test_case_file_infinite_range_exits_2(tmp_path, capsys, command, bounds):
    """An interval of infinite width would sample inf and NaN coordinates."""
    path = tmp_path / "wide.case"
    path.write_text(f"[chart]\ncoords = x y\nrange = {bounds}\n")
    with pytest.raises(casefile.CaseFileError, match="infinite"):
        casefile.load_case_file(str(path))
    if command == "verify":
        argv = ["verify", "--case-file", str(path), "--check", "S1", "--points", "3"]
    else:
        argv = ["describe-case", "--case-file", str(path)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert "infinite" in err


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


@pytest.mark.parametrize("section", ["fields", "forms"])
def test_case_file_duplicate_component_exits_2(tmp_path, capsys, section):
    """A component given twice is an input error, also when the first
    value given is 0."""
    path = tmp_path / "duplicate.case"
    path.write_text(f"[chart]\ncoords = x y\n\n[{section}]\nV[1] = 0\nV[ 1 ] = x\n")
    code, out, err = run_cli(capsys, "describe-case", "--case-file", str(path))
    assert (code, out) == (2, "")
    assert "duplicate component" in err


def test_case_file_empty_name_exits_2(tmp_path, capsys):
    """An empty name would give the case id ``""``."""
    path = tmp_path / "unnamed.case"
    path.write_text("[chart]\nname =\ncoords = x y\n")
    code, out, err = run_cli(
        capsys, "verify", "--case-file", str(path), "--check", "S1", "--points", "3"
    )
    assert (code, out) == (2, "")
    assert "[chart] name entry is empty" in err


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
        argv = ["describe-case", "--case-file", str(path)]
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert culprit in err


@pytest.mark.parametrize("command", ["verify", "describe-case"])
@pytest.mark.parametrize(
    "section, message",
    [
        ("[metric]\n1 1 = 1/0\n2 2 = 1\n", "division by the constant zero"),
        ("[metric]\n1 1 = 2^100000\n2 2 = 1\n", "constant outside the float range"),
        ("[metric]\n1 1 = 1\n2 2 = 1\n\n[fields]\nV[1] = 2^100000\n", "constant outside the float range"),
    ],
    ids=["metric-1/0", "metric-2^100000", "field-2^100000"],
)
def test_case_file_constant_error_exits_2(tmp_path, capsys, command, section, message):
    """A constant that divides by zero or leaves the float range is an
    input error, not a traceback."""
    path = tmp_path / "constant.case"
    path.write_text(f"[chart]\ncoords = x y\n\n{section}")
    if command == "verify":
        argv = ["verify", "--case-file", str(path), "--check", "S1", "--points", "3"]
    else:
        argv = ["describe-case", "--case-file", str(path)]
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error:") and message in err


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
    # the child imports the package from where this process found it
    src = str(Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "bianchi.cli", "list", "checks"],
        capture_output=True, text=True, check=False, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "S2p" in proc.stdout


def _imported_by(code: str, modules) -> str:
    """What a fresh interpreter prints after running ``code`` and then the
    list of which of ``modules`` it has imported."""
    src = str(Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys; print([m in sys.modules for m in {modules!r}])"],
        capture_output=True, text=True, check=False, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


# the three application modules, by the case ids that each builds
APPLICATION_MODULES = {
    "contact_r3": "bianchi.contact",
    "foliation_adapted": "bianchi.foliation",
    "foliation_adapted_n4": "bianchi.foliation",
    "sode_oscillator": "bianchi.mechanics",
}
APPLICATIONS = sorted(set(APPLICATION_MODULES.values()))
# every module that some runs need and a generic verify run does not load
ON_FIRST_USE = [*APPLICATIONS, "bianchi.case_checks", "bianchi.parsing", "bianchi.describe",
                "bianchi.exact"]


@pytest.mark.parametrize("module", ["configparser", "hashlib", *ON_FIRST_USE])
def test_importing_the_cli_leaves_out(module):
    """Only case files need configparser, only the exact recheck
    (bianchi.exact) needs hashlib, only an application's cases need its
    module, only their claims need bianchi.case_checks, only parsed text
    needs bianchi.parsing and only list and describe-case need
    bianchi.describe, so importing the CLI imports none of them."""
    assert _imported_by("import bianchi.cli", [module]) == "[False]"


def _quiet_cli(*argv: str) -> str:
    """Code that runs the CLI on ``argv`` with its output swallowed."""
    return (
        "import contextlib, io, bianchi.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    bianchi.cli.main({list(argv)!r})"
    )


def test_verifying_generic_cases_imports_neither_applications_nor_the_parser():
    """The gallery_verify benchmark's run, at one point and tuple: it builds
    no application case, runs no application claim, parses no text, lists
    and describes nothing and has no pair to recheck exactly."""
    code = _quiet_cli(
        "verify", "--case", "random_poly", "--case", "sphere_lc", "--case-checks",
        "--points", "1", "--tuples", "1",
    )
    assert _imported_by(code, ON_FIRST_USE) == str([False] * len(ON_FIRST_USE))


@pytest.mark.parametrize("case_id", APPLICATION_MODULES)
def test_building_an_application_case_imports_its_module_alone(case_id):
    code = f"from bianchi import gallery; gallery.build_case({case_id!r})"
    modules = [*APPLICATIONS, "bianchi.parsing"]
    expected = [m == APPLICATION_MODULES[case_id] for m in APPLICATIONS] + [False]
    assert _imported_by(code, modules) == str(expected)


def test_probing_mutants_imports_neither_the_claims_nor_the_parser():
    """The mutation_sweep benchmark's run, at one point and tuple: it builds
    a foliation case but runs catalog checks only, and its mutants fail
    pairs that the exact recheck then tests."""
    code = (
        "import bianchi.cli\n"
        "from bianchi import gallery, identity_suite as ids\n"
        "case = gallery.build_case('foliation_adapted_n4')\n"
        "checks = [c for c in sorted(ids.CATALOG) if ids.CATALOG[c].applicable(case)]\n"
        "config = ids.CheckConfig(points=1, tuples=1)\n"
        "ids.mutation_probe(case, checks, index=(0, 1, 2), delta=1, config=config)"
    )
    modules = [*APPLICATIONS, "bianchi.exact", "bianchi.case_checks", "bianchi.parsing"]
    assert _imported_by(code, modules) == "[False, True, False, True, False, False]"


def test_describing_a_case_imports_the_describe_module():
    code = _quiet_cli("describe-case", "contact_r3")
    assert _imported_by(code, ["bianchi.describe", "bianchi.contact"]) == "[True, True]"


def test_verifying_an_application_case_with_case_checks_imports_the_claims():
    code = _quiet_cli(
        "verify", "--case", "contact_r3", "--case-checks", "--points", "1", "--tuples", "1"
    )
    assert _imported_by(code, ["bianchi.case_checks"]) == "[True]"


def _sum_of_products(terms: int) -> str:
    """``x*y + x*y + ...``: it parses to a tree of height terms + 1."""
    return " + ".join(["x*y"] * terms)


@pytest.mark.parametrize("culprit", [
    _sum_of_products(1200),
    _sum_of_products(casefile.MAX_DEPTH),
    "(" * 400 + "x" + ")" * 400,
], ids=["1200-terms", "one-past-the-limit", "400-parentheses"])
def test_case_file_expression_nested_too_deeply_exits_2(tmp_path, capsys, culprit):
    path = tmp_path / "deep.case"
    path.write_text(f"[chart]\ncoords = x y z\n\n[christoffel]\n1 1 2 = {culprit}\n")
    code, out, err = run_cli(
        capsys, "verify", "--case-file", str(path), "--check", "S1", "--points", "3"
    )
    assert code == 2
    assert out == ""
    assert f"[christoffel] 1 1 2: expression nested deeper than {casefile.MAX_DEPTH}" in err


def test_case_file_expression_at_the_depth_limit_verifies(tmp_path, capsys):
    path = tmp_path / "deep.case"
    culprit = _sum_of_products(casefile.MAX_DEPTH - 1)
    path.write_text(f"[chart]\ncoords = x y z\n\n[christoffel]\n1 1 2 = {culprit}\n")
    code, out, _ = run_cli(
        capsys, "verify", "--case-file", str(path), "--check", "S1", "--points", "3"
    )
    assert code == 0
    assert "pass" in out


def test_case_checks_build_the_cartan_form_once(capsys, monkeypatch):
    calls = []
    build = mechanics.build_cartan_form

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(mechanics, "build_cartan_form", counted)
    code, _, _ = run_cli(
        capsys, "verify", "--case", "sode_oscillator", "--case-checks", "--points", "3",
        "--tuples", "1",
    )
    assert code == 0
    assert len(calls) == 1
