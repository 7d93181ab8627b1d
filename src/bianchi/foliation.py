"""The paper's second application: codimension-one foliations with
connections adapted to the leaves, as gallery cases.

Restricting the torsion and curvature forms to leaf arguments collapses
them; those claims are in :mod:`bianchi.case_checks`.
:func:`bianchi.gallery.build_case` imports this module when it first
builds a foliation case, and ``gallery._validate_case`` when it first
validates a case with a foliation.  Calls into the other modules go
through module attributes (``con.*``, ``geo.*``, ``se.*``, ``sf.*``), so a
wrapper installed on those modules before this one is imported still
sees every call.
"""

from __future__ import annotations

from . import symexpr as se
from . import geometry as geo
from . import connection as con
from . import structure_forms as sf
from .geometry import PForm, VectorField
from .connection import Connection
from .gallery import R3, R4, CaseValidationError, GeometryCase, _require_vanishing

__all__ = ["FoliationStructure"]


class FoliationStructure:
    """A codimension-one integrable 1-form with a leaf frame.

    ``leaf_fields`` span the kernel distribution of ``form`` and
    ``transverse`` completes them to a frame with unit pairing.  The
    structure is immutable by contract.
    """

    __slots__ = ("form", "leaf_fields", "transverse")

    def __init__(
        self, form: PForm, leaf_fields: tuple[VectorField, ...], transverse: VectorField
    ):
        self.form = form
        self.leaf_fields = leaf_fields
        self.transverse = transverse


def _validate_foliation(conn: Connection, foliation: FoliationStructure, points):
    theta = foliation.form
    chart = theta.chart
    leaf = foliation.leaf_fields
    if len(leaf) != chart.dim - 1:
        raise CaseValidationError("leaf fields must span a codimension-one distribution")

    _require_vanishing(
        [theta.apply([u]) for u in leaf], points,
        "foliation: leaf fields do not annihilate the form ({worst:.3e})",
    )
    _require_vanishing(
        [se.sub(theta.apply([foliation.transverse]), se.ONE)], points,
        "foliation: transverse pairing is not 1 ({worst:.3e})",
    )
    _require_vanishing(
        geo.wedge(geo.exterior_derivative(theta), theta).comps.values(), points,
        "foliation: the form is not integrable ({worst:.3e})",
    )

    basis = [chart.basis_field(i) for i in range(chart.dim)]
    _require_vanishing(
        [theta.apply([con.covariant_derivative(conn, x, u)]) for x in basis for u in leaf],
        points,
        "foliation: connection is not adapted to the leaves (residual {worst:.3e})",
    )

    # blockwise: the transverse line is preserved too
    exprs = []
    for x in basis:
        image = con.covariant_derivative(conn, x, foliation.transverse)
        scaled = foliation.transverse.scale(theta.apply([image]))
        exprs.extend((image - scaled).comps)
    _require_vanishing(
        exprs, points, "foliation: connection does not preserve the transverse line ({worst:.3e})"
    )


def _case_foliation_adapted() -> GeometryCase:
    x, y, z = (se.Var(name) for name in R3.coords)
    conn = Connection.from_nonzero(
        R3,
        {
            (0, 0, 0): y,
            (0, 0, 1): se.ONE,
            (0, 1, 0): se.neg(se.ONE),
            (1, 0, 1): z,
            (2, 0, 2): se.ONE,
            (2, 1, 2): x,
            (0, 2, 1): se.ONE,
        },
    )
    foliation = FoliationStructure(
        form=R3.basis_covector(2),
        leaf_fields=(R3.basis_field(0), R3.basis_field(1)),
        transverse=R3.basis_field(2),
    )
    return GeometryCase(
        id="foliation_adapted",
        chart=R3,
        connection=conn,
        description=(
            "Horizontal foliation of 3-space with a leaf-adapted connection "
            "carrying deliberate in-leaf torsion."
        ),
        coframe=sf.CoFrame.coordinate(R3),
        foliation=foliation,
    )


def _case_foliation_adapted_n4() -> GeometryCase:
    x, y, z, w = (se.Var(name) for name in R4.coords)
    conn = Connection.from_nonzero(
        R4,
        {
            (0, 0, 0): y,
            (0, 0, 1): se.ONE,
            (0, 1, 0): se.neg(se.ONE),
            (1, 0, 1): z,
            (2, 0, 1): x,
            (1, 2, 2): w,
            (2, 2, 0): y,
            (3, 0, 3): se.ONE,
            (3, 1, 3): x,
            (0, 3, 1): se.ONE,
        },
    )
    foliation = FoliationStructure(
        form=R4.basis_covector(3),
        leaf_fields=(R4.basis_field(0), R4.basis_field(1), R4.basis_field(2)),
        transverse=R4.basis_field(3),
    )
    return GeometryCase(
        id="foliation_adapted_n4",
        chart=R4,
        connection=conn,
        description=(
            "Codimension-one foliation of 4-space with a leaf-adapted connection; "
            "three-dimensional leaves make the restricted differential checks "
            "non-vacuous."
        ),
        coframe=sf.CoFrame.coordinate(R4),
        foliation=foliation,
    )


# gallery.build_case's builders of this module's cases, by case id
CASES = {
    "foliation_adapted": _case_foliation_adapted,
    "foliation_adapted_n4": _case_foliation_adapted_n4,
}
