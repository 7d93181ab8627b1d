"""The paper's first application: a contact 3-space, as a gallery case.

The standard contact 1-form on 3-space gets its associated Reeb field,
Riemannian metric and compatible endomorphism, each invariant verified
numerically before the structure is returned; a broken one raises
:class:`~bianchi.gallery.ContactConditionError` or
:class:`~bianchi.gallery.CaseValidationError` naming it.  The case carries
the Levi-Civita connection of that metric.

:func:`bianchi.gallery.build_case` imports this module when it first
builds ``contact_r3``, so a run of the other cases never compiles it.
Calls into the other modules go through module attributes (``con.*``,
``geo.*``, ``se.*``, ``sf.*``), so a wrapper installed on those modules
before this one is imported still sees every call.
"""

from __future__ import annotations

import itertools
import random

from . import symexpr as se
from . import geometry as geo
from . import connection as con
from . import structure_forms as sf
from .geometry import Chart, LinearMap, PForm, VectorField
from .connection import Metric
from .gallery import R3, ContactConditionError, GeometryCase, _require_vanishing

__all__ = ["ContactStructure", "derive_contact_structure", "standard_contact_form"]


class ContactStructure:
    """A maximally non-integrable 1-form with its associated structure.

    ``form`` is the contact 1-form, ``reeb`` the unique field annihilating
    its differential with unit pairing, ``metric`` the associated Riemannian
    metric and ``endomorphism`` the compatible almost-complex-style map.
    The structure is immutable by contract.
    """

    __slots__ = ("form", "reeb", "metric", "endomorphism")

    def __init__(self, form: PForm, reeb: VectorField, metric: Metric, endomorphism: LinearMap):
        self.form = form
        self.reeb = reeb
        self.metric = metric
        self.endomorphism = endomorphism


def derive_contact_structure(alpha: PForm) -> ContactStructure:
    """Build the associated (Reeb, metric, endomorphism) for a contact form.

    The construction implements the standard associated structure of the
    normal-form contact 1-form on a 3-dimensional chart; every invariant is
    verified numerically before the structure is returned, so an input
    outside that family fails loudly with the violated property named.
    """
    chart = alpha.chart
    if chart.dim != 3:
        raise ContactConditionError(
            "only the 3-dimensional standard associated structure is constructed"
        )
    if alpha.degree != 1:
        raise ContactConditionError("the contact form must be a 1-form")

    points = geo.sample_points(chart, "contact/0", 10)
    d_alpha = geo.exterior_derivative(alpha)
    volume = geo.wedge(alpha, d_alpha)
    for pt in points:
        value = se.evaluate(volume.component((0, 1, 2)), pt)
        if not abs(value) >= 1e-6:
            raise ContactConditionError(
                f"form fails the contact condition at a sampled point ({value:.3e})"
            )

    y = se.Var(chart.coords[1])
    reeb = chart.basis_field(2)
    halfc = se.Const(0.5)
    metric = Metric.from_nonzero(
        chart,
        {
            (0, 0): se.add(halfc, se.mul(y, y)),
            (0, 2): se.neg(y),
            (1, 1): halfc,
            (2, 2): se.ONE,
        },
    )
    endo = LinearMap(
        chart,
        [
            [se.ZERO, se.ONE, se.ZERO],
            [se.neg(se.ONE), se.ZERO, se.ZERO],
            [se.ZERO, y, se.ZERO],
        ],
    )

    rng = random.Random("contact-fields/0")
    fields = [geo.random_vector_field(chart, rng) for _ in range(4)]

    def require(name, exprs):
        _require_vanishing(exprs, points, f"contact invariant '{name}' violated ({{worst:.3e}})")

    require("reeb-interior-product", geo.interior_product(reeb, d_alpha).comps.values())
    require("reeb-normalization", [se.sub(alpha.apply([reeb]), se.ONE)])
    require(
        "metric-reproduces-form",
        [se.sub(metric.value(reeb, x), alpha.apply([x])) for x in fields],
    )
    exprs = []
    for x, z in itertools.combinations(fields, 2):
        paired = se.mul(se.Const(2.0), metric.value(x, endo(z)))
        exprs.append(se.sub(paired, d_alpha.apply([x, z])))
    require("metric-endomorphism-pairing", exprs)
    exprs = []
    for x in fields:
        twice = endo(endo(x))
        target = x.scale(se.neg(se.ONE)) + reeb.scale(alpha.apply([x]))
        exprs.extend((twice - target).comps)
    require("endomorphism-square", exprs)

    return ContactStructure(form=alpha, reeb=reeb, metric=metric, endomorphism=endo)


def standard_contact_form(chart: Chart) -> PForm:
    y = se.Var(chart.coords[1])
    return PForm(chart, 1, {(0,): se.neg(y), (2,): se.ONE})


def _case_contact_r3() -> GeometryCase:
    alpha = standard_contact_form(R3)
    structure = derive_contact_structure(alpha)
    return GeometryCase(
        id="contact_r3",
        chart=R3,
        connection=con.levi_civita(structure.metric),
        description=(
            "Contact 3-space: normal-form contact 1-form, its associated metric "
            "and endomorphism, Levi-Civita connection."
        ),
        metric=structure.metric,
        coframe=sf.CoFrame.coordinate(R3),
        torsion_free=True,
        contact=structure,
    )


# gallery.build_case's builder of this module's case, by case id
CASES = {"contact_r3": _case_contact_r3}
