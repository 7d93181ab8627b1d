"""Shared fixtures."""

import numpy as np
import pytest

from bianchi import symexpr as se


def _omega_rank_profile(omega, points):
    """Numeric rank of the 2-form's component matrix at each point."""
    dim = omega.chart.dim
    ranks = []
    for pt in points:
        matrix = np.zeros((dim, dim))
        for (i, j), expr in omega.comps.items():
            value = se.evaluate(expr, pt)
            matrix[i][j] = value
            matrix[j][i] = -value
        singular = np.linalg.svd(matrix, compute_uv=False)
        ranks.append(int(np.sum(singular > 1e-8 * max(singular[0], 1e-300))))
    return ranks


@pytest.fixture
def omega_rank_profile():
    """The numeric rank of a 2-form at each of a list of points."""
    return _omega_rank_profile
