"""The exact recheck of :func:`bianchi.symexpr.holds_exactly`: both sides
of a pair evaluated modulo a prime at a pseudo-random point.

A pair whose float residual exceeds its check's tolerance is rechecked
here; a pair that holds exactly keeps its residual, but that residual is
rounding error and does not fail the check.  ``symexpr.holds_exactly``
imports this module at its first call, so a run whose pairs all pass
their tolerance never compiles it, nor ``hashlib``.
"""

from __future__ import annotations

import hashlib
from sys import getrefcount

from . import symexpr as se
from .symexpr import _ONE_HOLDER, Add, Const, Div, Expr, Mul, Neg, Pow, Var

__all__ = ["holds_exactly"]

# The prime of holds_exactly, and how often it redraws a point at which a
# denominator vanishes.
_PRIME = 2**61 - 1
_REDRAWS = 3


def _residue(*key) -> int:
    """A pseudo-random residue modulo _PRIME fixed by ``key``."""
    digest = hashlib.blake2b("/".join(map(str, key)).encode(), digest_size=16).digest()
    return int.from_bytes(digest, "big") % _PRIME


def _walk_residues(e: Expr, memo: dict, leaf) -> int:
    """The residue of ``e`` modulo _PRIME: the walk of
    :func:`bianchi.symexpr._walk_floats` in that arithmetic, with the node
    kinds tested in the same order.  Sums and negations are left unreduced,
    which saves a modulo per node, and grow by a bit per nested sum; every
    other operation reduces its result.  A sin/cos/exp/ln node is a
    pseudo-random function of its argument's residue.  pow(b, -1, p) raises
    ValueError where b has no inverse."""

    def ev(node: Expr) -> int:
        got = memo.get(node)
        if got is not None:
            return got
        kind = type(node)
        if kind is Mul:
            out = ev(node.a) * ev(node.b) % _PRIME
        elif kind is Add:
            out = ev(node.a) + ev(node.b)
        elif kind is Neg:
            out = -ev(node.arg)
        elif kind is Const or kind is Var:
            out = leaf(node)
        elif kind is Pow:
            out = pow(ev(node.base), node.exponent, _PRIME)
        elif kind is Div:
            out = ev(node.a) * pow(ev(node.b), -1, _PRIME) % _PRIME
        else:
            out = _residue(kind.__name__, ev(node.arg) % _PRIME)
        if getrefcount(node) > _ONE_HOLDER:
            memo[node] = out
        return out

    try:
        return ev(e)
    finally:
        del ev  # ev refers to itself; free it without the cycle collector


def holds_exactly(lhs: Expr, rhs) -> bool:
    """Whether ``lhs == rhs`` holds at a pseudo-random point of GF(p).

    Both sides are evaluated exactly modulo the prime p = 2^61 - 1, by
    :func:`_walk_residues` with one memo for the two sides: each
    variable is a pseudo-random residue, a constant num/den is
    num * den^-1, and each sin/cos/exp/ln node is a pseudo-random function
    of its argument's residue, a fresh indeterminate whose derivative rule
    holds in any differential ring.  Every catalog identity follows
    formally from the definitions, so its sides agree at every such point;
    a nonzero rational function whose numerator has degree d vanishes at a
    random point with probability at most d/p (Schwartz, J. ACM 27(4),
    1980).  A True answer therefore overturns only float rounding error.
    An identity that needs a relation between those functions, such as
    sin^2 + cos^2 = 1, gets False: a float failure of it stays a failure,
    never a false pass.

    A zero denominator, or zero raised to a negative power, redraws the
    point, up to _REDRAWS times; after that the answer is False.  Every
    draw is seeded from fixed keys through hashlib, so the answer is the
    same in every process.
    """
    rhs = se.as_expr(rhs)
    for draw in range(1 + _REDRAWS):
        variables: dict[str, int] = {}

        def leaf(node: Expr) -> int:
            if type(node) is Const:
                return node.value.numerator * pow(node.value.denominator, -1, _PRIME) % _PRIME
            got = variables.get(node.name)
            if got is None:
                got = variables[node.name] = _residue("var", draw, node.name)
            return got

        memo: dict[Expr, int] = {}
        try:
            difference = _walk_residues(lhs, memo, leaf) - _walk_residues(rhs, memo, leaf)
        except ValueError:  # something to invert is 0 at this draw: redraw
            continue
        return difference % _PRIME == 0
    return False
