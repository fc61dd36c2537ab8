"""Exact linear algebra on small dense integer matrices.

Vectors are tuples of Python ints, matrices are sequences of row tuples.
Nothing in this package ever touches floating point.  One fraction-free
elimination, :func:`_echelon`, serves both :func:`rank` and
:func:`row_space_basis`.  The one row operation is :func:`combine`, which
combines two vectors so that a form vanishes and divides the result by
its content.  The elimination, the upward reduction of
:func:`row_space_basis`, :func:`reduce_mod_rowspace` and the
double-description pass in :mod:`formcones.cones` all call it.  The
package computes with integers alone; the tests check
:func:`row_space_basis` against a reduced echelon form over
:class:`fractions.Fraction` of their own.
"""

from __future__ import annotations

from math import gcd
from operator import mul
from typing import Iterable, Sequence

from .errors import DegenerateRay, DimensionMismatch

Vec = tuple[int, ...]
Mat = tuple[Vec, ...]


def dot(u: Sequence[int], v: Sequence[int]) -> int:
    if len(u) != len(v):
        raise DimensionMismatch(f"vector lengths {len(u)} and {len(v)} differ")
    return sum(map(mul, u, v))


def primitive(v: Sequence[int]) -> Vec:
    """Divide an integer vector by the gcd of its entries.

    Orientation is preserved: the result is never sign-flipped.  A zero
    vector has no direction and raises :class:`DegenerateRay`.
    """
    g = gcd(*v)
    if g == 0:
        raise DegenerateRay("the zero vector has no primitive representative")
    if g == 1:
        return tuple(v)
    return tuple(x // g for x in v)


def negate(v: Sequence[int]) -> Vec:
    return tuple(-x for x in v)


def combine(u: Sequence[int], su: int, v: Sequence[int], sv: int) -> Vec:
    """``sv*u - su*v`` divided by its content.

    With ``su`` and ``sv`` the values of one linear form at ``u`` and
    ``v``, the form vanishes on the result.  A zero result is returned
    as is.  Vectors of different lengths raise :class:`ValueError`.
    """
    new = tuple([x * sv - y * su for x, y in zip(u, v, strict=True)])
    g = gcd(*new)
    return tuple([x // g for x in new]) if g > 1 else new


def _echelon(rows: Iterable[Sequence[int]]) -> tuple[list[Vec], list[int]]:
    """Row echelon form by fraction-free elimination, and its pivot columns.

    Zero rows are dropped before the rows are checked for equal length.
    """
    work = [tuple(r) for r in rows if any(r)]
    if any(len(r) != len(work[0]) for r in work):
        raise DimensionMismatch("ragged matrix")
    pivots: list[int] = []
    for c in range(len(work[0]) if work else 0):
        rk = len(pivots)
        piv = next((i for i in range(rk, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[rk], work[piv] = work[piv], work[rk]
        prow = work[rk]
        for i in range(rk + 1, len(work)):
            if work[i][c]:
                work[i] = combine(work[i], work[i][c], prow, prow[c])
        pivots.append(c)
        if len(pivots) == len(work):
            break
    return work[:len(pivots)], pivots


def rank(rows: Iterable[Sequence[int]]) -> int:
    """Rank of an integer matrix, by fraction-free elimination."""
    return len(_echelon(rows)[1])


def row_space_basis(rows: Iterable[Sequence[int]]) -> Mat:
    """Canonical primitive basis of the row space (reduced echelon form).

    Rows come back in pivot order; each has a positive leading entry and
    zeros in the pivot columns of the other rows: the rows of
    :func:`_echelon`, reduced upward pivot by pivot and made primitive.
    """
    work, pivots = _echelon(rows)
    for k in range(len(pivots) - 1, 0, -1):
        c = pivots[k]
        for j in range(k):
            if work[j][c]:
                work[j] = combine(work[j], work[j][c], work[k], work[k][c])
    basis = (primitive(row) for row in work)
    return tuple(negate(v) if v[c] < 0 else v for v, c in zip(basis, pivots))


def reduce_mod_rowspace(v: Sequence[int], basis: Mat) -> Vec | None:
    """Canonical representative of ``v`` modulo a row space.

    ``basis`` must come from :func:`row_space_basis`.  The pivot coordinates
    are eliminated by positive rescaling, so the direction of ``v`` relative
    to the subspace is preserved.  Returns ``None`` when ``v`` lies in the
    subspace.
    """
    out = tuple(v)
    if basis and len(out) != len(basis[0]):
        raise DimensionMismatch(f"vector of length {len(out)} against "
                                f"a basis of length {len(basis[0])}")
    for b in basis:
        j = next(i for i, x in enumerate(b) if x)
        if out[j]:
            out = combine(out, out[j], b, b[j])
    if not any(out):
        return None
    return primitive(out)
