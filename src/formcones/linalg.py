"""Exact linear algebra on small dense integer matrices.

Vectors are tuples of Python ints, matrices are sequences of row tuples.
Intermediate divisions use :class:`fractions.Fraction`; nothing in this
package ever touches floating point.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from .errors import DegenerateRay, DimensionMismatch

Vec = tuple[int, ...]
Mat = tuple[Vec, ...]


def dot(u: Sequence[int], v: Sequence[int]) -> int:
    if len(u) != len(v):
        raise DimensionMismatch(f"vector lengths {len(u)} and {len(v)} differ")
    return sum(a * b for a, b in zip(u, v))


def primitive(v: Sequence[int]) -> Vec:
    """Divide an integer vector by the gcd of its entries.

    Orientation is preserved: the result is never sign-flipped.  A zero
    vector has no direction and raises :class:`DegenerateRay`.
    """
    g = 0
    for x in v:
        g = gcd(g, x)
    if g == 0:
        raise DegenerateRay("the zero vector has no primitive representative")
    if g == 1:
        return tuple(v)
    return tuple(x // g for x in v)


def negate(v: Sequence[int]) -> Vec:
    return tuple(-x for x in v)


def rank(rows: Iterable[Sequence[int]]) -> int:
    """Rank of an integer matrix, by fraction-free elimination."""
    work = [list(r) for r in rows if any(r)]
    if not work:
        return 0
    ncols = len(work[0])
    for r in work:
        if len(r) != ncols:
            raise DimensionMismatch("ragged matrix")
    nrows = len(work)
    rk = 0
    for c in range(ncols):
        piv = None
        for i in range(rk, nrows):
            if work[i][c]:
                piv = i
                break
        if piv is None:
            continue
        work[rk], work[piv] = work[piv], work[rk]
        prow = work[rk]
        pc = prow[c]
        for i in range(rk + 1, nrows):
            x = work[i][c]
            if x:
                row = work[i]
                new = [a * pc - b * x for a, b in zip(row, prow)]
                g = 0
                for y in new:
                    g = gcd(g, y)
                if g > 1:
                    new = [y // g for y in new]
                work[i] = new
        rk += 1
        if rk == nrows:
            break
    return rk


def _rref(rows: Sequence[Sequence[int]], width: int):
    """Reduced row echelon form over the rationals (for :func:`kernel_basis`).

    Returns ``(pivots, reduced)`` where ``reduced`` holds Fraction rows with
    leading entry 1 and zeros above and below each pivot.
    """
    mat = [[Fraction(x) for x in r] for r in rows if any(r)]
    pivots: list[int] = []
    r = 0
    for c in range(width):
        piv = None
        for i in range(r, len(mat)):
            if mat[i][c]:
                piv = i
                break
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        lead = mat[r][c]
        mat[r] = [x / lead for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return pivots, mat[:r]


def _clear_denominators(row: Sequence[Fraction]) -> Vec:
    lcm = 1
    for x in row:
        d = x.denominator
        lcm = lcm * d // gcd(lcm, d)
    return primitive(tuple(int(x * lcm) for x in row))


def kernel_basis(rows: Sequence[Sequence[int]], *, width: int | None = None) -> Mat:
    """Primitive basis of the right kernel, lexicographically sorted.

    Each basis vector is normalized so its first nonzero entry is positive.
    ``width`` is only needed when ``rows`` is empty.
    """
    rows = [tuple(r) for r in rows]
    if rows:
        w = len(rows[0])
        if width is not None and width != w:
            raise DimensionMismatch("explicit width disagrees with the rows")
        width = w
        for r in rows:
            if len(r) != width:
                raise DimensionMismatch("ragged matrix")
    elif width is None:
        raise ValueError("width is required for an empty matrix")
    pivots, reduced = _rref(rows, width)
    pivot_set = set(pivots)
    basis = []
    for free in range(width):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * width
        vec[free] = Fraction(1)
        for i, c in enumerate(pivots):
            vec[c] = -reduced[i][free]
        v = _clear_denominators(vec)
        for x in v:
            if x:
                if x < 0:
                    v = negate(v)
                break
        basis.append(v)
    return tuple(sorted(basis))


def row_space_basis(rows: Sequence[Sequence[int]], *, width: int | None = None) -> Mat:
    """Canonical primitive basis of the row space (reduced echelon form).

    Rows come back in pivot order; each has a positive leading entry and
    zeros in the pivot columns of the other rows.  Fraction-free
    Gauss-Jordan elimination: every row is kept divided by its content,
    which yields the primitive multiple of each reduced-echelon row.
    """
    rows = [tuple(r) for r in rows]
    if rows:
        width = len(rows[0])
    elif width is None:
        raise ValueError("width is required for an empty matrix")
    work = [list(r) for r in rows if any(r)]
    rk = 0
    for c in range(width):
        piv = next((i for i in range(rk, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[rk], work[piv] = work[piv], work[rk]
        prow = work[rk]
        pc = prow[c]
        for i, row in enumerate(work):
            x = row[c]
            if x and i != rk:
                new = [a * pc - b * x for a, b in zip(row, prow)]
                g = 0
                for y in new:
                    g = gcd(g, y)
                work[i] = [y // g for y in new] if g > 1 else new
        rk += 1
        if rk == len(work):
            break
    basis = []
    for row in work[:rk]:
        v = primitive(row)
        if next(x for x in v if x) < 0:
            v = negate(v)
        basis.append(v)
    return tuple(basis)


def reduce_mod_rowspace(v: Sequence[int], basis: Mat) -> Vec | None:
    """Canonical representative of ``v`` modulo a row space.

    ``basis`` must come from :func:`row_space_basis`.  The pivot coordinates
    are eliminated by positive rescaling, so the direction of ``v`` relative
    to the subspace is preserved.  Returns ``None`` when ``v`` lies in the
    subspace.
    """
    out = list(v)
    for b in basis:
        j = next(i for i, x in enumerate(b) if x)
        if out[j]:
            pj = b[j]
            xj = out[j]
            out = [a * pj - c * xj for a, c in zip(out, b)]
    if not any(out):
        return None
    return primitive(tuple(out))
