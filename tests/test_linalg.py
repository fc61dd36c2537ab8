import ast
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from formcones import linalg as linalg_module
from formcones.errors import DegenerateRay, DimensionMismatch
from formcones.linalg import (
    combine,
    dot,
    negate,
    primitive,
    rank,
    reduce_mod_rowspace,
    row_space_basis,
)

small_ints = st.integers(min_value=-9, max_value=9)


def vectors(width):
    return st.tuples(*[small_ints] * width)


def test_dot():
    assert dot((1, 2, 3), (4, 5, 6)) == 32
    assert dot((), ()) == 0
    assert dot((-1, 1), (1, 1)) == 0
    with pytest.raises(DimensionMismatch):
        dot((1, 2), (1, 2, 3))


def _is_hand_written_dot(node) -> bool:
    """``sum(<x * y> for ... in zip(...))``, the loop that :func:`dot` replaces."""
    if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "sum"
            and node.args and isinstance(node.args[0], ast.GeneratorExp)):
        return False
    gen = node.args[0]
    return (isinstance(gen.elt, ast.BinOp) and isinstance(gen.elt.op, ast.Mult)
            and any(getattr(getattr(g.iter, "func", None), "id", None) == "zip"
                    for g in gen.generators))


def _is_hand_written_combine(node) -> bool:
    """A comprehension over ``zip(...)`` of ``x * s +/- y * t``, the loop that
    :func:`combine` replaces."""
    if not isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
        return False
    elt = node.elt
    return (isinstance(elt, ast.BinOp) and isinstance(elt.op, (ast.Add, ast.Sub))
            and all(isinstance(side, ast.BinOp) and isinstance(side.op, ast.Mult)
                    for side in (elt.left, elt.right))
            and any(getattr(getattr(g.iter, "func", None), "id", None) == "zip"
                    for g in node.generators))


def test_integer_kernels_live_only_in_linalg():
    # Content, inner products and two-vector combinations each have one
    # kernel in linalg: no other module imports gcd, no module writes its
    # own dot product, and only linalg combines two vectors.
    package = Path(linalg_module.__file__).parent
    scanned = 0
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if path.name != "linalg.py":
                assert not (isinstance(node, ast.alias) and node.name == "gcd"), \
                    f"{where}: gcd imported outside linalg"
                assert not (isinstance(node, ast.Attribute) and node.attr == "gcd"), \
                    f"{where}: gcd used outside linalg"
                assert not _is_hand_written_combine(node), \
                    f"{where}: two vectors combined outside linalg"
            assert not _is_hand_written_dot(node), f"{where}: inner product written by hand"
        scanned += 1
    assert scanned > 1


def test_primitive_divides_out_gcd():
    assert primitive((2, 4, 6)) == (1, 2, 3)
    assert primitive((-3, 6)) == (-1, 2)
    assert primitive((5,)) == (1,)
    assert primitive((0, 7, 0)) == (0, 1, 0)


def test_primitive_rejects_zero():
    with pytest.raises(DegenerateRay):
        primitive((0, 0, 0))


def test_negate():
    assert negate((1, -2, 0)) == (-1, 2, 0)


def test_combine():
    # sv*u - su*v, divided by its content and never sign-flipped.
    assert combine((2, 0), 2, (0, 3), 3) == (1, -1)
    assert combine((0, 3), 3, (2, 0), 2) == (-1, 1)
    assert combine((1, 1), 2, (2, 2), 4) == (0, 0)
    with pytest.raises(ValueError):
        combine((1, 2), 1, (1, 2, 3), 1)


def test_rank_oracles():
    assert rank([]) == 0
    assert rank([(0, 0)]) == 0
    assert rank([(1, 0), (0, 1)]) == 2
    assert rank([(1, 2), (2, 4)]) == 1
    assert rank([(1, 2, 3), (4, 5, 6), (7, 8, 9)]) == 2


def test_row_space_basis_canonical():
    b = row_space_basis([(2, 4), (1, 2), (3, 6)])
    assert b == ((1, 2),)
    again = row_space_basis(b)
    assert again == b
    assert row_space_basis([]) == ()


def test_reduce_mod_rowspace():
    basis = row_space_basis([(1, 0, 0), (0, 1, 0)])
    assert reduce_mod_rowspace((3, -2, 0), basis) is None
    reduced = reduce_mod_rowspace((3, -2, 5), basis)
    assert reduced is not None
    assert reduced[2] != 0
    for v in ((1, 2, 3), (0, 2, 3), (1,)):
        with pytest.raises(DimensionMismatch):
            reduce_mod_rowspace(v, ((1, 0),))


@given(st.lists(vectors(3), min_size=1, max_size=5))
def test_row_space_basis_preserves_span(rows):
    basis = row_space_basis(rows)
    assert rank(basis) == len(basis) == rank(rows)
    for r in rows:
        assert reduce_mod_rowspace(r, basis) is None


def _rref(rows, width):
    """Reduced row echelon form over the rationals.

    Returns ``(pivots, reduced)`` where ``reduced`` holds Fraction rows with
    leading entry 1 and zeros above and below each pivot.
    """
    mat = [[Fraction(x) for x in r] for r in rows if any(r)]
    pivots = []
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


def _clear_denominators(row):
    """Primitive integer multiple of a Fraction row (with :func:`_rref`)."""
    lcm = 1
    for x in row:
        d = x.denominator
        lcm = lcm * d // gcd(lcm, d)
    return primitive(tuple(int(x * lcm) for x in row))


@given(st.lists(vectors(4), min_size=0, max_size=7))
def test_row_space_basis_matches_rational_rref(rows):
    # Reference: reduced echelon form over Fraction, denominators cleared.
    _, reduced = _rref(rows, 4)
    assert row_space_basis(rows) == tuple(
        _clear_denominators(r) for r in reduced)


@given(vectors(3))
def test_primitive_is_idempotent_on_nonzero(v):
    if not any(v):
        with pytest.raises(DegenerateRay):
            primitive(v)
    else:
        p = primitive(v)
        assert primitive(p) == p
