import pytest
from hypothesis import given, strategies as st

from formcones.errors import DegenerateRay
from formcones.linalg import (
    _clear_denominators,
    _rref,
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


def test_rank_oracles():
    assert rank([]) == 0
    assert rank([(0, 0)]) == 0
    assert rank([(1, 0), (0, 1)]) == 2
    assert rank([(1, 2), (2, 4)]) == 1
    assert rank([(1, 2, 3), (4, 5, 6), (7, 8, 9)]) == 2


def test_row_space_basis_canonical():
    b = row_space_basis([(2, 4), (1, 2), (3, 6)])
    assert b == ((1, 2),)
    again = row_space_basis(b, width=2)
    assert again == b


def test_reduce_mod_rowspace():
    basis = row_space_basis([(1, 0, 0), (0, 1, 0)])
    assert reduce_mod_rowspace((3, -2, 0), basis) is None
    reduced = reduce_mod_rowspace((3, -2, 5), basis)
    assert reduced is not None
    assert reduced[2] != 0


@given(st.lists(vectors(3), min_size=1, max_size=5))
def test_row_space_basis_preserves_span(rows):
    basis = row_space_basis(rows, width=3)
    assert rank(basis) == len(basis) == rank(rows)
    for r in rows:
        assert reduce_mod_rowspace(r, basis) is None


@given(st.lists(vectors(4), min_size=0, max_size=7))
def test_row_space_basis_matches_rational_rref(rows):
    # Reference: reduced echelon form over Fraction, denominators cleared.
    _, reduced = _rref(rows, 4)
    assert row_space_basis(rows, width=4) == tuple(
        _clear_denominators(r) for r in reduced)


@given(vectors(3))
def test_primitive_is_idempotent_on_nonzero(v):
    if not any(v):
        with pytest.raises(DegenerateRay):
            primitive(v)
    else:
        p = primitive(v)
        assert primitive(p) == p
