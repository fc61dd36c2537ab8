from math import comb

import pytest

from formcones.formulas import (
    FormulaResult,
    ambient_projective_dim,
    cox_generator_count,
    dim_cox,
    dim_section_space,
    minor_multiplicity,
    movable_ray_count,
    plucker_relation_count,
    secant_codim,
    section_space_routes,
    weyl_dim,
)
from formcones.spaces import collineations, grading_matrix, quadrics


def test_minor_multiplicity():
    assert minor_multiplicity(1, 1) == 1
    assert minor_multiplicity(3, 1) == 3
    assert minor_multiplicity(3, 2) == 2
    assert minor_multiplicity(3, 5) == 0
    with pytest.raises(ValueError):
        minor_multiplicity(0, 2)


def test_secant_codim_segre():
    assert secant_codim("segre", 3, 3, 1) == 9
    assert secant_codim("segre", 3, 5, 2) == 8
    assert secant_codim("segre", 2, 2, 2) == 1


def test_secant_codim_veronese():
    assert secant_codim("veronese", 2, 2, 2) == 1
    assert secant_codim("veronese", 5, 5, 5) == 1
    assert secant_codim("veronese", 3, 3, 1) == 6


def test_secant_codim_rejects_bad_input():
    with pytest.raises(ValueError):
        secant_codim("segre", 3, 3, 0)
    with pytest.raises(ValueError):
        secant_codim("segre", 3, 3, 4)
    with pytest.raises(ValueError):
        secant_codim("segre", 3, 2, 1)
    with pytest.raises(ValueError):
        secant_codim("segre", 3, None, 1)
    with pytest.raises(ValueError):
        secant_codim("plucker", 2, 2, 1)


def test_section_space_routes_agree():
    for n in range(1, 8):
        for k in range(n):
            closed, prod = section_space_routes(n, k)
            assert isinstance(closed, FormulaResult)
            assert closed.route != prod.route
            assert closed.value == prod.value == dim_section_space(n, k)


def test_dim_section_space_oracles():
    assert dim_section_space(2, 0) == 6
    assert dim_section_space(3, 1) == 20
    assert dim_section_space(1, 0) == 3


def test_weyl_dim_matches_section_spaces():
    for n in range(1, 13):
        for k in range(n):
            assert weyl_dim(n, k) == dim_section_space(n, k)


def test_weyl_dim_domain():
    with pytest.raises(ValueError):
        weyl_dim(3, 3)
    with pytest.raises(ValueError):
        weyl_dim(3, -1)
    with pytest.raises(ValueError):
        dim_section_space(2, 2)


def test_plucker_relation_count():
    assert plucker_relation_count(3, 1) == 1
    for n in range(2, 13):
        assert plucker_relation_count(n, 1) == comb(n + 1, 4)
    assert plucker_relation_count(5, 0) == 0


def test_ambient_projective_dim():
    assert ambient_projective_dim(collineations(3)) == 15
    assert ambient_projective_dim(quadrics(3)) == 9
    assert ambient_projective_dim(collineations(2, 5)) == 17
    assert ambient_projective_dim(collineations(1, 1)) == 3


def test_cox_generator_count_oracles():
    assert cox_generator_count(quadrics(2)) == 14
    assert cox_generator_count(collineations(3)) == 71
    assert cox_generator_count(collineations(2, 3)) == 36


def test_cox_generator_count_matches_grading_matrix():
    for s in (quadrics(2), quadrics(3), collineations(2, 4), collineations(3)):
        g = grading_matrix(s)
        assert cox_generator_count(s) == g.total_multiplicity


def test_cox_generator_count_rejects_stages():
    with pytest.raises(ValueError):
        cox_generator_count(collineations(3, stage=1))


def test_movable_ray_count_law():
    # The movable cone of X(3) is pinned at 4 rays in the CLI's golden JSON.
    assert movable_ray_count(collineations(3)) == 4
    assert movable_ray_count(quadrics(5)) == 16
    assert movable_ray_count(collineations(2, 3)) == 3
    assert movable_ray_count(collineations(2, 5)) == 3
    with pytest.raises(ValueError):
        movable_ray_count(collineations(3, stage=1))


def test_dim_cox():
    for m in range(2, 7):
        assert dim_cox(collineations(1, m)) == 2 * m + 3
    assert dim_cox(quadrics(2)) == 7
    assert dim_cox(collineations(2)) == 10
