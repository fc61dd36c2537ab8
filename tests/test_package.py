import ast
import re
import sys
from pathlib import Path

import pytest

import formcones
from formcones import (
    SpaceSpec,
    chambers,
    collineations,
    cone_from_halfspaces,
    cone_from_rays,
    cones,
    divisor_E,
    errors,
    formulas,
    gkz_fan,
    interior_point,
    intersect,
    locate,
    movable_cone,
    spaces,
)
from formcones.errors import DimensionMismatch
from formcones.linalg import rank


def test_readme_python_api_example_through_the_package_root():
    s = collineations(3)
    assert movable_cone(s).rays == (
        (1, 0, 0), (2, -1, 0), (3, -2, -1), (6, -3, -2))
    fan = gkz_fan(s)
    assert locate(fan, (6, -3, -1)) == 6
    assert [name for name in formcones.__all__
            if not hasattr(formcones, name)] == []


def test_the_package_imports_only_the_standard_library():
    # pyproject.toml declares no runtime dependency, so every absolute
    # import in the package must name a standard-library module.
    package = Path(formcones.__file__).parent
    scanned = 0
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.partition(".")[0] in sys.stdlib_module_names, \
                    f"{path.name}:{node.lineno}: imports {name}"
        scanned += 1
    assert scanned > 1


def test_the_root_exports_each_module_list_once():
    # Each module's __all__ is the one declaration of its public names, and
    # the root re-exports those lists in this order.
    modules = (cones, spaces, chambers, formulas, errors)
    for module in modules:
        assert [name for name in module.__all__
                if not hasattr(module, name)] == [], module.__name__
    names = formcones.__all__
    assert len(set(names)) == len(names)
    assert names == ["__version__", "VERSION"] + [
        name for module in modules for name in module.__all__]
    for module in modules:
        for name in module.__all__:
            assert getattr(formcones, name) is getattr(module, name), name


@pytest.mark.parametrize("call, expected", [
    pytest.param(lambda: cone_from_rays(0, []),
                 ValueError("ambient rank must be at least 1"),
                 id="cone-of-rank-0"),
    pytest.param(lambda: intersect(cone_from_rays(2, [(1, 0)]),
                                   cone_from_rays(3, [(1, 0, 0)])),
                 DimensionMismatch("ambient ranks 2 and 3 differ"),
                 id="intersect-across-ranks"),
    pytest.param(lambda: cone_from_rays(2, [(1, 0)]) == (1, 0), False,
                 id="cone-equals-a-tuple"),
    pytest.param(lambda: interior_point(cone_from_halfspaces(3, [])),
                 (0, 0, 0), id="interior-point-of-the-full-space"),
    pytest.param(lambda: rank([(1, 2), (1,)]),
                 DimensionMismatch("ragged matrix"), id="ragged-rank"),
    pytest.param(lambda: SpaceSpec("quadrics", 2, 3),
                 ValueError("quadrics are square: m must equal n"),
                 id="non-square-quadrics"),
    pytest.param(lambda: divisor_E(collineations(3), 4),
                 ValueError("h=4 out of range 1..3"), id="E-past-the-top"),
])
def test_input_checks(call, expected):
    if isinstance(expected, Exception):
        with pytest.raises(type(expected), match=re.escape(str(expected))):
            call()
    else:
        assert call() == expected
