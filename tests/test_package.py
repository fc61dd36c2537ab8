import ast
import os
import pickle
import re
import subprocess
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
from formcones.chambers import Chamber, Wall
from formcones.errors import DimensionMismatch
from formcones.linalg import rank
from formcones.spaces import CurveClass, DivisorClass, quadrics


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


def test_no_test_module_imports_another():
    # Data and spies that several modules use live in support.py, so no
    # test module depends on another one's collection.
    paths = sorted(Path(__file__).parent.rglob("*.py"))
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            for name in names:
                assert not any(part.startswith("test_") for part in name.split(".")), \
                    f"{path.name}:{node.lineno}: imports {name}"
    assert len(paths) > 2


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



def test_record_value_semantics():
    # What callers see of the records, whatever class machinery builds them.
    # A space is validated however it is built.
    def by_keywords(family, n, m, stage):
        return SpaceSpec(family=family, n=n, m=m, stage=stage)

    def by_helper(family, n, m, stage):
        if family == "quadrics":
            return quadrics(n, stage=stage)
        return collineations(n, m, stage=stage)

    for build in (SpaceSpec, by_keywords, by_helper):
        assert build("quadrics", 3, 3, 2) == SpaceSpec("quadrics", 3, 3, 2)
        for args, message in [
                (("collineations", 3, 2, None), "n <= m is required"),
                (("collineations", 0, 2, None), "n must be positive"),
                (("collineations", 3, 3, 0), "stage 0 out of range 1..2"),
                (("quadrics", 3, 3, 3), "stage 3 out of range 1..2"),
                (("collineations", 1, 5, 1),
                 "stage 1 given, but n=1 has no intermediate stage")]:
            with pytest.raises(ValueError, match=re.escape(message)):
                build(*args)
    for build in (SpaceSpec, by_keywords):  # the helpers fix the family
        with pytest.raises(ValueError, match="unknown family 'flags'"):
            build("flags", 2, 2, None)
    # A class is equal, and hashes, by its coordinates alone.
    a, b = DivisorClass((1, 0), "a"), DivisorClass((1, 0), "b")
    assert a == b and hash(a) == hash(b)
    assert a != DivisorClass((0, 1), "a")
    assert CurveClass((1, 0), "l") == CurveClass((1, 0), None)
    assert CurveClass((1, 0)) != DivisorClass((1, 0))
    assert (-a).label == "-a" and -a == DivisorClass((-1, 0))
    assert pickle.loads(pickle.dumps(a)).label == "a"
    s = quadrics(3)
    assert hash(s) == hash(("quadrics", 3, 3, None))
    wall = Wall(0, 1, (1, -1))
    assert hash(wall) == hash((0, 1, (1, -1)))
    chamber = Chamber(((1, 0), (0, 1)), (1, 1))
    for record, field in ((s, "n"), (a, "label"), (a, "coords"), (wall, "first")):
        with pytest.raises(AttributeError):
            setattr(record, field, 2)
    assert repr(s) == "SpaceSpec(family='quadrics', n=3, m=3, stage=None)"
    assert repr(a) == "DivisorClass(coords=(1, 0), label='a')"
    assert repr(wall) == "Wall(first=0, second=1, normal=(1, -1))"
    assert repr(chamber) == ("Chamber(rays=((1, 0), (0, 1)), sample=(1, 1), "
                             "label=None, pieces=(), erased_walls=())")


def test_the_cli_imports_neither_dataclasses_nor_fractions():
    # dataclasses (with inspect, ast, dis and tokenize), fractions (with
    # decimal and numbers) and building the dataclasses took about half of
    # `import formcones.cli`, and the package needs neither.  Which modules
    # load does not depend on timing.
    src = Path(formcones.__file__).parent.parent
    code = ("import formcones.cli, sys; print(formcones.cli.__file__); "
            "print(*sorted({'dataclasses', 'inspect', 'fractions', 'decimal'}"
            " & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    path, loaded = done.stdout.split("\n")[:2]
    assert Path(path).is_relative_to(src)
    assert loaded == ""
