import ast
import sys
from pathlib import Path

import formcones
from formcones import collineations, gkz_fan, locate, movable_cone


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
