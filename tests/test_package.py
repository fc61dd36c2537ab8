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
