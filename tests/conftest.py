import pytest

from formcones import chambers, cones, spaces


@pytest.fixture
def cold_caches():
    """Every cache of the package emptied before and after the test.

    Before, so the test's spies see the work run; after, so nothing made
    with a spy in place is kept.  Yields the ``lru_cache``s it empties.
    """
    lru_caches = (cones._generated, chambers._walk)

    def empty():
        for cache in lru_caches:
            cache.cache_clear()
        spaces._last_movable.clear()

    empty()
    yield lru_caches
    empty()
