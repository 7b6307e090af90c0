import pytest


def _assert_bounded(memo, keys, maxsize, view=lambda value: value):
    # after maxsize + 1 distinct keys the memo holds maxsize, and the evicted
    # first key computes an equal value with one new miss.  view maps a value
    # to what equality compares, for records with no equality of their own
    assert len(keys) == maxsize + 1 and memo.cache_info().maxsize == maxsize
    memo.cache_clear()
    first = view(memo(*keys[0]))
    for key in keys[1:]:
        memo(*key)
    info = memo.cache_info()
    assert info.currsize == maxsize and info.misses == maxsize + 1
    assert view(memo(*keys[0])) == first
    after = memo.cache_info()
    assert after.misses == info.misses + 1 and after.currsize == maxsize


@pytest.fixture
def assert_bounded():
    return _assert_bounded
