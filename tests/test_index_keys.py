"""Unit tests for index key encoding (repro.indexes.keys)."""

from hypothesis import given
from hypothesis import strategies as st

from repro.indexes.keys import (
    AFTER_ALL,
    NULL_COMPONENT,
    RID_AFTER_ALL,
    decode_key,
    encode_component,
    encode_key,
    key_has_prefix,
    prefix_end,
)
from repro.nulls import NULL

values = st.one_of(st.integers(-50, 50), st.text(max_size=4), st.just(NULL))


class TestEncoding:
    def test_null_component(self):
        assert encode_component(NULL) == NULL_COMPONENT

    def test_value_component(self):
        assert encode_component(7) == (1, 7)

    def test_encode_key_mixed(self):
        assert encode_key((NULL, 3)) == (NULL_COMPONENT, (1, 3))

    def test_null_sorts_before_everything(self):
        assert encode_key((NULL,)) < encode_key((-(10**9),))
        assert encode_key((NULL, 5)) < encode_key((0, 5))

    def test_prefix_preserved(self):
        full = encode_key((1, NULL, 3))
        partial = encode_key((1, NULL))
        assert key_has_prefix(full, partial)
        assert not key_has_prefix(full, encode_key((2,)))

    @given(st.lists(values, max_size=5))
    def test_roundtrip(self, vs):
        key = encode_key(vs)
        assert decode_key(key) == tuple(vs)

    @given(st.lists(st.integers(0, 20), min_size=1, max_size=4),
           st.lists(st.integers(0, 20), min_size=1, max_size=4))
    def test_order_matches_tuple_order_for_totals(self, a, b):
        # For equal-length total keys the encoding is order-isomorphic.
        n = min(len(a), len(b))
        a, b = a[:n], b[:n]
        assert (encode_key(a) < encode_key(b)) == (tuple(a) < tuple(b))


class TestPrefixEnd:
    """``[prefix, prefix_end(prefix, width))`` holds exactly the index
    entries ``(c1, …, c_width, rid)`` whose key starts with *prefix*."""

    def test_end_bounds_prefix_block(self):
        prefix = encode_key((3,))
        end = prefix_end(prefix, 3)
        assert end[-1] == AFTER_ALL
        inside = (*encode_key((3, 99, 99)), 10**6)
        outside = (*encode_key((4, NULL, NULL)), 0)
        assert prefix < inside < end < outside

    def test_end_of_null_component(self):
        prefix = encode_key((NULL,))
        end = prefix_end(prefix, 2)
        inside = (*encode_key((NULL, 10**9)), 5)
        assert prefix < inside < end < (*encode_key((0, NULL)), 0)

    def test_empty_prefix(self):
        end = prefix_end((), 2)
        assert end == (AFTER_ALL,)
        assert () < (*encode_key((10**9, "z")), 7) < end

    def test_full_key_ends_past_every_rid(self):
        # past a full key comes the int rid, which AFTER_ALL cannot be
        # compared with
        key = encode_key((3, NULL))
        end = prefix_end(key, 2)
        assert end == (*key, RID_AFTER_ALL)
        assert key < (*key, 0) < (*key, 10**12) < end
        assert end < (*encode_key((3, 0)), 0)
