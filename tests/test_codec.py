import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subspaceq import codec


def oracle_class_length(n):
    # independent route: smallest b with |n| + 1 <= 2^b
    n = abs(n)
    b = 0
    while (1 << b) < n + 1:
        b += 1
    return b


def oracle_class_members(b):
    # the magnitude classes written out as explicit sets
    if b == 0:
        return [0]
    lo, hi = 1 << (b - 1), (1 << b) - 1
    return list(range(-hi, -lo + 1)) + list(range(lo, hi + 1))


def test_partition_index_frozen_values():
    assert codec.partition_index(0) == 0
    assert codec.partition_index(-7) == 3
    assert codec.partition_index(2**20) == 21


def test_partition_index_matches_oracle_exhaustive():
    for n in range(-600, 601):
        assert codec.partition_index(n) == oracle_class_length(n)


def test_partition_classes_tile_the_integers():
    seen = {}
    for b in range(9):
        for n in oracle_class_members(b):
            assert n not in seen
            seen[n] = b
            assert codec.partition_index(n) == b
    # contiguous coverage of [-255, 255]
    assert sorted(seen) == list(range(-255, 256))


def test_partition_index_monotone_in_magnitude():
    ns = sorted(range(-300, 301), key=abs)
    lengths = [codec.partition_index(n) for n in ns]
    assert lengths == sorted(lengths)


def test_encode_integer_frozen_values():
    assert codec.encode_integer(0) == ""
    assert codec.encode_integer(-1) == "0"
    assert codec.encode_integer(1) == "1"
    assert codec.encode_integer(-7) == "000"   # first element of the 3-bit class
    assert codec.encode_integer(-10) == "0101"  # sixth element of the 4-bit class


def test_encode_integer_is_rank_in_ascending_class_order():
    for b in range(1, 11):
        members = oracle_class_members(b)
        words = [codec.encode_integer(n) for n in members]
        assert all(len(w) == b for w in words)
        # ascending numeric order maps to ascending rank 0..2^b-1
        assert [int(w, 2) for w in words] == list(range(1 << b))


def test_codewords_distinct_within_class():
    for b in range(1, 9):
        words = {codec.encode_integer(n) for n in oracle_class_members(b)}
        assert len(words) == 1 << b


def test_worked_stream():
    # four integers with codeword lengths (3, 4, 2, 0): 13 symbols
    s = codec.encode_sequence([7, -10, 2, 0])
    assert s.symbols == "111p0101p10pp"
    assert s.integer_count == 4
    assert len(s.symbols) == 13
    assert codec.decode_sequence(s) == [7, -10, 2, 0]
    # its members sit in the 3-, 4-, 2-, and 0-bit classes
    assert [codec.partition_index(n) for n in (7, -10, 2, 0)] == [3, 4, 2, 0]


def test_zero_sequence_costs_one_parse_symbol():
    s = codec.encode_sequence([0])
    assert s.symbols == "p"
    assert s.bit_cost == math.log2(3)
    assert codec.decode_sequence("p") == [0]


def test_single_codeword_frozen_decode():
    assert codec.decode_sequence("000p") == [-7]
    assert codec.decode_sequence("0101p") == [-10]


def test_empty_stream_is_empty_sequence():
    s = codec.encode_sequence([])
    assert s.symbols == "" and s.integer_count == 0 and s.bit_cost == 0.0
    assert codec.decode_sequence("") == []


def test_malformed_streams_rejected():
    with pytest.raises(codec.MalformedStream):
        codec.decode_sequence("111")  # no trailing parse
    with pytest.raises(codec.MalformedStream):
        codec.decode_sequence("10x1p")
    with pytest.raises(codec.MalformedStream):
        codec.decode_codeword("2")


@given(st.lists(st.integers(min_value=-(10**9), max_value=10**9)))
@settings(max_examples=300, deadline=None)
def test_roundtrip_property(ns):
    s = codec.encode_sequence(ns)
    assert codec.decode_sequence(s) == ns


@given(st.lists(st.integers()))
@settings(max_examples=100, deadline=None)
def test_roundtrip_property_unbounded(ns):
    assert codec.decode_sequence(codec.encode_sequence(ns)) == ns


@given(st.lists(st.integers(min_value=-(2**40), max_value=2**40)))
@settings(max_examples=200, deadline=None)
def test_cost_law_termwise(ns):
    s = codec.encode_sequence(ns)
    expected = math.log2(3) * sum(1 + oracle_class_length(n) for n in ns)
    assert s.bit_cost == expected
    assert codec.sequence_bit_cost(ns) == expected
    assert s.bit_cost == codec.BITS_PER_SYMBOL * len(s.symbols)


def test_heavy_tailed_roundtrips():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = rng.integers(1, 40)
        ns = np.rint(rng.standard_cauchy(n) * 10).astype(np.int64).tolist()
        assert codec.decode_sequence(codec.encode_sequence(ns)) == ns

