import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import rank, span_contains
from ospsim import gf2


def bits(width, max_width=None):
    if max_width is None:
        return st.lists(st.integers(0, 1), min_size=width, max_size=width).map(tuple)
    return st.lists(st.integers(0, 1), min_size=width, max_size=max_width).map(tuple)


@given(st.integers(min_value=0, max_value=2**16 - 1))
def test_int_bits_roundtrip(value):
    assert gf2.bits_to_int(gf2.int_to_bits(value, 16)) == value


@given(bits(8))
def test_bits_int_roundtrip(vec):
    assert gf2.int_to_bits(gf2.bits_to_int(vec), 8) == vec


@given(bits(10))
def test_text_roundtrip(vec):
    assert gf2.text_to_bits(gf2.bits_to_text(vec)) == vec


def test_msb_first_convention():
    assert gf2.bits_to_int((1, 0, 0)) == 4
    assert gf2.int_to_bits(6, 3) == (1, 1, 0)


@given(bits(6), bits(6))
def test_dot_symmetry(a, b):
    assert gf2.dot(a, b) == gf2.dot(b, a)


@given(bits(6), bits(6), bits(6))
def test_dot_linearity(a, b, c):
    assert gf2.dot(gf2.xor_vec(a, b), c) == gf2.dot(a, c) ^ gf2.dot(b, c)


def test_length_mismatch_errors():
    with pytest.raises(ValueError):
        gf2.dot((0, 1), (1,))
    with pytest.raises(ValueError):
        gf2.xor_vec((0,), (1, 0))


def test_rank_known_values():
    assert rank([(1, 0, 0), (0, 1, 0), (1, 1, 0)]) == 2
    assert rank([(0, 0)]) == 0
    assert rank([]) == 0
    assert rank([(1, 1, 1), (0, 1, 1), (0, 0, 1)]) == 3


@given(st.lists(bits(5), min_size=0, max_size=6))
def test_nullspace_is_orthogonal_complement(rows):
    ns = gf2.nullspace(rows, 5)
    for d in ns:
        for r in rows:
            assert gf2.dot(d, r) == 0
    # dimension count: rank + nullity = width
    assert rank(rows, 5) + len(ns) == 5


def test_nullspace_example():
    ns = gf2.nullspace([(1, 1)], 2)
    assert sorted(ns) == [(1, 1)]


@given(st.lists(bits(5), min_size=1, max_size=4), st.integers(0, 2**32 - 1))
def test_sample_span_membership(rows, seed):
    rng = np.random.default_rng(seed)
    v = gf2.sample_span(rows, rng)
    assert span_contains(rows, v)


def test_solve_affine_inconsistent():
    # x1 = 0 and x1 = 1 cannot both hold.
    assert gf2.solve_affine([((1, 0), 0), ((1, 0), 1)], 2) is None


@given(
    st.lists(st.tuples(bits(6), st.integers(0, 1)), min_size=0, max_size=5),
    st.integers(0, 2**32 - 1),
)
def test_sample_solution_satisfies_constraints(constraints, seed):
    rng = np.random.default_rng(seed)
    v = gf2.sample_solution(constraints, 6, rng)
    if v is not None:
        for vec, bit in constraints:
            assert gf2.dot(v, vec) == bit


def test_sample_solution_hits_all_solutions():
    rng = np.random.default_rng(0)
    seen = set()
    for _ in range(200):
        seen.add(gf2.sample_solution([((1, 1, 0), 1)], 3, rng))
    # 4 solutions: first two bits differ, last free.
    assert seen == {(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)}
