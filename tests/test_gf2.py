import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
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


def packed(width):
    return st.integers(0, (1 << width) - 1)


def parity(a: int, b: int) -> int:
    return (a & b).bit_count() & 1


@given(st.lists(packed(5), min_size=0, max_size=6))
def test_nullspace_is_orthogonal_complement(rows):
    ns = gf2.nullspace(rows, 5)
    for d in ns:
        for r in rows:
            assert parity(d, r) == 0
    # dimension count: rank + nullity = width
    assert len(gf2.row_reduce(rows)) + len(ns) == 5


def test_nullspace_example():
    assert gf2.nullspace([0b11], 2) == [0b11]


@given(st.lists(packed(5), min_size=1, max_size=4), st.integers(0, 2**32 - 1))
def test_sample_span_membership(rows, seed):
    rng = np.random.default_rng(seed)
    v = gf2.sample_span(rows, rng)
    assert span_contains([gf2.int_to_bits(r, 5) for r in rows],
                         gf2.int_to_bits(v, 5))


def test_sample_span_of_no_rows_is_zero_and_draws_nothing():
    rng = np.random.default_rng(5)
    before = rng.bit_generator.state
    assert gf2.sample_span([], rng) == 0
    assert rng.bit_generator.state == before


def test_solve_affine_inconsistent():
    # x1 = 0 and x1 = 1 cannot both hold.
    assert gf2.solve_affine([(0b10, 0), (0b10, 1)], 2) is None


@pytest.mark.parametrize("vec", [0b100, 0b111, -1])
def test_solve_affine_refuses_a_constraint_wider_than_width(vec):
    with pytest.raises(ValueError, match="wider"):
        gf2.solve_affine([(0b01, 1), (vec, 0)], 2)
    rng = np.random.default_rng(6)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="wider"):
        gf2.sample_solution([(vec, 1)], 2, rng)
    assert rng.bit_generator.state == before


@given(
    st.lists(st.tuples(packed(6), st.integers(0, 1)), min_size=0, max_size=5),
    st.integers(0, 2**32 - 1),
)
def test_sample_solution_satisfies_constraints(constraints, seed):
    rng = np.random.default_rng(seed)
    v = gf2.sample_solution(constraints, 6, rng)
    if v is not None:
        for vec, bit in constraints:
            assert parity(v, vec) == bit


def test_sample_solution_hits_all_solutions():
    rng = np.random.default_rng(0)
    seen = set()
    for _ in range(200):
        seen.add(gf2.sample_solution([(0b110, 1)], 3, rng))
    # 4 solutions: first two bits differ, last free.
    assert seen == {0b100, 0b010, 0b101, 0b011}


def _random_system(cases, width):
    """Rows of a random system: sometimes none, often more rows than the
    width, and half the time with one row the xor of two others."""
    rows = [int(cases.integers(0, 1 << width))
            for _ in range(int(cases.integers(0, width + 3)))]
    if len(rows) >= 2 and cases.random() < 0.5:
        rows.insert(int(cases.integers(0, len(rows) + 1)), rows[0] ^ rows[1])
    return rows


def test_packed_linear_algebra_matches_the_tuple_oracles():
    """The packed functions give the bit-tuple references' results, after
    int_to_bits, and leave the generator where the references leave it."""
    cases = np.random.default_rng(28)
    seen = {"empty": 0, "dependent": 0, "inconsistent": 0}
    for trial in range(720):
        width = 1 + trial % 12
        rows = _random_system(cases, width)
        bits = [int(b) for b in cases.integers(0, 2, len(rows))]
        vecs = [gf2.int_to_bits(r, width) for r in rows]

        def unpack(v, width=width):
            return gf2.int_to_bits(v, width)

        assert ([unpack(v) for v in gf2.nullspace(rows, width)]
                == oracles.nullspace(vecs, width))
        solved = gf2.solve_affine(list(zip(rows, bits)), width)
        expected = oracles.solve_affine(list(zip(vecs, bits)), width)
        if expected is None:
            assert solved is None
        else:
            assert (unpack(solved[0]), [unpack(h) for h in solved[1]]) \
                == expected
        rng, ref = np.random.default_rng(trial), np.random.default_rng(trial)
        if rows:
            assert (unpack(gf2.sample_span(rows, rng))
                    == oracles.sample_span(vecs, ref))
        v = gf2.sample_solution(list(zip(rows, bits)), width, rng)
        assert (None if v is None else unpack(v)) \
            == oracles.sample_solution(list(zip(vecs, bits)), width, ref)
        assert rng.bit_generator.state == ref.bit_generator.state
        seen["empty"] += not rows
        seen["dependent"] += rank(vecs) < len(rows)
        seen["inconsistent"] += expected is None
    assert min(seen.values()) >= 30, seen
