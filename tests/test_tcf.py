import hashlib

import numpy as np
import pytest
from fractions import Fraction

from oracles import apply_bit_function, claw_oracle, drop_qubits, uniform_state
from ospsim import gf2, qsim, tcf


def _find_plain(n, shift_bits):
    """Scan seeds for a plain family with a specific shift (tests only)."""
    for seed in range(4000):
        pp, sp = tcf.gen("plain", 0, n, 0, 1, seed)
        if sp.shift == shift_bits:
            return pp, sp
    raise AssertionError("no seed found for requested shift")


def _find_dual_lossy(n, k, delta, shift_bits):
    for seed in range(4000):
        pp, sp = tcf.gen("dual", 1, n, k, delta, seed)
        if sp.shift == shift_bits:
            return pp, sp
    raise AssertionError("no seed found for requested shift")


# ------------------------------------------------------------------- gen


def test_disjoint_has_no_cross_branch_images():
    pp, sp = tcf.gen("dual", 0, 6, 0, 1, 1)
    oracle = claw_oracle(pp)
    for preimages in oracle.values():
        branches = {b for b, _ in preimages}
        assert len(branches) == 1


def test_lossy_half_delta_claw_fraction():
    pp, sp = tcf.gen("dual", 1, 6, 1, Fraction(1, 2), 2)
    clawed = 0
    for xi in range(1 << 6):
        x = gf2.int_to_bits(xi, 6)
        y = tcf.eval(pp, 0, x)
        if tcf.claw_invert(sp, y) is not None:
            clawed += 1
    assert clawed == (1 << 6) // 2  # exactly half of inputs by prefix bit


def test_plain_exactly_two_to_one():
    pp, sp = tcf.gen("plain", 0, 4, 0, 1, 3)
    oracle = claw_oracle(pp)
    assert len(oracle) == 8
    for preimages in oracle.values():
        assert len(preimages) == 2


def test_gen_validations():
    with pytest.raises(ValueError):
        tcf.gen("plain", 0, 19, 0, 1, 0)  # n+2 > 20
    with pytest.raises(ValueError):
        tcf.gen("plain", 0, 4, 1, Fraction(1, 2), 0)  # plain needs delta=1
    with pytest.raises(ValueError):
        tcf.gen("dual", 1, 4, 2, Fraction(1, 3), 0)  # delta*2^k not integral
    with pytest.raises(ValueError):
        tcf.gen("nope", 0, 4, 0, 1, 0)


@pytest.mark.parametrize("family, mu, n", [("plain", 0, 4), ("dual", 1, 3),
                                           ("dual", 0, 3)])
def test_every_spelling_of_delta_one_builds_the_same_family(family, mu, n):
    built = [tcf.gen(family, mu, n, 0, delta, 17)
             for delta in (1, 1.0, Fraction(1), "1")]
    pp, sp = built[0]
    for other_pp, other_sp in built[1:]:
        assert other_pp == pp and other_pp.table == pp.table
        assert other_sp == sp and other_sp.perm_inverse == sp.perm_inverse
        assert other_sp.delta_param is sp.delta_param == 1


@pytest.mark.parametrize("delta, message", [
    (0, "delta must lie in (0, 1]"),
    (Fraction(0), "delta must lie in (0, 1]"),
    (Fraction(3, 2), "delta must lie in (0, 1]"),
    ("3/2", "delta must lie in (0, 1]"),
    (1.5, "delta must lie in (0, 1]"),
    (Fraction(1, 3), "delta * 2^k must be integral"),
    ("1/3", "delta * 2^k must be integral"),
])
def test_a_bad_delta_at_k_two_keeps_its_message(delta, message):
    with pytest.raises(ValueError) as caught:
        tcf.gen("dual", 1, 4, 2, delta, 0)
    assert str(caught.value) == message


def test_shift_respects_prefix_zeros():
    pp, sp = tcf.gen("dual", 1, 6, 2, Fraction(1, 2), 5)
    assert sp.shift[:2] == (0, 0)
    assert any(sp.shift[2:])


# ------------------------------------------------------------------- eval


def test_plain_claw_pair_collides():
    pp, sp = _find_plain(4, (0, 0, 1, 1))
    assert tcf.eval(pp, 0, (0, 1, 0, 1)) == tcf.eval(pp, 0, (0, 1, 1, 0))
    # generic claw law for every x
    for xi in range(16):
        x = gf2.int_to_bits(xi, 4)
        assert tcf.eval(pp, 0, x) == tcf.eval(pp, 0, gf2.xor_vec(x, sp.shift))


def test_disjoint_branch_images_disjoint():
    pp, _ = tcf.gen("dual", 0, 6, 0, 1, 7)
    ys0 = {tcf.eval(pp, 0, gf2.int_to_bits(x, 6)) for x in range(64)}
    ys1 = {tcf.eval(pp, 1, gf2.int_to_bits(x, 6)) for x in range(64)}
    assert not ys0 & ys1


def test_dual_injective_per_branch():
    for mu in (0, 1):
        pp, _ = tcf.gen("dual", mu, 6, 0, 1, 11)
        for b in (0, 1):
            ys = {tcf.eval(pp, b, gf2.int_to_bits(x, 6)) for x in range(64)}
            assert len(ys) == 64


def test_eval_input_validation():
    pp, _ = tcf.gen("plain", 0, 4, 0, 1, 0)
    with pytest.raises(ValueError):
        tcf.eval(pp, 0, (0, 1))


# ----------------------------------------------------------------- decode


def test_lossy_claw_invert():
    pp, sp = tcf.gen("dual", 1, 6, 0, 1, 13)
    for xi in (0, 5, 63):
        x = gf2.int_to_bits(xi, 6)
        y = tcf.eval(pp, 0, x)
        claw = tcf.claw_invert(sp, y)
        assert claw == (x, gf2.xor_vec(x, sp.shift))


def test_phase_invert_example():
    pp, sp = _find_dual_lossy(4, 0, 1, (0, 0, 1, 1))
    y = tcf.eval(pp, 0, (1, 0, 1, 0))
    assert tcf.phase_invert(sp, y, (0, 0, 0, 1)) == 1
    assert tcf.phase_invert(sp, y, (0, 0, 1, 1)) == 0


def test_phase_invert_matches_bruteforce_sign():
    # sign(w_0) = (-1)^s sign(w_1) where w_b sums (-1)^{d.x} over preimages.
    pp, sp = tcf.gen("dual", 1, 4, 1, Fraction(1, 2), 17)
    oracle = claw_oracle(pp)
    for y_int, preimages in oracle.items():
        if len(preimages) != 2:
            continue
        y = gf2.int_to_bits(y_int, pp.m)
        by_branch = {b: x for b, x in preimages}
        for d_int in range(16):
            d = gf2.int_to_bits(d_int, 4)
            s = tcf.phase_invert(sp, y, d)
            w0 = (-1) ** gf2.dot(d, by_branch[0])
            w1 = (-1) ** gf2.dot(d, by_branch[1])
            assert w0 == (-1) ** s * w1


def test_partial_invert():
    pp, sp = tcf.gen("dual", 0, 5, 0, 1, 19)
    y = tcf.eval(pp, 1, (0, 1, 1, 0, 1))
    assert tcf.partial_invert(sp, y) == frozenset({1})
    lossy_pp, lossy_sp = tcf.gen("dual", 1, 5, 0, 1, 19)
    y2 = tcf.eval(lossy_pp, 1, (0, 1, 1, 0, 1))
    assert tcf.partial_invert(lossy_sp, y2) == frozenset({0, 1})


def test_decode_bottom_is_value_not_error():
    pp, sp = tcf.gen("dual", 0, 4, 0, 1, 23)
    y = tcf.eval(pp, 0, (0, 0, 0, 0))
    assert tcf.claw_invert(sp, y) is None
    assert tcf.phase_invert(sp, y, (0, 0, 0, 0)) is None


def test_decode_size_validation():
    pp, sp = tcf.gen("dual", 1, 4, 0, 1, 29)
    with pytest.raises(ValueError):
        tcf.claw_invert(sp, (0, 1))
    with pytest.raises(ValueError):
        tcf.phase_invert(sp, tcf.eval(pp, 0, (0,) * 4), (0, 1))
    plain_pp, plain_sp = tcf.gen("plain", 0, 4, 0, 1, 29)
    with pytest.raises(ValueError):
        tcf.partial_invert(plain_sp, tcf.eval(plain_pp, 0, (0,) * 4))


def test_claw_invert_agrees_with_oracle():
    for family, mu, n, k, delta, seed in [
        ("plain", 0, 6, 0, 1, 31),
        ("dual", 1, 6, 1, Fraction(1, 2), 31),
        ("dual", 1, 5, 0, 1, 37),
        ("dual", 0, 5, 0, 1, 41),
    ]:
        pp, sp = tcf.gen(family, mu, n, k, delta, seed)
        oracle = claw_oracle(pp)
        for y_int, preimages in oracle.items():
            y = gf2.int_to_bits(y_int, pp.m)
            claw = tcf.claw_invert(sp, y)
            if len(preimages) == 2:
                if family == "plain":
                    assert claw is not None and set(claw) == set(preimages)
                else:
                    by_branch = {b: x for b, x in preimages}
                    assert claw == (by_branch[0], by_branch[1])
            else:
                assert claw is None


# ---------------------------------------------------------- superpositions


def test_post_measurement_claw_state_dense_oracle():
    # Evaluate F(B, X) in superposition, measure y, and check the remaining
    # (B, X) register is the claw pair state.
    pp, sp = tcf.gen("dual", 1, 3, 0, 1, 53)
    rng = np.random.default_rng(99)
    reg = uniform_state(pp.n + 1)
    total = apply_bit_function(
        reg,
        tuple(range(4)),
        lambda bits: tcf.eval(pp, bits[0], bits[1:]),
        pp.m,
    )
    y_qubits = tuple(range(4, 4 + pp.m))
    y_bits, post = qsim.measure(total, y_qubits, qsim.Basis.Z, rng)
    remaining = drop_qubits(post, y_qubits, y_bits)
    claw = tcf.claw_invert(sp, y_bits)
    assert claw is not None  # delta = 1: every image is a claw image
    x0, x1 = claw
    expected = qsim.TwoBranchState(4, (0,) + x0, (1,) + x1, 1)
    assert qsim.fidelity(remaining, expected) > 1 - 1e-9


# ------------------------------------------------------------ claw oracle


def test_claw_oracle_lossy_input_fraction():
    pp, sp = tcf.gen("dual", 1, 6, 1, Fraction(1, 2), 59)
    oracle = claw_oracle(pp)
    clawed_inputs = sum(len(v) for v in oracle.values() if len(v) == 2)
    assert clawed_inputs == 64  # half of the 128 (b,x) inputs sit in claws


def test_claw_oracle_size_limit():
    pp, _ = tcf.gen("dual", 0, 13, 0, 1, 0)
    with pytest.raises(ValueError):
        claw_oracle(pp)


# ----------------------------------------------------------- serialization


def test_serialization_schema():
    pp, _ = tcf.gen("dual", 1, 4, 1, Fraction(1, 2), 67)
    pub = pp.serialize()
    assert set(pub) == {"n", "m", "mode", "k"}
    assert pub["mode"] == "lossy" and pub["m"] == 6


def test_gen_is_deterministic():
    a_pp, a_sp = tcf.gen("dual", 1, 5, 1, Fraction(1, 2), 71)
    b_pp, b_sp = tcf.gen("dual", 1, 5, 1, Fraction(1, 2), 71)
    assert a_pp.serialize() == b_pp.serialize()
    assert a_sp.shift == b_sp.shift and a_sp.prefix_set == b_sp.prefix_set
    assert np.array_equal(a_pp.table, b_pp.table)


# ------------------------------------------------------------ pinned outputs

TCF_PINNED = {
    "disjoint": "f65ef6020855f8931b03baf4c7598437d887eb508ed1679d9666c26652ca73f0",
    "lossy": "75519a24e90622eb2a34fcf519c910e2b941e68e767591f60e6a33424e5b6f96",
    "plain": "835281508c50d30dbe73d4c564ce331610d55ff1b1bdaba3ae581280a914c672",
}


def _pinned_configs(kind):
    """(family, mu, n, k, delta) for every seeded family a digest covers."""
    for n in range(1, 7):
        if kind == "plain":
            yield "plain", 0, n, 0, 1
            continue
        for k in (0, 1, 2):
            for delta in (1, Fraction(1, 2), Fraction(1, 4)):
                if k < n and (delta * (1 << k)).denominator == 1:
                    yield "dual", int(kind == "lossy"), n, k, delta


def _public_digest(kind) -> str:
    """sha256 over the public outputs of seeded families of one kind:
    eval at every (b, x), claw_invert and partial_invert at every y < 2^m,
    and phase_invert at every y with a seeded d.  Reads nothing of how a
    family stores its tables or its trapdoor."""
    digest = hashlib.sha256()
    for family, mu, n, k, delta in _pinned_configs(kind):
        for seed in (0, 1, 2):
            pp, sp = tcf.gen(family, mu, n, k, delta, 1000 * n + seed)
            digest.update(repr((pp.serialize(), sp.shift)).encode())
            for b in (0, 1):
                for xi in range(1 << n):
                    digest.update(repr(tcf.eval(pp, b, gf2.int_to_bits(xi, n)))
                                  .encode())
            rng = np.random.default_rng(seed)
            for yi in range(1 << pp.m):
                y = gf2.int_to_bits(yi, pp.m)
                out = [tcf.claw_invert(sp, y)]
                if family == "dual":
                    d = tuple(int(t) for t in rng.integers(0, 2, n))
                    out += [sorted(tcf.partial_invert(sp, y)),
                            tcf.phase_invert(sp, y, d)]
                digest.update(repr(out).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("kind", sorted(TCF_PINNED))
def test_seeded_families_match_the_pinned_digest(kind):
    assert _public_digest(kind) == TCF_PINNED[kind]


def _replayed(family, mu, n, k, delta, seed):
    """The family gen(seed) documents, rebuilt from default_rng(seed) in
    its draw order: shift, prefix set, then the permutation pi."""
    rng = np.random.default_rng(seed)
    if family == "plain":
        shift = int(rng.integers(1, 1 << n))
        prefix, m = {0}, n
    else:
        shift = int(rng.integers(mu, 1 << (n - k)))
        prefix = set(rng.permutation(1 << k)[:int(delta * (1 << k))].tolist())
        m = n + 2
    return shift, prefix, rng.permutation(1 << m).tolist()


@pytest.mark.parametrize("kind", sorted(TCF_PINNED))
def test_seeded_families_follow_the_documented_draw_order(kind):
    for family, mu, n, k, delta in _pinned_configs(kind):
        for seed in (0, 1, 2):
            pp, sp = tcf.gen(family, mu, n, k, delta, 1000 * n + seed)
            shift, prefix, perm = _replayed(family, mu, n, k, delta,
                                            1000 * n + seed)
            assert sp.shift == gf2.int_to_bits(shift, n)
            assert sp.prefix_set == prefix
            for b, row in enumerate(pp.table):
                for x, y in enumerate(row):
                    if family == "plain":
                        w = min(x, x ^ shift)
                    elif mu and x >> (n - k) in prefix:
                        w = x ^ (b * shift)
                    else:
                        w = (1 << (n + 1)) | (x << 1) | b
                    assert y == perm[w]
            for w, y in enumerate(perm):
                assert sp.perm_inverse[y] == w
                assert tcf.decode(sp, gf2.int_to_bits(y, pp.m)) == w
