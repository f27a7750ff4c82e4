"""Tests for claw-state generation and the four preparation routes."""

import cmath
import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

import oracles
from oracles import (apply_bit_function, drop_qubits, standard_epsilon_config,
                     uniform_state)
from ospsim import apps, gf2, osp, qsim, tcf


def rng_for(seed):
    return np.random.default_rng(seed)


def on_target(out) -> bool:
    """Whether an outcome's receiver state is its target, in fidelity."""
    return qsim.fidelity(out.receiver_state, out.target) == pytest.approx(
        1.0, abs=1e-9)


class ScriptedRng:
    """Replays a fixed queue of bits through the Generator interface."""

    def __init__(self, queue):
        self.queue = list(queue)

    def integers(self, low, high, size=None):
        if size is None:
            return self.queue.pop(0)
        return np.array([self.queue.pop(0) for _ in range(size)])

    def random(self):
        return self.queue.pop(0)


# ----------------------------------------------------------- claw generation


def test_csg_plain_family_roundtrip():
    pp, sp = tcf.gen("plain", 0, 4, 0, 1, seed=11)
    out = osp.csg_from_tcf(pp, sp, rng_for(0))
    assert not out.aborted
    assert out.z == 0
    assert out.x0 != out.x1
    assert tcf.eval(pp, 0, out.x0) == tcf.eval(pp, 0, out.x1)
    assert out.receiver_state.u == out.x0
    assert out.receiver_state.v == out.x1
    assert on_target(out)
    roles = [m["role"] for m in out.transcript]
    assert roles[0] == "sender" and "receiver" in roles


def test_csg_lossy_family_plain_view():
    pp, sp = tcf.gen("dual", 1, 3, 1, Fraction(1, 2), seed=5)
    out = osp.csg_from_tcf(pp, sp, rng_for(3), lam=8)
    assert not out.aborted
    assert len(out.x0) == 4 and len(out.x1) == 4
    assert out.x0[0] == 0 and out.x1[0] == 1
    assert tcf.eval(pp, 0, out.x0[1:]) == tcf.eval(pp, 1, out.x1[1:])
    assert on_target(out)


def test_csg_rejects_clawless_family():
    pp, sp = tcf.gen("dual", 0, 3, 1, Fraction(1, 2), seed=5)
    with pytest.raises(ValueError):
        osp.csg_from_tcf(pp, sp, rng_for(0))


def test_csg_abort_path():
    pp, sp = tcf.gen("dual", 1, 3, 1, Fraction(1, 2), seed=5)
    hit = None
    for seed in range(200):
        out = osp.csg_from_tcf(pp, sp, rng_for(seed), lam=1)
        if out.aborted:
            hit = out
            break
    assert hit is not None, "no abort in 200 tries at two rounds of delta 1/2"
    assert hit.receiver_state is None
    assert len(hit.x0) == 4 and len(hit.x1) == 4
    assert hit.transcript[-1]["kind"] == "abort"


# ------------------------------------------------------------ differentiation


def _claw_outcome(x0, x1, z=0):
    phase = -1 if z else 1
    state = qsim.TwoBranchState(len(x0), x0, x1, phase if x0 != x1 else 1)
    return osp.CsgOutcome(x0, x1, z, state, [])


def test_differentiate_tag_example():
    out = osp.differentiate(_claw_outcome((0, 1), (1, 0)), rng_for(0))
    assert out.differentiated
    assert out.receiver_state.u == (0, 0, 1)
    assert out.receiver_state.v == (1, 1, 0)
    assert out.receiver_state.phase == 1
    tag_msg = out.transcript[-1]
    assert tag_msg["kind"] == "tag-vector"
    assert tag_msg["payload"]["t"] == "10"
    assert on_target(out)


def test_differentiate_carries_phase():
    out = osp.differentiate(_claw_outcome((0, 1), (1, 0), z=1), rng_for(0))
    assert out.receiver_state.phase == -1
    assert out.z == 1


def test_differentiate_tag_constraint_random():
    rng = rng_for(7)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        x0 = tuple(int(b) for b in rng.integers(0, 2, n))
        x1 = tuple(int(b) for b in rng.integers(0, 2, n))
        if x0 == x1:
            continue
        out = osp.differentiate(_claw_outcome(x0, x1), rng)
        u, v = out.receiver_state.u, out.receiver_state.v
        assert u[0] == 0 and v[0] == 1
        assert {u[1:], v[1:]} == {x0, x1}


def test_differentiate_swaps_zero_vector_label():
    out = osp.differentiate(_claw_outcome((1, 1), (0, 0)), rng_for(0))
    assert out.x0 == (0, 0) and out.x1 == (1, 1)
    assert out.receiver_state.u == (0, 0, 0)
    assert out.receiver_state.v == (1, 1, 1)


def test_differentiate_rejects_bad_inputs():
    with pytest.raises(ValueError):
        osp.differentiate(_claw_outcome((1, 0), (1, 0)), rng_for(0))
    aborted = osp.CsgOutcome((0,), (1,), 0, None, [], aborted=True)
    with pytest.raises(ValueError):
        osp.differentiate(aborted, rng_for(0))


# ------------------------------------------------------- multi-round pipeline


def test_osp_from_csg_basis_bit_formula():
    # x0=01, x1=10 with masks r0=11, r1=01: inner products 1 and 0, so b=1.
    source_out = osp.differentiate(_claw_outcome((0, 1), (1, 0)), rng_for(0))
    rng = ScriptedRng([1, 1, 0, 1, 0, 0, 0])
    out = osp.osp_from_csg(source_out, None, rng)
    assert out.b == 1
    assert out.s == 0
    assert on_target(out)


def test_osp_from_csg_norm_sweep():
    pp, sp = tcf.gen("plain", 0, 4, 0, 1, seed=2)
    rng = rng_for(10)

    seen_b = set()
    for _ in range(60):
        claw = osp.differentiate(osp.csg_from_tcf(pp, sp, rng), rng)
        out = osp.osp_from_csg(claw, None, rng)
        assert not out.aborted
        assert out.s in (0, 1)
        seen_b.add(out.b)
        assert on_target(out)
    assert seen_b == {0, 1}


def test_osp_from_csg_chosen_basis():
    pp, sp = tcf.gen("plain", 0, 4, 0, 1, seed=2)
    rng = rng_for(11)

    for want in (0, 1):
        for _ in range(20):
            claw = osp.differentiate(osp.csg_from_tcf(pp, sp, rng), rng)
            out = osp.osp_from_csg(claw, want, rng)
            assert out.b == want
            assert on_target(out)
            assert any(m["kind"] == "basis-correction" for m in out.transcript)


def test_osp_from_csg_propagates_abort():
    aborted = osp.CsgOutcome((0,), (1,), 0, None, [], aborted=True)
    out = osp.osp_from_csg(aborted, 1, rng_for(0))
    assert out.aborted and out.s is None and out.receiver_state is None


def test_osp_from_csg_requires_tag():
    plain = _claw_outcome((0, 1), (1, 0))
    with pytest.raises(ValueError):
        osp.osp_from_csg(plain, None, rng_for(0))


def test_osp_from_csg_dense_oracle():
    """Full dense replay of the inner-product round against the decode rule."""
    pp, sp = tcf.gen("plain", 0, 3, 0, 1, seed=4)
    for seed in range(25):
        rng = rng_for(100 + seed)
        claw = osp.differentiate(osp.csg_from_tcf(pp, sp, rng), rng)
        x0, x1, z = claw.x0, claw.x1, claw.z
        n = len(x0)
        r0 = tuple(int(t) for t in rng.integers(0, 2, n))
        r1 = tuple(int(t) for t in rng.integers(0, 2, n))

        dense = claw.receiver_state.densify()
        appended = apply_bit_function(
            dense,
            list(range(n + 1)),
            lambda bits: gf2.dot(r0, bits[1:]) if bits[0] == 0 else gf2.dot(r1, bits[1:]),
            1,
        )
        d, post = qsim.measure(appended, list(range(n + 1)), qsim.Basis.X, rng)
        for q in range(n + 1):  # rotate the |+->-valued qubits to bits
            post = qsim.apply_gate(post, "H", [q])
        residual = drop_qubits(post, list(range(n + 1)), d)

        b = gf2.dot(x0, r0) ^ gf2.dot(x1, r1)
        if b == 0:
            s = gf2.dot(x0, r0)
        else:
            s = z ^ d[0] ^ gf2.dot(d[1:], gf2.xor_vec(x0, x1))
        expected = (
            qsim.basis_descriptor((s,)) if b == 0
            else qsim.plane_descriptor(-1 if s else 1)
        )
        assert qsim.fidelity(residual, expected) >= 1 - 1e-9


# --------------------------------------------------------- two-round protocol


def test_two_round_shape_and_norm():
    rng = rng_for(21)
    for b in (0, 1):
        for _ in range(50):
            out = osp.two_round_osp(b, rng, n=3)
            assert not out.aborted
            assert out.b == b and out.s in (0, 1)
            assert on_target(out)
            roles = [m["role"] for m in out.transcript]
            assert roles == ["sender", "receiver"]


def test_two_round_dense_receiver_oracle():
    """Dense receiver (superpose, evaluate, measure) against trapdoor decode."""
    n = 3
    for b in (0, 1):
        for seed in range(15):
            pp, sp = tcf.gen("dual", b, n, 0, 1, seed=300 + seed)
            rng = rng_for(900 + seed)
            state = uniform_state(n + 1)
            state = apply_bit_function(
                state,
                list(range(n + 1)),
                lambda bits: tcf.eval(pp, bits[0], bits[1:]),
                pp.m,
            )
            y, state = qsim.measure(
                state, list(range(n + 1, n + 1 + pp.m)), qsim.Basis.Z, rng
            )
            state = drop_qubits(state, list(range(n + 1, n + 1 + pp.m)), y)
            d, state = qsim.measure(state, list(range(1, n + 1)), qsim.Basis.X, rng)
            for q in range(1, n + 1):
                state = qsim.apply_gate(state, "H", [q])
            residual = drop_qubits(state, list(range(1, n + 1)), d)

            if b == 0:
                branches = tcf.partial_invert(sp, y)
                assert len(branches) == 1
                (s,) = branches
                expected = qsim.basis_descriptor((s,))
            else:
                s = tcf.phase_invert(sp, y, d)
                assert s is not None
                expected = qsim.plane_descriptor(-1 if s else 1)
            assert qsim.fidelity(residual, expected) >= 1 - 1e-9


def _receiver_families():
    """(mode, n, k, delta) for n = 1..6, both modes, k in {0, 1, 2} and
    delta in {1, 1/2}: lossy families at k > 0 mix images with one and
    with two preimages."""
    for mode in (0, 1):
        for n in range(1, 7):
            for k in range(min(n, 3)):
                for delta in (1, Fraction(1, 2)) if k else (1,):
                    yield mode, n, k, delta


def test_two_round_receiver_matches_its_oracle():
    draws, kinds = 0, set()
    for mode, n, k, delta in _receiver_families():
        for family_seed in range(3):
            pp, _ = tcf.gen("dual", mode, n, k, delta, 100 * n + family_seed)
            for seed in range(15):
                _, _, residual = oracles.same_stream(
                    osp.two_round_receiver, oracles.two_round_receiver,
                    [mode, n, k, family_seed, seed], pp)
                kinds.add((mode, k, residual.is_basis))
                draws += 1
    assert draws >= 2000
    # disjoint images always have one preimage; lossy ones have two, and
    # at k > 0 with delta 1/2 also one
    assert {(0, k, True) for k in (0, 1, 2)} <= kinds
    assert {(1, k, False) for k in (0, 1, 2)} | {(1, 1, True)} <= kinds
    assert (0, 0, False) not in kinds and (1, 0, True) not in kinds


def test_two_round_s_roughly_uniform():
    rng = rng_for(33)
    for b in (0, 1):
        ones = sum(osp.two_round_osp(b, rng, n=3).s for _ in range(400))
        assert abs(ones / 400 - 0.5) < 0.08


# ------------------------------------------------------------------ amplified


def test_amplified_norms_and_aborts():
    rng = rng_for(40)
    for _ in range(30):
        out = osp.amplified_two_round_osp(0, 3, rng)
        assert not out.aborted
        assert on_target(out)
    aborts = 0
    for _ in range(60):
        out = osp.amplified_two_round_osp(1, 3, rng)
        if out.aborted:
            aborts += 1
            assert out.s is None
            continue
        assert on_target(out)
    assert aborts <= 5  # expected rate (1/2)^6 per run


def test_amplified_single_instance_reduces_cleanly():
    rng = rng_for(41)
    for b in (0, 1):
        for _ in range(20):
            out = osp.amplified_two_round_osp(b, 1, rng, n=3, k=0, delta=1)
            assert not out.aborted
            assert on_target(out)


def test_amplified_support_matches_brute_force():
    """n=2, two instances: affine state support == exhaustive preimage scan."""
    n, k, delta = 2, 1, Fraction(1, 2)
    found = False
    for seed in range(40):
        rng = rng_for(500 + seed)
        pairs = [tcf.gen("dual", 1, n, k, delta, int(rng.integers(0, 1 << 62)))
                 for _ in range(2)]
        pps = [p for p, _ in pairs]
        sps = [s for _, s in pairs]
        rec = osp.amplified_receiver(pps, sps, rng)
        if rec["state"] is None:
            continue
        found = True
        state = rec["state"]
        assert state.dimension == len(rec["clawed"]) - 1

        by_branch = {0: set(), 1: set()}
        for word in range(1 << (2 * n + 2)):
            bits = gf2.int_to_bits(word, 2 * n + 2)
            c, x1, x2, r1 = bits[0], bits[1 : n + 1], bits[n + 1 : 2 * n + 1], bits[-1]
            branch_bits = (r1, c ^ r1)
            ys = [tcf.eval(pps[i], branch_bits[i], (x1, x2)[i]) for i in range(2)]
            if ys == rec["ys"]:
                by_branch[c].add(x1 + x2 + (r1,))
        assert set(state.branch_support(0)) == by_branch[0]
        assert set(state.branch_support(1)) == by_branch[1]
    assert found, "no clawed receiver run in 40 seeds"


# -------------------------------------------------------------------- sources


def test_ideal_stub_source_outputs():
    rng = rng_for(50)
    seen = set()
    for _ in range(40):
        s, d = osp.ideal_stub_source(0, rng)
        assert d == qsim.basis_descriptor((s,))
        s, d = osp.ideal_stub_source(1, rng)
        assert d == qsim.plane_descriptor(-1 if s else 1)
        seen.add(s)
    assert seen == {0, 1}


def test_tcf_source_matches_contract():
    src = osp.tcf_two_round_source(n=3)
    rng = rng_for(51)
    for b in (0, 1):
        s, d = src(b, rng)
        assert on_target(osp.OspOutcome(b, s, d))


# ------------------------------------------------------------- angle pipeline


def test_combine_angles_sum_and_difference():
    i = qsim.PHASE_GRID[2]
    ok, merged = osp.combine_angles(
        qsim.plane_descriptor(i), qsim.plane_descriptor(i), ScriptedRng([0])
    )
    assert ok and abs(merged.phase + 1) < 1e-9
    ok, merged = osp.combine_angles(
        qsim.plane_descriptor(i), qsim.plane_descriptor(i), ScriptedRng([1])
    )
    assert not ok and abs(merged.phase - 1) < 1e-9

    eighth = qsim.PHASE_GRID[1]
    ok, merged = osp.combine_angles(
        qsim.plane_descriptor(eighth), qsim.plane_descriptor(eighth), ScriptedRng([0])
    )
    assert ok and abs(merged.phase - 1j) < 1e-9


def test_combine_angles_closed_over_grid():
    for a in qsim.PHASE_GRID:
        for b in qsim.PHASE_GRID:
            for pick, expected in ((0, a * b), (1, a * b.conjugate())):
                ok, merged = osp.combine_angles(
                    qsim.plane_descriptor(a), qsim.plane_descriptor(b),
                    ScriptedRng([pick]),
                )
                assert ok == (pick == 0)
                snapped = qsim.PHASE_GRID[qsim.phase_index(expected)]
                assert abs(merged.phase - snapped) < 1e-9


def test_combine_angles_matches_the_dense_circuit():
    """CNOT first -> second on the densified pair, then a Z readout of the
    second qubit: each outcome has probability 1/2 and leaves the first
    qubit in the descriptor returned for it, on either branch order."""
    planes = [qsim.TwoBranchState(1, (u,), (1 - u,), phase)
              for u in (0, 1) for phase in qsim.PHASE_GRID]
    for first in planes:
        for second in planes:
            pair = first.densify().tensor(second.densify())
            law = qsim.BasisLaw(qsim.apply_gate(pair, "CNOT", [0, 1]), [1],
                                qsim.Basis.Z)
            assert law.probs == pytest.approx([0.5, 0.5], abs=1e-12)
            for m in (0, 1):
                ok, merged = osp.combine_angles(first, second, ScriptedRng([m]))
                assert ok == (m == 0)
                post = drop_qubits(law.branch(m), [1], (m,))
                assert qsim.fidelity(post, merged.densify()) == pytest.approx(
                    1.0, abs=1e-9)


def test_combine_angles_rejects_non_plane():
    with pytest.raises(ValueError):
        osp.combine_angles(
            qsim.basis_descriptor((0,)), qsim.plane_descriptor(1), rng_for(0)
        )
    wide = qsim.TwoBranchState(2, (0, 0), (1, 1), 1)
    with pytest.raises(ValueError):
        osp.combine_angles(wide, qsim.plane_descriptor(1), rng_for(0))


def test_combine_success_frequency():
    rng = rng_for(60)
    plane = qsim.plane_descriptor(1j)
    wins = sum(osp.combine_angles(plane, plane, rng)[0] for _ in range(4000))
    assert abs(wins / 4000 - 0.5) < 3 * math.sqrt(0.25 / 4000)


def test_epsilon_config_validation():
    cfg = standard_epsilon_config(Fraction(1, 2), 4)
    assert cfg.layer_budget == (32, 4)
    assert cfg.layers == 1
    assert standard_epsilon_config(1, 4).layer_budget == (4,)
    assert osp.EpsilonOspConfig(Fraction(2, 4), (16, 2)).epsilon == Fraction(1, 2)
    with pytest.raises(ValueError):
        osp.EpsilonOspConfig(Fraction(1, 3), (8, 1))
    with pytest.raises(ValueError):
        osp.EpsilonOspConfig(Fraction(5, 4), (8, 1))
    with pytest.raises(ValueError):
        osp.EpsilonOspConfig(Fraction(1, 2), (8,))
    with pytest.raises(ValueError):
        osp.EpsilonOspConfig(Fraction(1, 2), (8, 0))


def test_epsilon_source_rotation():
    src = osp.epsilon_source_from_standard(osp.ideal_stub_source, Fraction(1, 2))
    want = {
        (1, 0): cmath.exp(1j * math.pi / 4),
        (1, 1): cmath.exp(5j * math.pi / 4),
    }
    for (b, s_want), phase in want.items():
        for seed in range(30):
            s, d = src(b, rng_for(seed))
            if s == s_want:
                assert abs(d.phase - phase) < 1e-9
                break
        else:
            pytest.fail("seed scan never produced s=%d" % s_want)
    s, d = src(0, rng_for(0))
    assert not d.is_basis and abs(d.phase - (-1 if s else 1)) < 1e-9
    with pytest.raises(ValueError):
        osp.epsilon_source_from_standard(osp.ideal_stub_source, Fraction(1, 4))


def test_epsilon_passthrough():
    cfg = osp.EpsilonOspConfig(Fraction(1), (1,))
    for b in (0, 1):
        out = osp.epsilon_to_standard(cfg, b, rng_for(9))
        s, d = osp.ideal_stub_source(b, rng_for(9))
        assert (out.s, out.receiver_state) == (s, d)
        assert not any(m["kind"] == "combine-layer" for m in out.transcript)


def test_epsilon_pipeline_exact_norm():
    cfg = standard_epsilon_config(Fraction(1, 2), 16)
    rng = rng_for(70)
    for b in (0, 1):
        for _ in range(25):
            out = osp.epsilon_to_standard(cfg, b, rng)
            assert not out.aborted
            assert out.s in (0, 1)
            assert on_target(out)


def test_epsilon_pipeline_starvation():
    cfg = osp.EpsilonOspConfig(Fraction(1, 2), (2, 1))
    hit = None
    for seed in range(60):
        out = osp.epsilon_to_standard(cfg, 1, rng_for(seed))
        if out.aborted:
            hit = out
            break
    assert hit is not None, "single-pair pipeline never starved in 60 seeds"
    assert hit.s is None and hit.receiver_state is None
    assert any(m["kind"] == "starved" for m in hit.transcript)


def test_epsilon_pipeline_with_protocol_source():
    cfg = osp.EpsilonOspConfig(Fraction(1, 2), (16, 2))
    rng = rng_for(72)
    src = osp.tcf_two_round_source(n=3)
    for b in (0, 1):
        done = 0
        while done < 3:
            out = osp.epsilon_to_standard(cfg, b, rng, standard_source=src)
            if out.aborted:
                continue
            assert on_target(out)
            done += 1


# ------------------------------------------------------------- pinned stream


OSP_PINNED = "3a48688fccbe3027ebdc83017b057371bbe15905aa1b1cc792f2ecd328155ca5"


def _osp_digest() -> str:
    """sha256 over seeded runs of the multi-round and amplified paths:
    claw generation on the plain family at n = 1..5 and on a lossy family
    (aborts included), differentiate plus osp_from_csg, and amplified
    two-round runs at two claw densities.  Each run adds its b, s, claw,
    abort flag, receiver descriptor and transcript."""
    digest = hashlib.sha256()

    def add(out, b, s, x0, x1, z):
        state = out.receiver_state
        digest.update(repr((
            b, s, x0, x1, z, out.aborted,
            None if state is None else apps.descriptor_to_json(state),
            out.transcript)).encode())

    rng = rng_for(81)
    families = [tcf.gen("plain", 0, n, 0, 1, 100 + n) for n in range(1, 6)]
    families.append(tcf.gen("dual", 1, 3, 1, Fraction(1, 2), 106))
    for pp, sp in families:
        for i in range(40):
            csg = osp.csg_from_tcf(pp, sp, rng, lam=2)
            add(csg, None, None, csg.x0, csg.x1, csg.z)
            if csg.aborted:
                continue
            claw = osp.differentiate(csg, rng)
            out = osp.osp_from_csg(claw, (None, 0, 1)[i % 3], rng)
            add(out, out.b, out.s, claw.x0, claw.x1, claw.z)
    for lam, n, k, delta in ((1, 2, 1, Fraction(1, 2)), (2, 2, 1, Fraction(1, 2)),
                             (3, 2, 1, Fraction(1, 2)), (1, 3, 2, Fraction(1, 4))):
        for b in (0, 1):
            for _ in range(30):
                out = osp.amplified_two_round_osp(b, lam, rng, n, k, delta)
                add(out, out.b, out.s, None, None, None)
    return digest.hexdigest()


def test_preparation_paths_match_the_pinned_digest():
    assert _osp_digest() == OSP_PINNED
