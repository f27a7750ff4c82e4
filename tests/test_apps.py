"""Tests for the application-layer protocols."""

import math

import numpy as np
import pytest

from ospsim import apps, gadgets, gf2, harness, osp, qsim, tcf

COS2 = (2.0 + math.sqrt(2.0)) / 4.0


def rng_for(seed):
    return np.random.default_rng(seed)


# ------------------------------------------------------------- quantumness


def test_poq_accept_predicate_via_perfect_prover():
    rng = rng_for(11)
    for _ in range(50):
        round_ = apps.poq_run(rng, apps.ScriptedProver("perfect"))
        assert round_.accept
        assert round_.answer == round_.s ^ (round_.r & round_.challenge)


def test_poq_honest_rate_rough():
    rng = rng_for(12)
    rate = apps.poq_rate(4000, rng)
    assert abs(rate - COS2) < 0.03


def test_poq_zero_prover_rate():
    rng = rng_for(13)
    rate = apps.poq_rate(4000, rng, lambda: apps.ScriptedProver("zero"))
    assert abs(rate - 0.5) < 0.04


def test_poq_branch_prover_rate():
    rng = rng_for(14)
    rate = apps.poq_rate(6000, rng, lambda: apps.ScriptedProver("branch"))
    assert abs(rate - 0.75) < 0.03


def test_poq_unknown_rule_rejected():
    with pytest.raises(ValueError):
        apps.ScriptedProver("psychic")


def test_rewind_perfect_prover_recovers_r():
    rng = rng_for(15)
    for _ in range(100):
        res = apps.rewind_extract(apps.ScriptedProver("perfect"), rng)
        assert res.guess == res.truth


def test_rewind_uniform_prover_is_chance():
    rng = rng_for(16)
    hits = 0
    trials = 2000
    for _ in range(trials):
        res = apps.rewind_extract(apps.ScriptedProver("uniform"), rng)
        hits += res.guess == res.truth
    assert abs(hits / trials - 0.5) < 3 * 0.5 / math.sqrt(trials)


def test_rewind_accuracy_prover_beats_union_bound():
    p0, p1 = 0.9, 0.8
    rng = rng_for(17)
    trials = 10_000
    hits = 0
    for _ in range(trials):
        res = apps.rewind_extract(apps.ScriptedProver("accuracy", p0, p1), rng)
        hits += res.guess == res.truth
    rate = hits / trials
    exact = p0 * p1 + (1 - p0) * (1 - p1)
    assert rate >= p0 + p1 - 1
    assert abs(rate - exact) < 3 * math.sqrt(exact * (1 - exact) / trials)


# -------------------------------------------------- linear-predictor demo


def gl_extract(oracle, n: int, rng, repetitions: int = 1):
    """Read a claw pair (x0, x1) off an inner-product predictor.

    The oracle takes masks (r0, r1) and predicts dot(x0,r0) xor
    dot(x1,r1).  With repetitions == 1 the bits come from unit-mask
    queries offset by the all-zero query, which is exact for any
    deterministic affine oracle.  With more repetitions each bit is
    majority-voted from paired queries at random offsets, which tolerates
    a noisy oracle.
    """
    width = 2 * n

    def ask(bits):
        return int(oracle(tuple(bits[:n]), tuple(bits[n:]))) & 1

    out = []
    if repetitions <= 1:
        base = ask([0] * width)
        for i in range(width):
            unit = [0] * width
            unit[i] = 1
            out.append(ask(unit) ^ base)
    else:
        for i in range(width):
            votes = 0
            for _ in range(repetitions):
                u = [int(t) for t in rng.integers(0, 2, width)]
                w = list(u)
                w[i] ^= 1
                votes += ask(u) ^ ask(w)
            out.append(1 if 2 * votes > repetitions else 0)
    return tuple(out[:n]), tuple(out[n:])


def claw_predictor(x0, x1, noise: float = 0.0, rng=None):
    """Oracle for gl_extract built from a known claw; optionally noisy."""
    x0 = tuple(int(b) for b in x0)
    x1 = tuple(int(b) for b in x1)

    def oracle(r0, r1):
        bit = gf2.dot(x0, r0) ^ gf2.dot(x1, r1)
        if noise > 0.0 and rng.random() < noise:
            bit ^= 1
        return bit

    return oracle


def test_gl_noiseless_exact_recovery():
    rng = rng_for(21)
    for _ in range(100):
        x0 = tuple(int(t) for t in rng.integers(0, 2, 6))
        x1 = tuple(int(t) for t in rng.integers(0, 2, 6))
        oracle = claw_predictor(x0, x1)
        assert gl_extract(oracle, 6, rng) == (x0, x1)


def test_gl_recovers_family_claw():
    rng = rng_for(22)
    pp, sp = tcf.gen("plain", 0, 6, 0, 1, 977)
    x = tuple(int(t) for t in rng.integers(0, 2, 6))
    y = tcf.eval(pp, 0, x)
    x0, x1 = tcf.claw_invert(sp, y)
    oracle = claw_predictor(x0, x1)
    assert gl_extract(oracle, 6, rng) == (x0, x1)


def test_gl_zero_advantage_is_chance():
    rng = rng_for(23)
    hits = 0
    for _ in range(200):
        x0 = tuple(int(t) for t in rng.integers(0, 2, 3))
        x1 = tuple(int(t) for t in rng.integers(0, 2, 3))
        oracle = lambda r0, r1: int(rng.integers(0, 2))
        hits += gl_extract(oracle, 3, rng) == (x0, x1)
    assert hits / 200 <= 0.1


def test_gl_majority_vote_handles_noise():
    rng = rng_for(24)
    good = 0
    for _ in range(100):
        x0 = tuple(int(t) for t in rng.integers(0, 2, 6))
        x1 = tuple(int(t) for t in rng.integers(0, 2, 6))
        oracle = claw_predictor(x0, x1, noise=0.10, rng=rng)
        good += gl_extract(oracle, 6, rng, repetitions=64) == (x0, x1)
    assert good >= 90


# ----------------------------------------------------------------- puzzles


def test_puzzle_roundtrip_passes_both_challenges():
    for challenge in (0, 1):
        result = apps.puzzle_roundtrip(128, 0.78, challenge, rng_for(31),
                                       source="tcf", n=2)
        assert result["verdict"]
        assert result["fraction"] >= 0.78
        assert result["answers"].shape == (128,)


def test_puzzle_solve_consumes_obligation():
    keys = apps.puzzle_keygen(8, rng_for(32), source="ideal")
    obligation = apps.puzzle_obligate(keys, rng_for(33))
    apps.puzzle_solve(obligation, 0, rng_for(34))
    with pytest.raises(ValueError):
        apps.puzzle_solve(obligation, 1, rng_for(35))


def test_puzzle_ideal_fraction_matches_cosine_law():
    result = apps.puzzle_roundtrip(4096, 0.82, 1, rng_for(36), source="ideal")
    assert abs(result["fraction"] - COS2) < 0.02


def test_puzzle_verify_matches_manual_targets():
    rng = rng_for(37)
    keys = apps.puzzle_keygen(32, rng, threshold=0.5, source="tcf", n=2)
    obligation = apps.puzzle_obligate(keys, rng)
    answers = apps.puzzle_solve(obligation, 1, rng)
    _, fraction = apps.puzzle_verify(keys, obligation, answers, 1)
    manual = 0
    for i, (y, d) in enumerate(obligation.reports):
        s = osp.two_round_decode(keys.secrets[i], keys.r, y, d)
        manual += int(answers[i]) == (s ^ keys.r)
    assert fraction == manual / 32


def puzzle_replay_attack(lam: int, threshold: float, rng,
                         source: str = "ideal", n: int = 2) -> dict:
    """Solve once, replay the same classical answers for both challenges.

    The answer vector satisfies one challenge's targets; the other
    challenge flips every target iff r = 1, so the replay passes both
    only when r = 0 (or by statistical accident).
    """
    keys = apps.puzzle_keygen(lam, rng, threshold, source, n)
    obligation = apps.puzzle_obligate(keys, rng)
    answers = apps.puzzle_solve(obligation, 0, rng)
    ok0, f0 = apps.puzzle_verify(keys, obligation, answers, 0)
    ok1, f1 = apps.puzzle_verify(keys, obligation, answers, 1)
    return {"r": keys.r, "both": ok0 and ok1, "fractions": (f0, f1)}


def test_puzzle_replay_attack_needs_r_zero():
    rng = rng_for(38)
    both_count = 0
    for _ in range(60):
        out = puzzle_replay_attack(1024, 0.82, rng, source="ideal")
        if out["r"] == 1:
            assert not out["both"]
            assert out["fractions"][1] == 1.0 - out["fractions"][0]
        both_count += out["both"]
    assert 15 <= both_count <= 45


# -------------------------------------------------------------- commitment


def test_commit_honest_roundtrip_accepts():
    rng = rng_for(41)
    for source in ("ideal", "tcf"):
        for bit in (0, 1):
            res = apps.commit_run(bit, 8, rng, source=source)
            assert res.verdict
            assert len(res.s_bits) == 8


def test_binding_probe_zero_state():
    state = qsim.basis_descriptor((0,) * 8).densify()
    pr0, pr1 = apps.binding_probe(state)
    assert pr0 == 1.0
    assert abs(pr1 - 2.0 ** -8) < 1e-12
    assert pr0 + pr1 <= 1.0 + 2.0 ** -8 + 1e-9


def test_binding_probe_random_states_bounded():
    rng = rng_for(42)
    for _ in range(10):
        raw = rng.normal(size=256) + 1j * rng.normal(size=256)
        state = qsim.DenseState(raw / np.linalg.norm(raw))
        pr0, pr1 = apps.binding_probe(state)
        assert pr0 + pr1 <= 1.0 + 2.0 ** -8 + 1e-9


def test_binding_probe_width_limit():
    with pytest.raises(ValueError):
        apps.binding_probe(qsim.basis_descriptor((0,) * 17))


# ------------------------------------------------------- toy commitment, OT


def toy_extract(com):
    """Walk the whole seed space; the tag pins the seed in practice."""
    for seed in range(1 << apps._PRG_SEED_BITS):
        bits, _ = apps._open_with_seed(com, seed)
        if bits is not None:
            return bits
    return None


def test_toy_commitment_roundtrip_and_extract():
    rng = rng_for(51)
    com, opening = apps.toy_commit((1, 0, 1), rng)
    assert apps.toy_verify(com, opening)
    assert toy_extract(com) == (1, 0, 1)
    bad = {"seed": opening["seed"], "bits": [0, 0, 1]}
    assert not apps.toy_verify(com, bad)


def ot_results(seed, config):
    """The (receiver, sender) results of one in-process OT session."""
    out = harness.run_local("ot", seed, config)
    return out["client"].outcome["result"], out["server"].outcome["result"]


def test_ot_honest_delivers_chosen_value():
    for variant in ("search", "indistinguishability"):
        for b in (0, 1):
            receiver, sender = ot_results(
                100 + b, {"lam": 6, "b": b, "variant": variant})
            assert not sender["caught"] and not receiver["caught"]
            assert receiver["value"] == (sender["r0"] if b == 0
                                         else sender["r1"])
            if variant == "search":
                assert len(receiver["value"]) == 6


def test_honest_sessions_build_no_dense_state(monkeypatch):
    """An honest OT session, whose sender scores each opened claw, and an
    honest quantumness test run on descriptors only."""
    calls = []
    init = qsim.DenseState.__init__

    def counting_init(self, amplitudes):
        calls.append("DenseState")
        init(self, amplitudes)

    monkeypatch.setattr(qsim.DenseState, "__init__", counting_init)
    ot = harness.run_local("ot", 5, {"lam": 8, "b": 1, "variant": "search"})
    assert ot["server"].outcome["status"] == "complete"
    assert ot["server"].outcome["result"]["caught"] is False
    poq = harness.run_local("poq", 6, {"rounds": 20})
    assert poq["client"].outcome["status"] == "complete"
    assert calls == []


def test_ot_per_index_branch_law():
    rng = rng_for(53)
    receiver = apps.OtReceiverParty(1, 5, "search", rng_for(54))
    sender = apps.OtSenderParty(5, "search", rng_for(55))
    harness._drive(receiver, sender, "per-index")
    assert len(sender.per_index) == 5
    for entry in sender.per_index:
        x0, x1, z = receiver.claws[entry["i"]]
        assert x0 ^ x1 == 1
        assert x0 == entry["y"] ^ ((receiver.b ^ entry["b_i"]) & entry["c"])


def test_ot_worked_example_branch_values():
    # x0=1, x1=0, receiver bit 1: the revealed bit is 0 and on measured
    # branch (c, y) = (1, 0) the second sender value equals x0.
    b, x0, x1 = 1, 1, 0
    b_i = b ^ x0 ^ x1
    c, y = 1, 0
    assert b_i == 0
    r1 = y ^ ((1 ^ b_i) & c)
    assert r1 == 1 == x0


def test_ot_cheater_gets_caught():
    config = {"lam": 8, "b": None, "variant": "search", "cheat": "zero-states"}
    caught = 0
    for k in range(20):
        receiver, sender = ot_results(200 + k, config)
        assert receiver["caught"] == sender["caught"]
        assert receiver["value"] is None
        caught += sender["caught"]
    assert caught >= 19


def test_ot_transcript_shape():
    out = harness.run_local("ot", 56, {"lam": 4, "b": 0,
                                       "variant": "indistinguishability"})
    messages = out["client"].messages
    assert messages == out["server"].messages
    assert [m.kind for m in messages] == ["obligations", "check-set",
                                          "openings", "outcome"]
    assert [m.role for m in messages] == ["client", "server", "client",
                                          "server"]
    assert [m.seq for m in messages] == [0, 0, 1, 1]
    assert {m.session for m in messages} == {out["client"].session}


def test_ot_rejects_bad_arguments():
    with pytest.raises(ValueError):
        apps.OtReceiverParty(0, 4, "mystery", rng_for(57))
    with pytest.raises(ValueError):
        apps.OtReceiverParty(2, 4, "search", rng_for(58))


def _ot_to_openings(lam, cheat=None, seed=70):
    """Run an OT session up to the receiver's openings message."""
    receiver = apps.OtReceiverParty(None if cheat else 1, lam, "search",
                                    rng_for(seed), cheat)
    sender = apps.OtSenderParty(lam, "search", rng_for(seed + 1))
    (obligations,) = receiver.on_message(None)
    (check_set,) = sender.on_message(obligations)
    return receiver, sender, check_set


@pytest.mark.parametrize("check", [
    [-1], [0, 1, 2, -1], [0, 1, 2, 8], [0, 0, 1, 2], [0, 1, 2],
    [0, 1, 2, 3, 4],
], ids=["minus-one", "negative", "past-end", "duplicate", "short", "long"])
def test_ot_receiver_rejects_a_malformed_check_set(check):
    # With T = [-1] the receiver used to open instance 7 and also reveal its
    # b_7, so the sender could read b = b_7 ^ x0 ^ x1.
    receiver, _, message = _ot_to_openings(4)
    message["payload"]["T"] = check
    with pytest.raises(ValueError, match="check set must be 4 distinct"):
        receiver.on_message(message)


def _drop_checked(payload):
    payload["checked"] = []


def _drop_last_checked(payload):
    payload["checked"].pop()


def _repeat_checked(payload):
    payload["checked"][1] = payload["checked"][0]


def _drop_last_unchecked(payload):
    payload["unchecked"].pop()


def _repeat_unchecked(payload):
    payload["unchecked"].append(payload["unchecked"][0])


def _move_checked_to_unchecked(payload):
    entry = payload["checked"].pop()
    payload["unchecked"].append({"i": entry["i"], "b": 0})


@pytest.mark.parametrize("edit", [
    _drop_checked, _drop_last_checked, _repeat_checked, _drop_last_unchecked,
    _repeat_unchecked, _move_checked_to_unchecked,
])
def test_ot_sender_catches_openings_off_its_check_set(edit):
    receiver, sender, check_set = _ot_to_openings(4)
    (openings,) = receiver.on_message(check_set)
    edit(openings["payload"])
    sender.on_message(openings)
    assert sender.result["caught"]
    assert len(sender.result["r0"]) == len(sender.result["r1"]) == 4


def test_ot_sender_catches_zero_states_that_open_nothing():
    for seed in range(80, 90):
        receiver, sender, check_set = _ot_to_openings(4, "zero-states", seed)
        (openings,) = receiver.on_message(check_set)
        openings["payload"]["checked"] = []
        sender.on_message(openings)
        assert sender.result["caught"]


def test_ot_sender_accepts_well_formed_honest_openings():
    receiver, sender, check_set = _ot_to_openings(4)
    sender.on_message(receiver.on_message(check_set)[0])
    assert not sender.result["caught"]
    assert [e["i"] for e in sender.per_index] == [
        i for i in range(8) if i not in check_set["payload"]["T"]]


def _no_instances(instances):
    instances.clear()


def _one_instance_short(instances):
    instances.pop()


def _one_instance_extra(instances):
    instances.append(dict(instances[0]))


def _one_wide_state(instances):
    instances[3]["state"] = apps.descriptor_to_json(
        qsim.basis_descriptor((0, 1, 0)))


@pytest.mark.parametrize("edit", [
    _no_instances, _one_instance_short, _one_instance_extra, _one_wide_state,
])
def test_ot_sender_checks_the_obligations_before_it_draws(edit):
    receiver = apps.OtReceiverParty(1, 4, "search", rng_for(92))
    sender = apps.OtSenderParty(4, "search", rng_for(93))
    (obligations,) = receiver.on_message(None)
    edit(obligations["payload"]["instances"])
    before = sender.rng.bit_generator.state
    with pytest.raises(ValueError, match="instance"):
        sender.on_message(obligations)
    assert sender.rng.bit_generator.state == before


def test_ot_receiver_answers_one_check_set():
    # Answering T = [0..3] and then T = [4..7] gave the sender b_i for one
    # set and (x0, x1) for the other, so b = b_i ^ x0 ^ x1.
    receiver, _, check_set = _ot_to_openings(4)
    check_set["payload"]["T"] = [0, 1, 2, 3]
    receiver.on_message(check_set)
    check_set["payload"]["T"] = [4, 5, 6, 7]
    with pytest.raises(ValueError, match="unexpected message kind 'check-set'"):
        receiver.on_message(check_set)


def test_ot_sender_draws_one_check_set():
    receiver = apps.OtReceiverParty(1, 4, "search", rng_for(94))
    sender = apps.OtSenderParty(4, "search", rng_for(95))
    (obligations,) = receiver.on_message(None)
    sender.on_message(obligations)
    before = sender.rng.bit_generator.state
    with pytest.raises(ValueError, match="unexpected message kind 'obligations'"):
        sender.on_message(obligations)
    assert sender.rng.bit_generator.state == before


def test_ot_sender_refuses_openings_before_obligations():
    receiver, _, check_set = _ot_to_openings(4)
    (openings,) = receiver.on_message(check_set)
    sender = apps.OtSenderParty(4, "search", rng_for(96))
    before = sender.rng.bit_generator.state
    with pytest.raises(ValueError, match="unexpected message kind 'openings'"):
        sender.on_message(openings)
    assert sender.rng.bit_generator.state == before


# ------------------------------------------------------------ test parties


def test_poq_session_through_parties():
    client = harness.run_local("poq", 61, {"rounds": 30})["client"]
    result = client.outcome["result"]
    assert result["rounds"] == 30
    assert result["accepted"] == round(result["rate"] * 30)
    kinds = [m.kind for m in client.messages]
    assert kinds.count("round-params") == 30
    assert kinds.count("verdict") == 30
    assert len(kinds) == 150


def test_poq_session_deterministic_replay():
    first = harness.run_local("poq", 63, {"rounds": 10})["client"]
    second = harness.run_local("poq", 63, {"rounds": 10})["client"]
    assert first.to_bytes() == second.to_bytes()
    assert first.outcome["result"] == second.outcome["result"]


def test_poq_verifier_draws_nothing_for_an_image_outside_the_table():
    rng = rng_for(1)
    verifier = apps.PoqVerifierParty(1, rng, n=3)
    (params,) = verifier.on_message(None)
    table = params["payload"]["table"]
    y = min(set(range(32)) - set(table[0]) - set(table[1]))
    before = rng.bit_generator.state
    with pytest.raises(ValueError):
        verifier.on_message({"kind": "evaluation",
                             "payload": {"y": format(y, "05b"), "d": "000"}})
    assert rng.bit_generator.state == before


def _disjoint_params(**change):
    """A valid n = 3 disjoint round-params payload with some fields replaced."""
    payload = {"round": 0, "n": 3, "m": 5, "mode": "disjoint", "k": 0,
               "table": [list(range(8)), list(range(8, 16))]}
    payload.update(change)
    return payload


@pytest.mark.parametrize("table", [
    [list(range(8)), [7] * 8],
    [list(range(7)) + [99], list(range(8, 16))],
    [list(range(8)), list(range(8, 15)) + [32]],
    [[-1] + list(range(1, 8)), list(range(8, 16))],
], ids=["repeated-value", "value-99", "value-2^m", "negative-value"])
def test_poq_prover_refuses_a_hostile_table_before_it_draws(table):
    """A row of repeats would make an image with three preimages look like
    no claw, and a value outside [0, 2^m) would be cut to the wrong image."""
    with pytest.raises(ValueError, match="distinct values"):
        apps._params_from_wire(_disjoint_params(table=table))
    prover = apps.PoqProverParty(rng_for(3))
    before = prover.rng.bit_generator.state
    with pytest.raises(ValueError):
        prover.on_message({"kind": "round-params",
                           "payload": _disjoint_params(table=table)})
    assert prover.rng.bit_generator.state == before


CALLER_NEXT_RANDOM = 0.4721291715205297


def test_honest_rounds_leave_the_callers_stream_pinned():
    """A round draws from the caller's generator only r, the family seed,
    the prover's input and readouts, the challenge and the measurement; a
    family's own stream never shows here."""
    rng = rng_for(2024)
    for _ in range(1000):
        apps.poq_run(rng)
    assert rng.random() == CALLER_NEXT_RANDOM


def _poq_to_challenge(seed=1):
    """A verifier and an honest prover, one round up to the challenge."""
    verifier = apps.PoqVerifierParty(2, rng_for(seed), n=3)
    prover = apps.PoqProverParty(rng_for(seed + 1))
    (params,) = verifier.on_message(None)
    (evaluation,) = prover.on_message(params)
    (challenge,) = verifier.on_message(evaluation)
    return verifier, prover, evaluation, challenge


def test_poq_verifier_draws_one_challenge_per_round():
    verifier, _, evaluation, _ = _poq_to_challenge()
    before = verifier.rng.bit_generator.state
    with pytest.raises(ValueError, match="unexpected message kind 'evaluation'"):
        verifier.on_message(evaluation)
    assert verifier.rng.bit_generator.state == before


@pytest.mark.parametrize("round_", [7, 1, -1, "0", None, 0.0],
                         ids=["seven", "next", "minus-one", "text", "none",
                              "float"])
def test_poq_verifier_scores_only_the_current_round(round_):
    verifier, prover, _, challenge = _poq_to_challenge()
    (answer,) = prover.on_message(challenge)
    answer["payload"]["round"] = round_
    before = verifier.rng.bit_generator.state
    with pytest.raises(ValueError, match="answer for round"):
        verifier.on_message(answer)
    assert verifier.index == 0 and verifier.accepted == 0
    assert verifier.rng.bit_generator.state == before


def test_poq_prover_refuses_a_challenge_before_round_params():
    prover = apps.PoqProverParty(rng_for(3))
    before = prover.rng.bit_generator.state
    with pytest.raises(ValueError, match="unexpected message kind 'challenge'"):
        prover.on_message({"kind": "challenge", "payload": {"round": 0, "a": 0}})
    assert prover.rng.bit_generator.state == before


def test_poq_prover_is_finished_only_between_rounds():
    verifier, prover, _, challenge = _poq_to_challenge()
    assert prover.result is None
    (answer,) = prover.on_message(challenge)
    assert prover.result is None
    verdict, params = verifier.on_message(answer)
    prover.on_message(verdict)
    assert prover.result == {"rounds": 1}
    prover.on_message(params)
    assert prover.result is None


# -------------------------------------------------------------------- PKE


def test_pke_roundtrip_exact():
    rng = rng_for(71)
    for _ in range(300):
        m = int(rng.integers(0, 2))
        out = apps.pke_roundtrip(m, rng)
        assert out["decrypted"] == m


def test_pke_mask_identity():
    rng = rng_for(72)
    for _ in range(50):
        m = int(rng.integers(0, 2))
        out = apps.pke_roundtrip(m, rng)
        ct, cl = out["ct"], out["keys"].secret
        x_keys, _ = gadgets.ecnot_dec(cl.b, cl.t0, cl.t1, *ct["report"])
        x_b = x_keys[1] ^ ct["branch"]
        assert ct["masked"] == m ^ x_b


def test_pke_branch_marginal_balanced():
    rng = rng_for(73)
    ones = 0
    for _ in range(1000):
        keys = apps.pke_keygen(rng)
        ones += apps.pke_encrypt(keys.public, 0, rng)["branch"]
    assert 400 <= ones <= 600


def test_pke_rejects_bad_message():
    keys = apps.pke_keygen(rng_for(74))
    with pytest.raises(ValueError):
        apps.pke_encrypt(keys.public, 2, rng_for(75))
