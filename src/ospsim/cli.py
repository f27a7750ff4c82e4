"""Command-line front end for the simulation toolkit.

Every subcommand but selftest, whose checks carry fixed seeds, accepts
--seed (defaulting to the OSPSIM_SEED environment variable, then 0), and
each prints a short plain-text report and accepts only the options it
reads.  The two-party protocols additionally run over TCP: --listen serves
the server role of a single session, --connect dials a listener and plays
the client.  With --out the session transcript (or the run summary, for
local Monte-Carlo commands) is written as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from fractions import Fraction

from . import apps, cvqc, delegation, harness, osp, qsim, tcf

_BENCH_HAM = "QUBITS 2\nX 0 1 0.5\nZ 0 1 0.5\n"


def _default_seed() -> int:
    text = os.environ.get("OSPSIM_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise _UsageError("OSPSIM_SEED: %r is not an integer" % text) from None


def _positive_int(text) -> int:
    """The type of each count option: an integer of at least 1."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError("%r is not a positive integer" % text)
    return int(text)


def _input_width(text) -> int:
    """The type of --n: a positive integer no wider than tcf.MAX_N."""
    n = _positive_int(text)
    if n > tcf.MAX_N:
        raise argparse.ArgumentTypeError("%r exceeds the %d-bit input limit "
                                         "of the claw families"
                                         % (text, tcf.MAX_N))
    return n


def _unit_interval(text) -> float:
    """The type of --threshold: a number in [0, 1]."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 <= value <= 1:
        raise argparse.ArgumentTypeError("%r is not a number in [0, 1]" % text)
    return value


_OPTIONS = {
    "trials": ("--trials", dict(type=_positive_int,
                                help="number of rounds or repetitions")),
    "lam": ("--lambda", dict(dest="lam", type=_positive_int,
                             help="instance count / security parameter")),
    "n": ("--n", dict(type=_input_width, help="claw-function input width")),
    "delta": ("--delta", dict(type=str,
                              help="claw density as a fraction, e.g. 1/2")),
}


def _add_common(parser, seed=True, wire=False, **defaults):
    """Add --out, --seed unless told not to, and each option in defaults.

    defaults maps option names (trials, lam, n, delta) to their defaults.
    """
    if seed:
        parser.add_argument("--seed", type=int, default=None,
                            help="run seed (default: $OSPSIM_SEED or 0)")
    parser.add_argument("--out", metavar="FILE", default=None,
                        help="write the transcript or summary as JSON")
    for name, default in defaults.items():
        flag, kwargs = _OPTIONS[name]
        parser.add_argument(flag, default=default, **kwargs)
    if wire:
        parser.add_argument("--listen", metavar="HOST:PORT", default=None,
                            help="serve one session on this endpoint")
        parser.add_argument("--connect", metavar="HOST:PORT", default=None,
                            help="dial a listening peer")


class _UsageError(Exception):
    """A bad option value; main reports it in one line and exits with 2."""


@contextlib.contextmanager
def _reading(flag=None):
    """Report a ValueError or OSError in the block as a usage error."""
    try:
        yield
    except (ValueError, ZeroDivisionError, OSError) as exc:
        message = str(exc) if flag is None else "%s: %s" % (flag, exc)
        raise _UsageError(message) from None


def _endpoint(text):
    host, _, port = text.rpartition(":")
    if not port.isdecimal() or int(port) > 65535:
        raise _UsageError("endpoint %r is not HOST:PORT, PORT <= 65535" % text)
    return host or "127.0.0.1", int(port)


def _seed_of(args) -> int:
    return args.seed if args.seed is not None else _default_seed()


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _wire_session(args, protocol, config):
    seed = _seed_of(args)
    flag = "--listen" if args.listen else "--connect"
    host, port = _endpoint(args.listen or args.connect)
    run = harness.serve_once if args.listen else harness.connect_and_run
    with _reading(flag):  # a refused, unreachable or busy endpoint
        transcript = run(protocol, seed, host, port, config)
    print("session %s role=%s status=%s messages=%d"
          % (transcript.session, transcript.role,
             transcript.outcome["status"], len(transcript.messages)))
    result = transcript.outcome.get("result")
    if result is not None:
        print("result: %s" % json.dumps(result, sort_keys=True, default=str))
    if args.out:
        _write_json(args.out, transcript.to_json())
        print("transcript written to %s" % args.out)
    return 0 if transcript.outcome["status"] == "complete" else 1


# ------------------------------------------------------------- subcommands


def cmd_poq(args):
    trials, n = args.trials, args.n
    if args.listen or args.connect:
        return _wire_session(args, "poq", {"rounds": trials, "n": n})
    seed = _seed_of(args)
    rng = harness.derive_rng(seed, "poq", "rate")
    rate = apps.poq_rate(trials, rng, None, n)
    expected = qsim.COS2_PI_8
    print("trials=%d rate=%.6f expected=%.6f" % (trials, rate, expected))
    if args.out:
        _write_json(args.out, {"command": "poq", "seed": seed,
                               "trials": trials, "rate": rate,
                               "expected": expected})
    return 0


def cmd_puzzle(args):
    lam, n = args.lam, args.n
    threshold = args.threshold
    source = args.source
    if source == "auto":
        source = "ideal" if lam > 4096 else "tcf"
    seed = _seed_of(args)
    summary = {"command": "puzzle", "seed": seed, "lam": lam,
               "threshold": threshold, "source": source, "challenges": {}}
    code = 0
    for challenge in (0, 1):
        rng = harness.derive_rng(seed, "puzzle", str(challenge))
        out = apps.puzzle_roundtrip(lam, threshold, challenge, rng, source, n)
        print("challenge=%d verdict=%s fraction=%.4f"
              % (challenge, out["verdict"], out["fraction"]))
        summary["challenges"][str(challenge)] = {
            "verdict": bool(out["verdict"]),
            "fraction": out["fraction"],
        }
        if not out["verdict"]:
            code = 1
    if args.out:
        _write_json(args.out, summary)
    return code


def cmd_delegate(args):
    with _reading("--circuit"), open(args.circuit, encoding="utf-8") as fh:
        circuit = delegation.parse_circuit(fh.read())
    if circuit.num_qubits > qsim.MAX_DENSE_QUBITS:  # unpad_state's limit
        raise _UsageError("--circuit: %d qubits exceed the %d-qubit dense "
                          "limit" % (circuit.num_qubits, qsim.MAX_DENSE_QUBITS))
    if not args.input or any(c not in "01" for c in args.input):
        raise _UsageError("--input must be a bit string like 1011")
    bits = tuple(int(c) for c in args.input)
    if len(bits) != circuit.num_qubits:
        raise _UsageError("input has %d bits but the circuit has %d qubits"
                          % (len(bits), circuit.num_qubits))
    seed = _seed_of(args)
    rng = harness.derive_rng(seed, "delegate")
    result = delegation.delegate(circuit, bits, rng)
    actual = delegation.unpad_state(result)
    direct = delegation.apply_circuit(qsim.DenseState.from_bits(bits), circuit)
    fid = qsim.fidelity(actual, direct)
    print("qubits=%d gates=%d t-gates=%d" %
          (circuit.num_qubits, len(circuit.gates), circuit.t_count))
    print("fidelity=%.12f" % fid)
    if args.out:
        _write_json(args.out, {"command": "delegate", "seed": seed,
                               "qubits": circuit.num_qubits,
                               "gates": len(circuit.gates),
                               "t_gates": circuit.t_count, "fidelity": fid,
                               "transcript": result.transcript})
    return 0 if fid >= 1 - 1e-6 else 1


def cmd_ot(args):
    lam = args.lam
    config = {"lam": lam, "b": args.b, "variant": args.variant}
    if args.cheat:
        config["cheat"] = args.cheat
    if args.listen or args.connect:
        return _wire_session(args, "ot", config)
    transcripts = harness.run_local("ot", _seed_of(args), config)
    receiver = transcripts["client"].outcome["result"]
    sender = transcripts["server"].outcome["result"]
    print("variant=%s b=%d caught=%s" % (args.variant, args.b,
                                         sender["caught"]))
    print("sender r0=%s r1=%s" % (sender["r0"], sender["r1"]))
    print("receiver value=%s" % (receiver["value"],))
    if args.out:  # the file a socket session's client writes
        _write_json(args.out, transcripts["client"].to_json())
    return 0


def cmd_pke(args):
    trials = args.trials
    seed = _seed_of(args)
    rng = harness.derive_rng(seed, "pke")
    good = 0
    branches = [0, 0]
    for i in range(trials):
        out = apps.pke_roundtrip(i & 1, rng)
        good += out["decrypted"] == out["message"]
        branches[out["ct"]["branch"]] += 1
    print("trials=%d correct=%d branch-counts=%s" % (trials, good, branches))
    if args.out:
        _write_json(args.out, {"command": "pke", "seed": seed,
                               "trials": trials, "correct": good,
                               "branches": branches})
    return 0 if good == trials else 1


def cmd_commit(args):
    lam = args.lam
    if lam > apps.BINDING_PROBE_MAX_QUBITS:  # before 2^lam amplitudes exist
        raise _UsageError("--lambda: binding probe limited to %d qubits"
                          % apps.BINDING_PROBE_MAX_QUBITS)
    seed = _seed_of(args)
    rng = harness.derive_rng(seed, "commit")
    code = 0
    summary = {"command": "commit", "seed": seed, "lam": lam, "bits": {}}
    for bit in (0, 1):
        res = apps.commit_run(bit, lam, rng)
        print("bit=%d verdict=%s" % (bit, res.verdict))
        summary["bits"][str(bit)] = bool(res.verdict)
        if not res.verdict:
            code = 1
    amps = rng.normal(size=1 << lam) + 1j * rng.normal(size=1 << lam)
    probe = qsim.DenseState(amps / float((abs(amps) ** 2).sum()) ** 0.5)
    pr0, pr1 = apps.binding_probe(probe)
    bound = 1 + 2.0 ** (-lam / 2)
    print("binding probe: pr0+pr1=%.6f bound=%.6f" % (pr0 + pr1, bound))
    summary["binding"] = {"sum": pr0 + pr1, "bound": bound}
    if pr0 + pr1 > bound + 1e-9:
        code = 1
    if args.out:
        _write_json(args.out, summary)
    return code


def cmd_cvqc(args):
    if args.ham:
        with _reading("--ham"), open(args.ham, encoding="utf-8") as fh:
            ham = cvqc.parse_hamiltonian(fh.read())
        if ham.num_qubits > cvqc.MAX_DIAGONALIZED_QUBITS:
            raise _UsageError("--ham: %d qubits exceed the %d that the ground "
                              "state is computed for"
                              % (ham.num_qubits, cvqc.MAX_DIAGONALIZED_QUBITS))
    else:
        ham = cvqc.parse_hamiltonian(_BENCH_HAM)
    with _reading():
        params = cvqc.GameParams(args.kappa, args.alpha)
    if params.kappa < 1 and not ham.x_terms:
        raise _UsageError("--ham: correlation rounds need an X term; without "
                          "one only --kappa 1 can be played")
    seed = _seed_of(args)
    rng = harness.derive_rng(seed, "cvqc", "delegated" if args.delegated
                             else "direct")
    est = cvqc.estimate_value(ham, params, args.trials, rng,
                              delegated=args.delegated)
    print("rounds=%d accepted=%d value=%.4f ci=[%.4f, %.4f]"
          % (est["rounds"], est["accepted"], est["value"],
             est["low"], est["high"]))
    print("physical=%.4f" % cvqc.physical_rate(params))
    if args.out:
        _write_json(args.out, {"command": "cvqc", "seed": seed,
                               "delegated": bool(args.delegated),
                               "kappa": args.kappa, "alpha": args.alpha,
                               **est})
    return 0


def cmd_osp_trace(args):
    with _reading("--delta"):
        delta = Fraction(args.delta)
    if delta not in (Fraction(1, 2), 1):
        raise _UsageError("--delta: the amplified path runs at k = 1, so it "
                          "takes 1/2 or 1")
    seed = _seed_of(args)
    rng = harness.derive_rng(seed, "osp-trace", args.path)
    b = args.b
    if args.path == "two-round":
        n = args.n if args.n is not None else 3
        out = osp.two_round_osp(b, rng, n)
    elif args.path == "multi-round":
        n = args.n if args.n is not None else 4
        pp, sp = tcf.gen("plain", 0, n, 0, 1, int(rng.integers(0, 1 << 63)))
        claw = osp.differentiate(osp.csg_from_tcf(pp, sp, rng), rng)
        out = osp.osp_from_csg(claw, b, rng)
    else:
        n = args.n if args.n is not None else 2
        out = osp.amplified_two_round_osp(b, args.lam, rng, n, 1, delta)
    for msg in out.transcript:
        print("%-8s %-16s %s" % (msg["role"], msg["kind"],
                                 json.dumps(msg["payload"], sort_keys=True,
                                            default=str)[:100]))
    if out.aborted:
        print("aborted (no claw survived)")
        return 1
    norm = math.sqrt(qsim.fidelity(out.receiver_state, out.target))
    print("b=%d s=%d state=%s" % (out.b, out.s, out.receiver_state))
    print("target-projection norm=%.12f" % norm)
    if args.out:
        _write_json(args.out, {"command": "osp-trace", "seed": seed,
                               "path": args.path, "b": out.b, "s": out.s,
                               "norm": norm, "transcript": out.transcript})
    return 0


def cmd_selftest(args):
    from . import acceptance

    only = args.only
    results = acceptance.run_all(only=only)
    failures = sum(1 for r in results if not r.passed)
    print()
    print("%d criteria run, %d failed" % (len(results), failures))
    if args.out:
        _write_json(args.out, [r.to_json() for r in results])
    return 1 if failures else 0


# ------------------------------------------------------------------ parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ospsim",
        description="simulation toolkit for obliviously prepared qubits "
                    "and the protocols built on them")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("poq", help="quantumness test acceptance rate")
    _add_common(p, wire=True, trials=2000, n=3)
    p.set_defaults(func=cmd_poq)

    p = sub.add_parser("puzzle", help="1-of-2 puzzle roundtrip")
    _add_common(p, lam=1024, n=2)
    p.add_argument("--threshold", type=_unit_interval, default=0.82)
    p.add_argument("--source", choices=("auto", "tcf", "ideal"),
                   default="auto")
    p.set_defaults(func=cmd_puzzle)

    p = sub.add_parser("delegate", help="blind-delegate a circuit file")
    _add_common(p)
    p.add_argument("--circuit", required=True, metavar="FILE")
    p.add_argument("--input", required=True, metavar="BITS")
    p.set_defaults(func=cmd_delegate)

    p = sub.add_parser("ot", help="1-of-2 oblivious transfer session")
    _add_common(p, wire=True, lam=8)
    p.add_argument("--b", type=int, choices=(0, 1), default=0)
    p.add_argument("--variant", choices=("search", "indistinguishability"),
                   default="search")
    p.add_argument("--cheat", choices=("zero-states",), default=None)
    p.set_defaults(func=cmd_ot)

    p = sub.add_parser("pke", help="bit encryption roundtrips")
    _add_common(p, trials=200)
    p.set_defaults(func=cmd_pke)

    p = sub.add_parser("commit", help="commitment rounds and binding probe")
    _add_common(p, lam=8)
    p.set_defaults(func=cmd_commit)

    p = sub.add_parser("cvqc", help="energy-test verification game")
    _add_common(p, trials=2000)
    p.add_argument("--kappa", type=float, default=0.2)
    p.add_argument("--alpha", type=float, default=-1.0,
                   help="promised energy, in [-1, 1] for sum w_l P_l")
    p.add_argument("--ham", metavar="FILE", default=None)
    p.add_argument("--delegated", action="store_true")
    p.set_defaults(func=cmd_cvqc)

    p = sub.add_parser("osp-trace", help="verbose single preparation run")
    # --n defaults per path: 3 two-round, 4 multi-round, 2 amplified
    _add_common(p, n=None, lam=2, delta="1/2")
    p.add_argument("--b", type=int, choices=(0, 1), default=0)
    p.add_argument("--path", choices=("two-round", "multi-round",
                                      "amplified"), default="two-round")
    p.set_defaults(func=cmd_osp_trace)

    p = sub.add_parser("selftest", help="run the acceptance checklist")
    _add_common(p, seed=False)
    p.add_argument("--only", type=int, default=None, metavar="N",
                   help="run a single numbered check")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        parser.exit(2, "ospsim %s: error: %s\n" % (args.command, exc))


if __name__ == "__main__":
    sys.exit(main())
