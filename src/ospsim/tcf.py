"""Toy claw-free function families with trapdoor decoders.

Two families over n input bits, both built from an explicit random
permutation pi of the output space:

* plain: F(x) = pi(fold(x)) with fold(x) = min(x, x xor shift), an exactly
  2-to-1 function whose claws are the pairs {x, x xor shift}.
* dual: F(b, x) over a branch bit and n input bits.  In lossy mode inputs
  whose k-bit prefix lands in a chosen set S collide across branches
  (F(0, x) = F(1, x xor shift)); everything else, and all of disjoint mode,
  is tagged injectively by branch.

No hardness is claimed anywhere.  The public object carries the full
function table; decoding without the secret is easy by design.  What the
toy families provide is the exact combinatorial structure the protocols
need: balanced claws, a claw fraction of exactly delta, and a branch parity
decodable from the trapdoor.

Each family draws from one PCG64 stream, numpy.random.default_rng(seed),
in this order:

1. the shift: integers(1, 2^n) for the plain family; for the dual family
   integers(mu, 2^(n-k)), so it is zero on the k prefix bits and, in lossy
   mode, nonzero on the rest;
2. dual family only, when k > 0: the prefix set S, the first delta*2^k
   entries of permutation(2^k).  At k = 0 S is {0} and nothing is drawn,
   as a permutation of one point would draw nothing;
3. pi, as permutation(2^m).

Tables are tuples of int rows read as table[b][x] (the plain family has one
row); numpy serves only that stream.  decode(sp, y) = pi^-1(y) is the one
trapdoor lookup, and the three inverters read their answers off it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import gf2

# The widest input: a dual family's n + 2 output bits fill the 20-qubit
# dense budget.
MAX_N = 18

_ONE = Fraction(1)
_PREFIX_ZERO = frozenset({0})


@dataclass(frozen=True)
class TcfPublic:
    """Public parameters. The function table is carried but never serialized."""

    n: int
    m: int
    mode: str  # plain | disjoint | lossy
    k: int
    table: tuple = field(repr=False, compare=False)  # int rows, table[b][x]

    def serialize(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "mode": self.mode,
            "k": self.k,
        }


@dataclass(frozen=True)
class TcfSecret:
    shift: tuple
    prefix_set: frozenset  # k-bit ints
    perm_inverse: tuple = field(repr=False, compare=False)
    delta_param: Fraction = _ONE
    public: TcfPublic = field(repr=False, compare=False, default=None)


def gen(family: str, mu: int, n: int, k: int, delta, seed: int):
    """Generate a (TcfPublic, TcfSecret) pair.

    family "plain" ignores mu and requires k=0, delta=1.  family "dual"
    produces the lossy map when mu=1 and the branch-disjoint map when mu=0.
    delta is anything Fraction() reads; it is checked on its numerator and
    denominator.
    """
    if not isinstance(delta, (int, Fraction)):
        delta = Fraction(delta)
    num, den = delta.numerator, delta.denominator
    if not 1 <= n <= MAX_N:
        raise ValueError("n must lie in [1, %d]" % MAX_N)
    if not 0 < num <= den:
        raise ValueError("delta must lie in (0, 1]")
    scaled, rest = divmod(num << k, den)
    if rest:
        raise ValueError("delta * 2^k must be integral")
    rng = np.random.default_rng(seed)
    if family == "plain":
        if k != 0 or num != den:
            raise ValueError("plain family supports only k=0, delta=1")
        mode, m = "plain", n
        shift_int = int(rng.integers(1, 1 << n))
        prefix_set = _PREFIX_ZERO
    elif family == "dual":
        if k >= n and mu:
            raise ValueError("lossy mode needs at least one non-prefix bit")
        mode, m = ("lossy" if mu else "disjoint"), n + 2
        # Shift is zero on the k prefix bits (the high ones) and, in lossy
        # mode, nonzero on the rest.
        shift_int = int(rng.integers(1 if mu else 0, 1 << (n - k)))
        if k:
            prefix_set = frozenset(rng.permutation(1 << k)[:scaled].tolist())
        else:
            prefix_set = _PREFIX_ZERO
    else:
        raise ValueError("family must be 'plain' or 'dual'")
    perm = rng.permutation(1 << m).tolist()

    if mode == "plain":
        table = (tuple(perm[min(x, x ^ shift_int)] for x in range(1 << n)),)
    else:
        # Row b holds F(b, x): the tagged 1||x||b, except in lossy mode
        # where x's prefix lies in S, which maps to the shared claw image
        # x xor b*shift.  The shift stays inside a prefix's block.
        tag, low = 1 << (n + 1), n - k
        row0, row1 = perm[tag::2], perm[tag + 1::2]
        if mu:
            for prefix in prefix_set:
                lo, hi = prefix << low, (prefix + 1) << low
                row0[lo:hi] = perm[lo:hi]
                row1[lo:hi] = [perm[x ^ shift_int] for x in range(lo, hi)]
        table = (tuple(row0), tuple(row1))

    perm_inverse = [0] * len(perm)
    for w, y in enumerate(perm):
        perm_inverse[y] = w
    pp = TcfPublic(n=n, m=m, mode=mode, k=k, table=table)
    sp = TcfSecret(
        shift=gf2.int_to_bits(shift_int, n),
        prefix_set=prefix_set,
        perm_inverse=tuple(perm_inverse),
        delta_param=_ONE if num == den else delta,
        public=pp,
    )
    return pp, sp


def eval(pp: TcfPublic, b: int, x) -> tuple:
    """Evaluate the family map; b is ignored for the plain family."""
    x = tuple(map(int, x))
    if len(x) != pp.n:
        raise ValueError("input must have %d bits" % pp.n)
    row = pp.table[0] if pp.mode == "plain" else pp.table[int(b) & 1]
    return gf2.int_to_bits(row[gf2.bits_to_int(x)], pp.m)


def decode(sp: TcfSecret, y) -> int:
    """The trapdoor lookup: the point w = pi^-1(y) behind an m-bit image."""
    y = tuple(int(v) for v in y)
    if len(y) != sp.public.m:
        raise ValueError("y must have %d bits" % sp.public.m)
    return sp.perm_inverse[gf2.bits_to_int(y)]


def _on_claw(sp: TcfSecret, w: int) -> bool:
    """Whether decoded point w sits on a claw: the smaller point of a plain
    fold pair, or a lossy branch-0 input whose prefix lies in S."""
    pp = sp.public
    if pp.mode == "plain":
        return w < w ^ gf2.bits_to_int(sp.shift)
    return (pp.mode == "lossy" and w < (1 << pp.n)
            and w >> (pp.n - pp.k) in sp.prefix_set)


def claw_invert(sp: TcfSecret, y):
    """The claw (x, x xor shift) behind y, or None when y has no claw."""
    w = decode(sp, y)
    if not _on_claw(sp, w):
        return None
    n = sp.public.n
    return gf2.int_to_bits(w, n), gf2.int_to_bits(w ^ gf2.bits_to_int(sp.shift), n)


def partial_invert(sp: TcfSecret, y) -> frozenset:
    """The branch bits of y's preimages (dual family only)."""
    w = decode(sp, y)
    if sp.public.mode == "plain":
        raise ValueError("partial_invert is undefined for the plain family")
    if w >= 1 << (sp.public.n + 1):  # branch-tagged image 1||x||b
        return frozenset({w & 1})
    return frozenset({0, 1}) if _on_claw(sp, w) else frozenset()


def phase_invert(sp: TcfSecret, y, d):
    """The phase bit d.shift of y's claw, or None (dual family only)."""
    w = decode(sp, y)
    if sp.public.mode == "plain":
        raise ValueError("phase_invert is undefined for the plain family")
    d = tuple(d)
    if len(d) != sp.public.n:
        raise ValueError("phase_invert needs an n-bit d")
    return gf2.dot(d, sp.shift) if _on_claw(sp, w) else None
