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
2. dual family only: the prefix set S, the first delta*2^k entries of
   permutation(2^k);
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
    delta_param: Fraction = Fraction(1)
    public: TcfPublic = field(repr=False, compare=False, default=None)


def gen(family: str, mu: int, n: int, k: int, delta, seed: int):
    """Generate a (TcfPublic, TcfSecret) pair.

    family "plain" ignores mu and requires k=0, delta=1.  family "dual"
    produces the lossy map when mu=1 and the branch-disjoint map when mu=0.
    """
    delta = Fraction(delta)
    if not 1 <= n <= MAX_N:
        raise ValueError("n must lie in [1, %d]" % MAX_N)
    if not 0 < delta <= 1:
        raise ValueError("delta must lie in (0, 1]")
    scaled = delta * (1 << k)
    if scaled.denominator != 1:
        raise ValueError("delta * 2^k must be integral")
    rng = np.random.default_rng(seed)
    if family == "plain":
        if k != 0 or delta != 1:
            raise ValueError("plain family supports only k=0, delta=1")
        mode, m = "plain", n
        shift_int = int(rng.integers(1, 1 << n))
        prefix_set = frozenset({0})
    elif family == "dual":
        if k >= n and mu:
            raise ValueError("lossy mode needs at least one non-prefix bit")
        mode, m = ("lossy" if mu else "disjoint"), n + 2
        # Shift is zero on the k prefix bits (the high ones) and, in lossy
        # mode, nonzero on the rest.
        shift_int = int(rng.integers(1 if mu else 0, 1 << (n - k)))
        prefix_set = frozenset(rng.permutation(1 << k)[:int(scaled)].tolist())
    else:
        raise ValueError("family must be 'plain' or 'dual'")
    perm = rng.permutation(1 << m).tolist()

    if mode == "plain":
        table = (tuple(perm[min(x, x ^ shift_int)] for x in range(1 << n)),)
    else:
        # Row b holds F(b, x): in lossy mode the shared claw image
        # x xor b*shift when x's prefix lies in S, else the tagged 1||x||b.
        row0, row1 = [], []
        tag, low = 1 << (n + 1), n - k
        for x in range(1 << n):
            if mu and x >> low in prefix_set:
                row0.append(perm[x])
                row1.append(perm[x ^ shift_int])
            else:
                w = tag | (x << 1)
                row0.append(perm[w])
                row1.append(perm[w | 1])
        table = (tuple(row0), tuple(row1))

    perm_inverse = [0] * len(perm)
    for w, y in enumerate(perm):
        perm_inverse[y] = w
    pp = TcfPublic(n=n, m=m, mode=mode, k=k, table=table)
    sp = TcfSecret(
        shift=gf2.int_to_bits(shift_int, n),
        prefix_set=prefix_set,
        perm_inverse=tuple(perm_inverse),
        delta_param=delta,
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


def claw_oracle(pp: TcfPublic) -> dict:
    """Brute-force map from image int to the tuple of its preimages.

    Preimages are x tuples for the plain family and (b, x) pairs for the
    dual family. Ground truth for all decode tests; n <= 12 only.
    """
    if pp.n > 12:
        raise ValueError("claw_oracle limited to n <= 12")
    out: dict = {}
    for b, row in enumerate(pp.table):
        for xi, y in enumerate(row):
            x = gf2.int_to_bits(xi, pp.n)
            out.setdefault(y, []).append(x if pp.mode == "plain" else (b, x))
    return {y: tuple(v) for y, v in out.items()}
