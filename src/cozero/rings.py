"""Finite commutative rings given as direct products Z_{n_1} x ... x Z_{n_k}.

Elements are plain tuples of residues, one per factor.  Everything here is
a pure function on immutable data.
"""
from __future__ import annotations

import functools
import itertools
import math
import re
from dataclasses import dataclass

NATIVE_LIMIT = 2**64
DEFAULT_MAX_CARDINALITY = 10_000

Element = tuple[int, ...]


class RingSpecError(ValueError):
    """Bad ring-spec text or invalid moduli."""


class CapExceededError(RuntimeError):
    """A configured size cap (cardinality or solver vertex count) was hit."""


@dataclass(frozen=True)
class RingSpec:
    """A direct product of modular rings, written e.g. "Z2xZ3xZ5"."""

    moduli: tuple[int, ...]

    def __post_init__(self):
        if not self.moduli:
            raise RingSpecError("ring spec needs at least one factor")
        for n in self.moduli:
            if n < 2:
                raise RingSpecError(f"modulus {n} < 2")
        card = 1
        for n in self.moduli:
            card *= n
            if card >= NATIVE_LIMIT:
                raise RingSpecError("ring cardinality overflows native integers")

    @property
    def cardinality(self) -> int:
        return math.prod(self.moduli)

    @property
    def zero(self) -> Element:
        return (0,) * len(self.moduli)

    @functools.cached_property
    def fields(self) -> tuple[tuple[int, int], ...] | None:
        """The (factor index, prime) pairs of the CRT split in factorize order,
        or None unless every modulus is squarefree (R is a product of fields)."""
        fields = tuple((i, p) for i, n in enumerate(self.moduli) for p, _ in factorize(n))
        # each modulus is at least the product of its primes, equal iff squarefree
        return fields if math.prod(p for _, p in fields) == self.cardinality else None

    def elements(self):
        """All ring elements in lexicographic residue order."""
        return itertools.product(*(range(n) for n in self.moduli))

    def add(self, a: Element, b: Element) -> Element:
        return tuple((x + y) % n for x, y, n in zip(a, b, self.moduli))

    def __str__(self) -> str:
        return "x".join(f"Z{n}" for n in self.moduli)


_SPEC_RE = re.compile(r"^z(\d+)(?:xz(\d+))*$", re.IGNORECASE)


def parse_spec(text: str) -> RingSpec:
    """Parse "Z2xZ3xZ5" (case-insensitive) into a RingSpec."""
    cleaned = text.strip()
    if not _SPEC_RE.match(cleaned):
        raise RingSpecError(f"cannot parse ring spec {text!r}")
    moduli = tuple(int(part[1:]) for part in cleaned.lower().split("x"))
    return RingSpec(moduli)


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n as [(p1, e1), (p2, e2), ...], p ascending.

    n is prime iff factorize(n) == [(n, 1)], and squarefree iff every
    exponent is 1.
    """
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def in_principal_ideal(spec: RingSpec, a: Element, b: Element) -> bool:
    """Whether a is a multiple of b, i.e. a is in the ideal Rb.

    Uses that multiples of b mod n are exactly the multiples of gcd(b, n).
    """
    # gcd(0, n) = n, so the b_i = 0 case degenerates correctly to a_i = 0
    return all(x % math.gcd(y, n) == 0 for x, y, n in zip(a, b, spec.moduli))


def multiples(y: int, n: int) -> frozenset[int]:
    """The ideal y*Z_n = {r*y mod n : r in Z_n}, listed in full with no gcd."""
    return frozenset(map(n.__rmod__, map(y.__mul__, range(n))))


def principal_ideal(spec: RingSpec, b: Element) -> frozenset[Element]:
    """The ideal Rb = {r*b : r in R}, by exhaustive enumeration of multiples.

    Multiplication is componentwise, so Rb is the product over the factors
    of multiples(b_i, n_i); each factor's multiples are listed in full,
    which costs sum(n_i) products instead of |R|.  No gcd is used, so this
    stays an independent oracle for in_principal_ideal and the graph build.
    """
    return frozenset(itertools.product(*map(multiples, b, spec.moduli)))


def _gcd_buckets(n: int) -> dict[int, list[int]]:
    """The residues of Z_n by gcd(x, n), ascending, in order of first member."""
    buckets: dict[int, list[int]] = {}
    for x in range(n):
        buckets.setdefault(math.gcd(x, n), []).append(x)
    return buckets


def vertices(spec: RingSpec) -> list[Element]:
    """Non-zero non-units in lexicographic residue order: all elements but
    zero and the product of the factors' units (their gcd-1 groups)."""
    skip = set(itertools.product(*(_gcd_buckets(n)[1] for n in spec.moduli)))
    skip.add(spec.zero)
    return list(itertools.filterfalse(skip.__contains__, spec.elements()))


@dataclass(frozen=True)
class AssociateClasses:
    """Partition of the vertex set by equality of generated principal ideals."""

    spec: RingSpec
    classes: tuple[tuple[Element, tuple[Element, ...]], ...]  # (representative, members)


def associate_classes(spec: RingSpec) -> AssociateClasses:
    """Group vertices with Ra = Rb; representative is the lexicographically smallest.

    In Z_n the ideal Ra is generated by gcd(a, n), so a class is a product of
    one gcd group per factor, but for all zeros and all units.  A product is
    lex-ordered, so it starts with its representative, and the classes come in
    order of representative.  For a product of prime fields the smallest
    member of each class is exactly the {0,1}-pattern vertex.
    """
    groups = [list(_gcd_buckets(n).values()) for n in spec.moduli]
    # the group of 0 comes first in every factor, and that of the units second
    zero, units = (tuple(g[k] for g in groups) for k in (0, 1))
    classes = []
    for choice in itertools.product(*groups):
        if choice != zero and choice != units:
            members = tuple(itertools.product(*choice))
            classes.append((members[0], members))
    return AssociateClasses(spec=spec, classes=tuple(classes))
