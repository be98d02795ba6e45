"""Finite commutative rings given as direct products Z_{n_1} x ... x Z_{n_k}.

Elements are plain tuples of residues, one per factor.  Everything here is
a pure function on immutable data.
"""
from __future__ import annotations

import functools
import itertools
import math
import re
from collections import namedtuple

NATIVE_LIMIT = 2**64
DEFAULT_MAX_CARDINALITY = 10_000

Element = tuple[int, ...]


class RingSpecError(ValueError):
    """Bad ring-spec text or invalid moduli."""


class CapExceededError(RuntimeError):
    """A configured size cap (cardinality or solver vertex count) was hit."""


class RingSpec:
    """A direct product of modular rings, written e.g. "Z2xZ3xZ5".

    Immutable, and equal and hashed by its moduli, but never equal to a bare
    tuple, so a spec and an int modulus can key one dict."""

    def __init__(self, moduli: tuple[int, ...]):
        if not moduli:
            raise RingSpecError("ring spec needs at least one factor")
        for n in moduli:
            if n < 2:
                raise RingSpecError(f"modulus {n} < 2")
        card = 1
        for n in moduli:
            card *= n
            if card >= NATIVE_LIMIT:
                raise RingSpecError("ring cardinality overflows native integers")
        self.__dict__["moduli"] = moduli  # a __dict__, not __slots__: fields caches there

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: a RingSpec is immutable")

    def __eq__(self, other):
        return self.moduli == other.moduli if isinstance(other, RingSpec) else NotImplemented

    def __hash__(self):
        return hash(self.moduli)

    def __repr__(self) -> str:
        return f"RingSpec(moduli={self.moduli!r})"

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


def divisors(n: int) -> list[int]:
    """The divisors of n, ascending: the values of gcd(x, n) over Z_n."""
    return [d for d in range(1, n + 1) if n % d == 0]


def signature_codes(spec: RingSpec) -> tuple[list[Element], list[int]]:
    """The vertices and, in the same pass, each one's signature code: the
    mixed-radix int, first factor most significant, of the indices of gcd(a_i,
    n_i) in divisors(n_i), so an index into product(*map(divisors, moduli)).
    The units alone have code 0, and zero, the first element, the last code."""
    codes = [0]
    for n in spec.moduli:  # each element's code so far, in lexicographic order
        divs = divisors(n)
        digit = [divs.index(math.gcd(x, n)) for x in range(n)]
        codes = [c + d for c in map(len(divs).__mul__, codes) for d in digit]
    del codes[0]  # zero; the units are the codes left at 0
    return (list(itertools.compress(itertools.islice(spec.elements(), 1, None), codes)),
            list(filter(None, codes)))


def vertices(spec: RingSpec) -> list[Element]:
    """Non-zero non-units in lexicographic residue order."""
    return signature_codes(spec)[0]


class AssociateClasses(namedtuple("AssociateClasses", "spec classes")):
    """Partition of the vertex set by equality of generated principal ideals:
    classes holds (representative, members) pairs."""
    __slots__ = ()


def associate_classes(spec: RingSpec) -> AssociateClasses:
    """Group vertices with Ra = Rb; representative is the lexicographically smallest.

    In Z_n the ideal Ra is generated by gcd(a, n), so a class is a product of
    one gcd group per factor, but for all zeros and all units.  A product is
    lex-ordered, so it starts with its representative, and the classes come in
    order of representative.  For a product of prime fields the smallest
    member of each class is exactly the {0,1}-pattern vertex.
    """
    # each factor's gcd groups in order of first member: 0's (gcd n), then
    # the units' (gcd 1), then each other divisor's, which is its first member
    groups = [[[x for x in range(n) if math.gcd(x, n) == d] for d in (n, *divisors(n)[:-1])]
              for n in spec.moduli]
    zero, units = (tuple(g[k] for g in groups) for k in (0, 1))
    classes = []
    for choice in itertools.product(*groups):
        if choice != zero and choice != units:
            members = tuple(itertools.product(*choice))
            classes.append((members[0], members))
    return AssociateClasses(spec=spec, classes=tuple(classes))
