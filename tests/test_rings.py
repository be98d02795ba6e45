import itertools
import math

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cozero.rings import (
    RingSpec,
    RingSpecError,
    associate_classes,
    divisors,
    factorize,
    in_principal_ideal,
    multiples,
    parse_spec,
    principal_ideal,
    signature_codes,
    vertices,
)
from cozero.verify import default_ring_set
from conftest import (
    CLASS_RINGS,
    associate_classes_by_gcd,
    ideal_by_enumeration,
    is_unit,
    one,
    unit_by_search,
    vertices_by_search,
    vnr_by_search,
)


def assert_matches_oracles(spec):
    """vertices and associate_classes equal their per-element oracles: the
    vertex order, and the classes with their members, representatives and
    order."""
    assert vertices(spec) == vertices_by_search(spec)
    assert associate_classes(spec).classes == associate_classes_by_gcd(spec).classes


class TestParseSpec:
    @pytest.mark.parametrize("text,moduli", [
        ("Z2xZ2", (2, 2)),
        ("Z4", (4,)),
        ("Z2xZ3xZ5", (2, 3, 5)),
        ("z2Xz3", (2, 3)),
        (" Z10 ", (10,)),
    ])
    def test_valid(self, text, moduli):
        assert parse_spec(text).moduli == moduli

    @pytest.mark.parametrize("text", ["", "Z", "Z1", "Z0", "Z2x", "xZ2",
                                      "Z2yZ3", "2x3", "Z-3"])
    def test_invalid(self, text):
        with pytest.raises(RingSpecError):
            parse_spec(text)

    def test_overflow_rejected(self):
        with pytest.raises(RingSpecError):
            RingSpec((2**63, 2**63))

    def test_roundtrip_str(self):
        spec = parse_spec("Z2xZ9xZ5")
        assert parse_spec(str(spec)) == spec


class TestRingSpecValue:
    """A spec is a value: equal and hashed by its moduli, never equal to a
    bare tuple, and immutable."""

    def test_equal_and_hashed_by_moduli(self):
        a, b = RingSpec((2, 3)), RingSpec(moduli=(2, 3))
        assert a == b and hash(a) == hash(b) and a is not b
        assert a != RingSpec((3, 2))
        assert a != (2, 3) and (2, 3) != a
        assert list(dict.fromkeys([a, RingSpec((3, 3)), b])) == [a, RingSpec((3, 3))]
        assert repr(a) == "RingSpec(moduli=(2, 3))"

    def test_keys_a_dict_next_to_an_int_modulus(self):
        # a run's tables hold the graphs of Z2^n by spec and the ideals of
        # Z_n by the int n
        tables = {RingSpec((2,)): "graph of Z2", 2: "ideals of Z2"}
        assert len(tables) == 2 and tables[RingSpec((2,))] == "graph of Z2"

    def test_immutable(self):
        spec = RingSpec((2, 3))
        assert spec.fields == ((0, 2), (1, 3))  # cached on the spec
        with pytest.raises(AttributeError):
            spec.moduli = (2,)
        assert spec.moduli == (2, 3)


class TestFactorize:
    @pytest.mark.parametrize("n,factors", [
        (1, []),
        (2, [(2, 1)]),
        (97, [(97, 1)]),
        (360, [(2, 3), (3, 2), (5, 1)]),
        (1001, [(7, 1), (11, 1), (13, 1)]),
    ])
    def test_examples(self, n, factors):
        assert factorize(n) == factors

    def test_matches_trial_division(self):
        for n in range(2, 400):
            factors = factorize(n)
            assert [p for p, _ in factors] == [
                p for p in range(2, n + 1)
                if n % p == 0 and all(p % d for d in range(2, p))]
            product = 1
            for p, e in factors:
                product *= p**e
            assert product == n


class TestIsUnit:
    def test_z6_five(self):
        spec = RingSpec((6,))
        assert is_unit(spec, (5,))  # 5*5 = 25 = 1 mod 6

    def test_zero_component(self):
        assert not is_unit(RingSpec((2, 2)), (1, 0))

    def test_identity(self, small_spec):
        assert is_unit(small_spec, one(small_spec))

    def test_matches_inverse_search(self, small_spec):
        for a in small_spec.elements():
            assert is_unit(small_spec, a) == unit_by_search(small_spec, a)

    def test_unit_iff_one_in_ideal(self, small_spec):
        for a in small_spec.elements():
            assert is_unit(small_spec, a) == \
                in_principal_ideal(small_spec, one(small_spec), a)


class TestPrincipalIdeal:
    def test_z6_examples(self):
        spec = RingSpec((6,))
        assert in_principal_ideal(spec, (2,), (4,))  # 2 = 2*4 mod 6
        assert not in_principal_ideal(spec, (1,), (2,))

    def test_disjoint_patterns(self):
        spec = RingSpec((2, 2))
        assert not in_principal_ideal(spec, (1, 0), (0, 1))

    def test_zero_in_every_ideal(self, small_spec):
        for b in small_spec.elements():
            assert in_principal_ideal(small_spec, small_spec.zero, b)

    def test_fast_path_matches_enumeration(self, small_spec):
        elems = list(small_spec.elements())
        ideals = {b: ideal_by_enumeration(small_spec, b) for b in elems}
        for a in elems:
            for b in elems:
                assert in_principal_ideal(small_spec, a, b) == (a in ideals[b])

    def test_principal_ideal_enumeration(self):
        spec = RingSpec((6,))
        assert principal_ideal(spec, (2,)) == {(0,), (2,), (4,)}

    def test_multiples_match_brute_force(self):
        for n in range(2, 61):
            for y in range(n):
                assert multiples(y, n) == {r * y % n for r in range(n)}

    def test_per_factor_enumeration_matches_whole_ring(self, small_spec):
        for b in small_spec.elements():
            assert principal_ideal(small_spec, b) == \
                ideal_by_enumeration(small_spec, b)


class TestVertices:
    def test_z4(self):
        assert vertices(RingSpec((4,))) == [(2,)]

    def test_z2z2(self):
        assert vertices(RingSpec((2, 2))) == [(0, 1), (1, 0)]

    def test_z2_cubed_count(self):
        assert len(vertices(RingSpec((2, 2, 2)))) == 6

    def test_excludes_zero_and_units(self, small_spec):
        vs = vertices(small_spec)
        assert small_spec.zero not in vs
        assert not any(is_unit(small_spec, v) for v in vs)
        unit_count = sum(1 for a in small_spec.elements()
                         if is_unit(small_spec, a))
        assert len(vs) == small_spec.cardinality - unit_count - 1

    def test_lexicographic_order(self, small_spec):
        vs = vertices(small_spec)
        assert vs == sorted(vs)


@pytest.mark.parametrize("texts", [
    pytest.param([str(s) for s in default_ring_set()], id="default-rings"),
    pytest.param(CLASS_RINGS, id="class-rings"),
])
def test_per_factor_tables_match_oracles(texts):
    for text in texts:
        assert_matches_oracles(parse_spec(text))


@given(st.lists(st.sampled_from([2, 3, 4, 5, 6, 8, 9, 10, 12, 16, 18, 25, 27]),
                min_size=1, max_size=3))
@example([8, 12])
@settings(max_examples=60, deadline=None)
def test_per_factor_tables_property(moduli):
    spec = RingSpec(tuple(moduli))
    assume(spec.cardinality <= 2000)
    assert_matches_oracles(spec)


def assert_codes_match_oracles(spec):
    """signature_codes against per-element oracles.  Each element's code is
    the index of its gcd tuple in the product of the moduli's divisors: 0
    exactly on the units, the last exactly on zero, and on the vertices the
    codes signature_codes gives, whose classes are the associate classes."""
    labels, codes = signature_codes(spec)
    index = {sig: c for c, sig in enumerate(itertools.product(*map(divisors, spec.moduli)))}
    code = {a: index[tuple(map(math.gcd, a, spec.moduli))] for a in spec.elements()}
    assert [a for a, c in code.items() if c == 0] == [
        a for a in spec.elements() if is_unit(spec, a)]
    assert [a for a, c in code.items() if c == len(index) - 1] == [spec.zero]
    assert labels == vertices(spec) == vertices_by_search(spec)
    assert codes == [code[a] for a in labels]
    classes: dict[int, list] = {}
    for a, c in zip(labels, codes):
        classes.setdefault(c, []).append(a)
    assert tuple((m[0], tuple(m)) for m in classes.values()) == (
        associate_classes_by_gcd(spec).classes)


class TestSignatureCodes:
    def test_divisors(self):
        for n in range(1, 200):
            assert divisors(n) == sorted({math.gcd(x, n) for x in range(n)} | {n})

    def test_units_by_search(self, small_spec):
        # units told by their inverses, not by gcd
        labels, codes = signature_codes(small_spec)
        assert {a for a in small_spec.elements() if unit_by_search(small_spec, a)} == (
            set(small_spec.elements()) - set(labels) - {small_spec.zero})
        assert 0 not in codes

    def test_z12xz3(self):
        # divisors (1, 2, 3, 4, 6, 12) x (1, 3): (4, 0) has signature (4, 3)
        labels, codes = signature_codes(RingSpec((12, 3)))
        assert codes[labels.index((4, 0))] == 3 * 2 + 1
        assert codes[labels.index((0, 1))] == 5 * 2
        assert codes[labels.index((6, 2))] == 4 * 2

    @pytest.mark.parametrize("texts", [
        pytest.param([str(s) for s in default_ring_set()], id="default-rings"),
        pytest.param(CLASS_RINGS, id="class-rings"),
    ])
    def test_match_oracles(self, texts):
        for text in texts:
            assert_codes_match_oracles(parse_spec(text))


# prime powers and composites, drawn with repeats
@given(st.lists(st.sampled_from([2, 3, 4, 5, 6, 7, 8, 9, 12, 16, 25, 27, 30]),
                min_size=1, max_size=4))
@example([4, 4])
@example([8, 8, 2])
@example([3, 9, 3])
@example([2, 2, 2, 2])
@settings(max_examples=60, deadline=None)
def test_signature_codes_property(moduli):
    spec = RingSpec(tuple(moduli))
    assume(spec.cardinality <= 1500)
    assert_codes_match_oracles(spec)


class TestVonNeumannRegular:
    """RingSpec.fields is not None exactly on the von Neumann regular rings."""

    @pytest.mark.parametrize("moduli,expected", [
        ((2, 3), True),
        ((4,), False),
        ((6,), True),
        ((2, 4), False),
        ((30, 7), True),
        ((9,), False),
    ])
    def test_squarefree_criterion(self, moduli, expected):
        assert (RingSpec(moduli).fields is not None) == expected

    def test_matches_regularity_search(self, small_spec):
        assert (small_spec.fields is not None) == vnr_by_search(small_spec)


def assert_fields_match_search(spec, regular):
    """fields is None iff the ring is not regular; else the (factor, prime)
    pairs in factor order, and each factor's primes divide its modulus, are
    ascending and distinct, and multiply to it."""
    if not regular:
        assert spec.fields is None
        return
    by_factor = [[p for j, p in spec.fields if j == i] for i in range(len(spec.moduli))]
    assert [(i, p) for i, primes in enumerate(by_factor) for p in primes] == list(spec.fields)
    for n, primes in zip(spec.moduli, by_factor):
        assert all(factorize(p) == [(p, 1)] and n % p == 0 for p in primes)
        assert primes == sorted(set(primes))
        assert math.prod(primes) == n


def test_fields_on_default_rings():
    # r = r*r*s holds in a product iff it holds in every factor, so the
    # search runs per factor: on the whole ring it would take |R|^2 products
    specs = default_ring_set()
    moduli = {n for spec in specs for n in spec.moduli}
    by_factor = {n: vnr_by_search(RingSpec((n,))) for n in moduli}
    for spec in specs:
        assert_fields_match_search(spec, all(map(by_factor.get, spec.moduli)))


@given(st.lists(st.integers(2, 36), min_size=1, max_size=3))
@example([4, 3])
@example([30, 7])
@settings(max_examples=60, deadline=None)
def test_fields_property(moduli):
    spec = RingSpec(tuple(moduli))
    assume(spec.cardinality <= 216)
    assert_fields_match_search(spec, vnr_by_search(spec))


class TestMinPrimeCount:
    """len(RingSpec.fields) is the number of fields, the n of the clique formula."""

    @pytest.mark.parametrize("moduli,n", [
        ((2, 3, 5), 3),
        ((6,), 2),
        ((2,), 1),
        ((30,), 3),
        ((2, 15), 3),
    ])
    def test_counts(self, moduli, n):
        assert len(RingSpec(moduli).fields) == n


class TestAssociateClasses:
    def test_z2z3(self):
        ac = associate_classes(RingSpec((2, 3)))
        by_rep = {rep: set(members) for rep, members in ac.classes}
        assert by_rep[(0, 1)] == {(0, 1), (0, 2)}
        assert by_rep[(1, 0)] == {(1, 0)}

    def test_z2z2_singletons(self):
        ac = associate_classes(RingSpec((2, 2)))
        assert all(len(members) == 1 for _, members in ac.classes)
        assert len(ac.classes) == 2

    def test_z3z3(self):
        ac = associate_classes(RingSpec((3, 3)))
        assert len(ac.classes) == 2
        assert sorted(len(m) for _, m in ac.classes) == [2, 2]

    def test_partition_and_mutual_membership(self, small_spec):
        ac = associate_classes(small_spec)
        all_members = [m for _, members in ac.classes for m in members]
        assert sorted(all_members) == vertices(small_spec)
        for rep, members in ac.classes:
            ideal = ideal_by_enumeration(small_spec, rep)
            for m in members:
                assert ideal_by_enumeration(small_spec, m) == ideal

    def test_representatives_pairwise_non_associate(self, small_spec):
        ac = associate_classes(small_spec)
        reps = [rep for rep, _ in ac.classes]
        for a, b in itertools.combinations(reps, 2):
            assert not (in_principal_ideal(small_spec, a, b)
                        and in_principal_ideal(small_spec, b, a))

    def test_vnr_class_count(self):
        for moduli in [(2, 2), (2, 3), (3, 3), (2, 3, 5), (2, 2, 2, 2), (6,)]:
            spec = RingSpec(moduli)
            n = len(spec.fields)
            assert len(associate_classes(spec).classes) == 2 ** n - 2

    def test_vnr_representatives_are_01_patterns(self):
        for moduli in [(2, 3), (3, 3), (3, 5, 7), (2, 3, 5)]:
            ac = associate_classes(RingSpec(moduli))
            for rep, _ in ac.classes:
                assert all(r in (0, 1) for r in rep)


@given(st.lists(st.integers(min_value=2, max_value=9), min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_ideal_membership_property(moduli):
    spec = RingSpec(tuple(moduli))
    if spec.cardinality > 200:
        return
    elems = list(spec.elements())
    for a in elems[::7]:
        for b in elems[::5]:
            assert in_principal_ideal(spec, a, b) == \
                (a in ideal_by_enumeration(spec, b))


@given(st.lists(st.integers(min_value=2, max_value=12), min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_principal_ideal_property(moduli):
    spec = RingSpec(tuple(moduli))
    assume(spec.cardinality <= 200)
    for b in spec.elements():
        assert principal_ideal(spec, b) == ideal_by_enumeration(spec, b)
