import random
from itertools import combinations_with_replacement, groupby, product
from math import factorial

import pytest

from k3hilb import qin_wang
from k3hilb.hilb_basis import an_z, canonical_class, hilb_base, pad_class, reduce_class
from k3hilb.lehn_sorger import (
    _expand,
    _mult_kernel,
    _orbit_factors,
    _symmetrized_shape,
    _term_arrays,
    canonical_term,
    common_orbits,
    model_term,
    mult_an,
    mult_sn,
    to_sn,
)
from k3hilb.partitions import part_of_weight
from k3hilb.qin_wang import cup_int
import oracles
from oracles import identity_perm, perm_from_cycles


def test_common_orbits():
    ident = identity_perm(3)
    assert common_orbits(ident, ident) == [(0,), (1,), (2,)]
    p = perm_from_cycles(3, [(0, 1)])
    t = perm_from_cycles(3, [(1, 2)])
    assert common_orbits(p, t) == [(0, 1, 2)]
    p2 = perm_from_cycles(4, [(0, 1), (2, 3)])
    assert common_orbits(p2, identity_perm(4)) == [(0, 1), (2, 3)]
    with pytest.raises(ValueError):
        common_orbits(identity_perm(3), identity_perm(4))


def test_common_orbits_matches_folding_oracle():
    rng = random.Random(19)
    merged = 0
    for _ in range(200):
        n = rng.randint(1, 7)
        p = tuple(rng.sample(range(n), n))
        t = tuple(rng.sample(range(n), n))
        got = common_orbits(p, t)
        assert got == oracles.common_orbits_by_folding(p, t), (p, t)
        merged += len(got) < len(oracles.cycle_type(p))
    assert merged >= 100


def test_graph_defect_examples():
    swap = perm_from_cycles(2, [(0, 1)])
    assert oracles.graph_defect(swap, swap, (0, 1)) == 0
    three = perm_from_cycles(3, [(0, 1, 2)])
    three_inv = perm_from_cycles(3, [(0, 2, 1)])
    assert oracles.graph_defect(three, three_inv, (0, 1, 2)) == 0
    assert oracles.graph_defect(three, three, (0, 1, 2)) == 1


def test_graph_defect_nonnegative_integral_random():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 6)
        p = tuple(rng.sample(range(n), n))
        t = tuple(rng.sample(range(n), n))
        for orbit in common_orbits(p, t):
            g = oracles.graph_defect(p, t, orbit)
            assert isinstance(g, int) and g >= 0


def test_symmetrized_shape_matches_enumeration_oracle():
    # every canonical labelling up to the order and equality of its labels,
    # with the i-th smallest distinct label written as real[i]
    real = (0, 1, 2, 7, 8, 23)
    shapes = set()
    for n in range(1, 7):
        for parts in part_of_weight(n):
            # non-increasing within each run of equal parts
            values = range(len(parts), 0, -1)
            runs = [combinations_with_replacement(values, len(list(g))) for _, g in groupby(parts)]
            for picks in product(*runs):
                labels = sum(picks, ())
                distinct = sorted(set(labels))
                shapes.add((parts, tuple(real[distinct.index(l)] for l in labels)))
    assert len(shapes) == 253
    for parts, labels in sorted(shapes):
        got = _symmetrized_shape(parts, labels)
        assert got == oracles.symmetrized_shape_by_enumeration(parts, labels), (parts, labels)


def test_to_sn_examples():
    # distinct labels on two fixed points: two conjugates, multiplicity 1
    terms, mult = to_sn(canonical_class((1, 1), (1, 2)), 2)
    assert mult == 1 and len(terms) == 2
    # equal labels: a single conjugate, multiplicity 2
    terms, mult = to_sn(canonical_class((1, 1), (1, 1)), 2)
    assert mult == 2 and len(terms) == 1
    with pytest.raises(ValueError):
        to_sn(canonical_class((3,), (0,)), 2)


@pytest.mark.parametrize("n", range(1, 6))
def test_to_sn_single_cycle(n):
    terms, mult = to_sn(canonical_class((n,), (5,)), n)
    assert mult == n
    assert len(terms) == factorial(n) // n
    assert mult * len(terms) == factorial(n)


def test_to_sn_matches_brute_force():
    cases = [
        (canonical_class((2,), (0,)), 2),
        (canonical_class((2, 1), (7, 23)), 3),
        (canonical_class((1, 1, 1), (1, 1, 2)), 3),
        (canonical_class((2, 2), (0, 0)), 4),
        (canonical_class((2, 1, 1), (3, 0, 0)), 4),
        (canonical_class((3, 1, 1), (23, 4, 4)), 5),
        # the unit, the point and H^2 classes on equal parts
        (canonical_class((2, 2, 1), (23, 0, 5)), 5),
        (canonical_class((1, 1, 1, 1), (23, 23, 1, 0)), 4),
        (canonical_class((3, 2), (0, 23)), 5),
        (canonical_class((2, 2, 2), (1, 0, 23)), 6),
        (canonical_class((2, 1, 1, 1), (8, 23, 7, 7)), 6),
    ]
    for sym, n in cases:
        terms, mult = to_sn(sym, n)
        base = model_term(*pad_class(sym, n))
        counts = oracles.naive_symmetrization(base, n, canonical_term)
        assert set(counts) == set(terms)
        assert all(c == mult for c in counts.values())
        assert mult == an_z(pad_class(sym, n))


def test_mult_sn_unit():
    unit = canonical_term([((i,), 0) for i in range(3)])
    other = canonical_term([((2, 0, 1), 7)])
    assert mult_sn(unit, other) == {other: 1}
    assert mult_sn(other, unit) == {other: 1}


def test_mult_sn_product_permutation_and_degree():
    # output terms always live on the product permutation; degree is additive
    def term_degree(term):
        return sum(2 * (len(c) - 1) + (0 if l == 0 else 4 if l == 23 else 2) for c, l in term)

    a = canonical_term([((1, 0), 3), ((2,), 0)])
    b = canonical_term([((2, 1), 0), ((0,), 4)])
    prod = mult_sn(a, b)
    assert prod
    for term, coeff in prod.items():
        assert term_degree(term) == term_degree(a) + term_degree(b)


def test_mult_sn_two_cycle_square():
    # the square of the labeled transposition lands on the identity with
    # comultiplied labels; pairing against the point classes gives -1 each
    t = canonical_term([((1, 0), 0)])
    prod = mult_sn(t, t)
    unit_x = canonical_term([((0,), 23), ((1,), 0)])
    x_unit = canonical_term([((0,), 0), ((1,), 23)])
    assert prod[unit_x] == -1
    assert prod[x_unit] == -1


def test_mult_sn_associative_sweep():
    # seeded sweep over labeled terms at n = 3, 4 whose first factor holds a
    # 3-cycle, so graph defects occur; mostly unit labels keep products nonzero
    def mult_vec(u, v):
        out = {}
        for s, x in u.items():
            for t, y in v.items():
                for r, z in mult_sn(s, t).items():
                    out[r] = out.get(r, 0) + x * y * z
        return {r: z for r, z in out.items() if z}

    def random_term(rng, n, first):
        points = rng.sample(range(n), n)
        cuts = [0, first]
        while cuts[-1] < n:
            cuts.append(rng.randint(cuts[-1] + 1, n))
        return canonical_term(
            (tuple(points[i:j]), rng.choice((0, 0, 0, 7)))
            for i, j in zip(cuts, cuts[1:])
        )

    rng = random.Random(41)
    for _ in range(200):
        n = rng.choice((3, 4))
        a = {random_term(rng, n, 3): 1}
        b = {random_term(rng, n, rng.randint(1, n)): 1}
        d = {random_term(rng, n, rng.randint(1, n)): 1}
        assert mult_vec(mult_vec(a, b), d) == mult_vec(a, mult_vec(b, d))


@pytest.mark.parametrize(
    "a, b",
    [
        ([((0, 1), 0), ((1,), 0)], [((0, 1), 0)]),  # overlapping cycles
        ([((0, 2), 0)], [((0, 1), 0)]),  # point 1 missing
        ([((0, 1), 0), ((3,), 0)], [((0, 1, 2), 0)]),  # point 3 out of range
        ([((0, 1), 0)], [((0, 2, 1), 0)]),  # two points against three
    ],
    ids=["overlap", "missing", "out_of_range", "point_counts"],
)
def test_mult_sn_rejects_invalid_terms(a, b):
    with pytest.raises(ValueError):
        mult_sn(a, b)
    with pytest.raises(ValueError):
        mult_sn(b, a)


def _assert_kernel_matches_oracle(t1, t2, expand=True):
    """The cycle-list kernel and the permutation oracle give the same factors,
    orbit by orbit up to the order of the orbits, and the same expanded product."""
    n = sum(len(c) for c, _ in t2)
    got = _orbit_factors(t1, t2, _term_arrays(t2, n))
    want = oracles.orbit_factors_by_permutations(t1, t2)
    assert (got is None) == (want is None), (t1, t2)
    if got is not None:
        assert sorted(map(sorted, got)) == sorted(map(sorted, want)), (t1, t2)
    if expand:
        got_sum, want_sum = {}, {}
        _expand(got, canonical_term, got_sum)
        _expand(want, canonical_term, want_sum)
        assert got_sum == want_sum, (t1, t2)
    return got is not None


def test_orbit_kernel_matches_permutation_oracle_all_conjugates():
    # every conjugate of every model term against every model term, n <= 5,
    # with all labels units (graph defects give Euler factors) and a seeded
    # mixed labelling; the all-unit expansions at n = 5 run to tens of
    # thousands of terms a product, so there the factors alone are compared
    rng = random.Random(5)
    checked = nonzero = 0
    for n in range(1, 6):
        for pa in part_of_weight(n):
            for pb in part_of_weight(n):
                units = ((0,) * len(pa), (0,) * len(pb))
                mixed = tuple(tuple(rng.choice((0, 0, 1, 2, 23)) for _ in p) for p in (pa, pb))
                for (la, lb), expand in ((units, n < 5), (mixed, True)):
                    b = model_term(*canonical_class(pb, lb))
                    for t in to_sn(canonical_class(pa, la), n)[0]:
                        nonzero += _assert_kernel_matches_oracle(t, b, expand)
                        checked += 1
    assert (checked, nonzero) == (2591, 1187)


def test_orbit_kernel_matches_permutation_oracle_random():
    rng = random.Random(68)

    def random_term(n):
        points = rng.sample(range(n), n)
        cuts = [0] + sorted(rng.sample(range(1, n), rng.randint(0, n - 1))) + [n]
        return canonical_term(
            (tuple(points[i:j]), rng.choice((0, 0, 0, 0, 0, 1, 2, 15, 23)))
            for i, j in zip(cuts, cuts[1:])
        )

    nonzero = sum(
        _assert_kernel_matches_oracle(random_term(n), random_term(n))
        for n in (rng.randint(6, 8) for _ in range(300))
    )
    assert nonzero == 51


def test_mult_an_unit_scaling():
    # the all-fixed-points creation symbol is n! times the ring unit
    for n in (2, 3, 4):
        unit_n = canonical_class((1,) * n, (0,) * n)
        rng = random.Random(n)
        for d in (2, 4):
            basis = hilb_base(n, d)
            for sym in rng.sample(basis, min(4, len(basis))):
                assert mult_an(unit_n, sym, n) == {sym: factorial(n)}
                assert mult_an(sym, unit_n, n) == {sym: factorial(n)}


def test_mult_an_matches_naive_oracle():
    cases = [
        (canonical_class((2,), (0,)), canonical_class((2,), (0,)), 2),
        (canonical_class((2,), (0,)), canonical_class((1,), (1,)), 2),
        (canonical_class((2,), (0,)), canonical_class((2,), (0,)), 3),
        (canonical_class((2,), (3,)), canonical_class((1, 1), (4, 0)), 3),
        (canonical_class((1, 1), (1, 2)), canonical_class((1,), (23,)), 3),
        (canonical_class((2, 1), (0, 0)), canonical_class((2, 1), (1, 0)), 3),
        (canonical_class((2, 2), (0, 0)), canonical_class((2, 1, 1), (1, 0, 0)), 4),
        (canonical_class((3, 1), (7, 0)), canonical_class((2, 1, 1), (0, 0, 0)), 4),
    ]
    for a, b, n in cases:
        pa, pb = pad_class(a, n), pad_class(b, n)
        assert mult_an(pa, pb, n) == oracles.naive_mult_an(a, b, n)


def test_mult_an_matches_naive_oracle_sampled_hilb2():
    # broad sweep at n=2: the shape-memoized product against the full
    # double-symmetrization for random basis pairs across all degrees
    rng = random.Random(97)
    pool = [s for d in range(0, 9, 2) for s in hilb_base(2, d)]
    for _ in range(120):
        a, b = rng.choice(pool), rng.choice(pool)
        assert mult_an(a, b, 2) == oracles.naive_mult_an(a, b, 2)


def test_mult_an_commutative_sampled():
    rng = random.Random(23)
    for n in (2, 3, 4):
        pool = [s for d in (2, 4) for s in hilb_base(n, d)]
        for _ in range(6):
            a, b = rng.choice(pool), rng.choice(pool)
            assert mult_an(a, b, n) == mult_an(b, a, n)


def test_mult_an_overweight_is_zero():
    heavy = canonical_class((3,), (0,))
    light = canonical_class((1,), (1,))
    assert mult_an(heavy, light, 2) == {}


def _random_reduced(rng, weight):
    """A random symbol of the given weight without (1, unit) pairs."""
    parts = []
    while sum(parts) < weight:
        parts.append(rng.randint(1, min(3, weight - sum(parts))))
    labels = [rng.choice((0, 0, 1, 2, 7, 23) if p > 1 else (1, 2, 7, 8, 23)) for p in parts]
    return canonical_class(parts, labels)


def _weight(sym):
    return sum(reduce_class(sym)[0])


@pytest.mark.parametrize("n", range(4, 9))
def test_mult_an_matches_full_ambient_oracle(n):
    # seeded sweep: pairs whose reduced weights fit in fewer than n points
    # (the product runs at m < n and is rescaled), and pairs that overlap,
    # n - s(b) < s(a), where falling factorials (n - s(b))_k vanish
    rng = random.Random(1000 + n)
    small = [(sa, sb) for sa in range(1, n) for sb in range(1, n - sa)]
    overlap = [(sa, sb) for sa in range(2, n + 1) for sb in range(n - sa + 1, n + 1) if sa + sb <= n + 3]
    pairs = []
    for shapes in (small, overlap):
        for sa, sb in rng.sample(shapes, min(5, len(shapes))):
            pairs.append((_random_reduced(rng, sa), _random_reduced(rng, sb)))
    assert any(_weight(a) + _weight(b) < n for a, b in pairs)
    assert any(_weight(a) + _weight(b) > n for a, b in pairs)
    for a, b in pairs:
        expected = oracles.full_ambient_mult_an(a, b, n)
        assert mult_an(a, b, n) == expected
        assert mult_an(b, a, n) == expected
        assert mult_an(pad_class(a, n), b, n) == expected


@pytest.mark.parametrize("n", range(2, 9))
def test_mult_deg2_matches_s_n_oracles(n):
    # a degree-2 factor (the boundary class, or a label class) against the
    # S_n oracles: the naive double symmetrization while n!^2 is
    # small, else all conjugates at the full ambient; seeded b of every
    # weight up to n, with labels that cup to nonzero classes, in both
    # argument orders
    rng = random.Random(2000 + n)
    oracle = oracles.naive_mult_an if n <= 4 else oracles.full_ambient_mult_an
    nonzero = 0
    for _ in range(8):
        b = _random_reduced(rng, rng.randint(1, n))
        for a in (((2,), (0,)), ((1,), (rng.choice((1, 2, 7, 8, 15)),))):
            expected = oracle(a, b, n)
            assert mult_an(a, b, n) == expected, (a, b)
            assert mult_an(b, pad_class(a, n), n) == expected, (a, b)
            nonzero += bool(expected)
    assert nonzero >= 8


def _random_points(rng, k):
    """A reduced symbol of k labelled points, labels repeating and point labels likely."""
    return canonical_class((1,) * k, [rng.choice((1, 1, 2, 7, 15, 23)) for _ in range(k)])


@pytest.mark.parametrize("n", range(5, 9))
def test_mult_points_matches_full_ambient_oracle(n):
    # seeded k = 1...4 points against b of every weight up to n, and against
    # b whose long cycles carry the unit, products on all n points as oracle
    rng = random.Random(3000 + n)
    nonzero = 0
    for k in range(1, 5):
        a = _random_points(rng, k)
        for b in (
            _random_reduced(rng, rng.randint(1, n)),
            canonical_class((n - 2, 2), (0, 0)),
            canonical_class((3, 1), (0, rng.choice((1, 2, 7)))),
        ):
            expected = oracles.full_ambient_mult_an(a, b, n)
            assert mult_an(a, b, n) == expected, (a, b)
            assert mult_an(pad_class(b, n), pad_class(a, n), n) == expected, (a, b)
            nonzero += bool(expected)
    assert nonzero >= 6


def test_mult_points_unit():
    # the reduced unit symmetrized is n! times the unit: b padded to n, times
    # n!, also at n = 0
    for n in range(5):
        for d in (0, 2, 4, 6):
            for b in hilb_base(n, d)[:40]:
                rb = reduce_class(b)
                assert _mult_kernel(((), ()), rb, n) == {b: factorial(n)}


@pytest.mark.parametrize("n", range(5, 9))
def test_mult_placed_two_cycle_matches_full_ambient_oracle(n):
    # seeded ((2, 1^k), (beta, alpha_1..alpha_k)), k = 0...3, against b of
    # every weight up to n, and against b whose cycles the 2-cycle joins
    # before the points are placed into the joined cycle: a 3-cycle with a
    # unit point, or two cycles with H^2 labels of product 1; products on
    # all n points as oracle
    rng = random.Random(4000 + n)
    nonzero = 0
    for k in range(4):
        beta = rng.choice((0, 0, 1, 7))
        alphas = [rng.choice((1, 2, 7, 8, 23)) for _ in range(k)]
        a = canonical_class((2,) + (1,) * k, [beta] + alphas)
        for b in (
            _random_reduced(rng, rng.randint(1, n)),
            canonical_class((3,), (8,)),
            canonical_class((2, 2), (7, 8)),
        ):
            expected = oracles.full_ambient_mult_an(a, b, n)
            assert mult_an(a, b, n) == expected, (a, b)
            assert mult_an(pad_class(b, n), pad_class(a, n), n) == expected, (a, b)
            nonzero += bool(expected)
    # ((3,), (8,)) joined with a unit point, then alpha = 7 placed into the
    # 4-cycle, which keeps the 2 points the 2-cycle did not take
    a, b = ((2, 1), (0, 7)), ((3,), (8,))
    expected = oracles.full_ambient_mult_an(a, b, n)
    assert mult_an(a, b, n) == expected
    assert expected[pad_class(((4,), (23,)), n)]
    assert nonzero >= 6


def test_cup_int_hilb8_matches_full_ambient_products(monkeypatch):
    # integral products at n = 8 with every creation product taken on all
    # eight points by the oracle
    rng = random.Random(8)

    def pick(d, cycles):
        return rng.choice([s for s in hilb_base(8, d) if (s[0][0] > 1) == cycles])

    pairs = [
        (pick(2, False), pick(2, True)),
        (pick(4, True), pick(4, False)),
        (pick(4, True), pick(6, True)),
        (pick(6, False), pick(6, False)),
        (pick(2, False), pick(8, True)),
    ]
    fast = [cup_int(a, b, 8) for a, b in pairs]
    # the integer base change against one in Fractions
    assert [oracles.cup_int_by_fractions(a, b, 8) for a, b in pairs] == fast
    # the base change passes canonical symbols and says so
    monkeypatch.setattr(
        qin_wang, "mult_an", lambda a, b, n, *, canonical: oracles.full_ambient_mult_an(a, b, n)
    )
    assert [cup_int(a, b, 8) for a, b in pairs] == fast
    assert all(fast)
