import random
from fractions import Fraction
from math import factorial, lcm

import pytest

from k3hilb.hilb_basis import canonical_class, deg, hilb_base, pad_class, reduce_class
from k3hilb.partitions import part_of_weight, part_z
from k3hilb.qin_wang import (
    NonIntegralError,
    UniversalCoeff,
    crea_to_int,
    cup_int,
    cup_int_list,
    cup_universal,
    int_to_crea,
)
from k3hilb.symfunc import psi, psi_inv
import oracles

c = canonical_class


def cup_vec(vec, sym, n):
    """Bilinear extension of cup_int to a sparse left factor."""
    out = {}
    for a, va in vec.items():
        for s, w in cup_int(a, sym, n).items():
            out[s] = out.get(s, 0) + va * w
    return {s: v for s, v in out.items() if v}


def test_int_to_crea_unit_and_point_labels():
    # only labels 0 and 23: single term, weight 1/z on the unit subpartition
    sym = c((2, 1, 1), (23, 0, 0))
    expansion = int_to_crea(sym, 4)
    assert expansion == {pad_class(sym, 4): Fraction(1, 2)}
    out = crea_to_int(sym, 4)
    assert out == {pad_class(sym, 4): 2}


def test_int_to_crea_h2_label_uses_inverse_base_change():
    i = 5
    sym = c((1, 1), (i, i))
    expansion = int_to_crea(sym, 2)
    assert expansion == {
        c((1, 1), (i, i)): psi_inv((1, 1), (1, 1)),
        c((2,), (i,)): psi_inv((1, 1), (2,)),
    }
    assert expansion[c((1, 1), (i, i))] == Fraction(1, 2)
    assert expansion[c((2,), (i,))] == Fraction(-1, 2)


def test_crea_to_int_h2_label_uses_base_change():
    i = 9
    out = crea_to_int(c((1, 1), (i, i)), 2)
    assert out == {
        c((1, 1), (i, i)): psi((1, 1), (1, 1)),
        c((2,), (i,)): psi((1, 1), (2,)),
    }
    assert out[c((1, 1), (i, i))] == 2


@pytest.mark.parametrize("n", (1, 2, 3))
def test_round_trip_on_full_bases(n):
    for d in range(0, 4 * n + 1, 2):
        for sym in hilb_base(n, d):
            acc = {}
            for mid, v in int_to_crea(sym, n).items():
                for back, w in crea_to_int(mid, n).items():
                    acc[back] = acc.get(back, 0) + v * w
            acc = {s: x for s, x in acc.items() if x}
            assert acc == {sym: 1}, sym


def test_golden_transcript_1():
    got = cup_int(c((2, 2, 1, 1), (0, 0, 0, 0)), c((2, 1, 1, 1, 1), (1, 0, 0, 0, 0)), 6)
    assert got == {
        c((2, 1, 1, 1, 1), (0, 23, 1, 0, 0)): -2,
        c((2, 2, 2), (1, 0, 0)): 1,
        c((3, 2, 1), (1, 0, 0)): 2,
        c((4, 1, 1), (1, 0, 0)): 1,
    }


def test_golden_transcript_2():
    got = cup_int(c((2, 1, 1), (1, 0, 0)), c((1, 1, 1, 1), (1, 0, 0, 0)), 4)
    assert got == {c((2, 1, 1), (1, 1, 0)): 1, c((3, 1), (1, 0)): 1}


def test_golden_transcript_3():
    got = cup_int(c((2, 1, 1), (0, 0, 0)), c((2, 1, 1), (0, 0, 0)), 4)
    assert got[c((1, 1, 1, 1), (23, 0, 0, 0))] == -3


def test_golden_transcript_4():
    got = cup_int(c((2, 2, 1), (0, 0, 0)), c((2, 2, 1), (0, 0, 0)), 5)
    assert got[c((1, 1, 1, 1, 1), (23, 23, 0, 0, 0))] == 3


def test_degree2_with_pairing():
    # hyperbolic pair: the product picks up twice the pairing on the
    # point-class companion term
    got = cup_int(c((2, 1, 1), (1, 0, 0)), c((1, 1, 1, 1), (2, 0, 0, 0)), 4)
    assert got == {
        c((2, 1, 1), (1, 2, 0)): 1,
        c((2, 1, 1), (23, 0, 0)): 2,
    }
    # same-label 1-parts concatenate with a binomial multiplicity instead
    got = cup_int(c((1,), (1,)), c((1,), (1,)), 3)
    assert got == {c((1, 1, 1), (1, 1, 0)): 2, c((2, 1), (1, 0)): 1}


def test_cup_int_unit_neutral():
    # the empty symbol carries the 1/n! normalization and is the ring unit
    unit = c((), ())
    rng = random.Random(31)
    for n in (2, 3, 4):
        pool = hilb_base(n, 2) + hilb_base(n, 4)
        for sym in rng.sample(pool, 5):
            assert cup_int(unit, sym, n) == {sym: 1}
            assert cup_int(sym, unit, n) == {sym: 1}


def test_cup_int_zero_for_overweight():
    assert cup_int(c((3,), (0,)), c((1,), (1,)), 2) == {}


def test_cup_int_commutative_sampled():
    rng = random.Random(5)
    for n in (2, 3, 4):
        pool = hilb_base(n, 2) + hilb_base(n, 4)
        for _ in range(5):
            a, b = rng.choice(pool), rng.choice(pool)
            assert cup_int(a, b, n) == cup_int(b, a, n)


def test_cup_int_associative_sampled():
    rng = random.Random(17)
    for n in (2, 3, 4):
        pool = list(hilb_base(n, 2)) + list(hilb_base(n, 4))
        for _ in range(4):
            a, b, d = (rng.choice(pool) for _ in range(3))
            left = cup_vec(cup_int(a, b, n), d, n)
            right = cup_vec(cup_int(b, d, n), a, n)
            assert left == right


def test_cup_int_associative_on_graph_defect_triple():
    # a*a has a 3-cycle orbit of graph defect 1; with +24*x in place of the
    # Euler class e = m(coprod(1)) = -24*x this triple is not associative,
    # and the sampled test above draws no triple that shows it
    a = c((3, 1), (0, 0))
    y = c((2, 1, 1), (0, 2, 0))
    assert cup_vec(cup_int(a, a, 4), y, 4) == cup_vec(cup_int(a, y, 4), a, 4)


def test_cup_int_graded():
    rng = random.Random(29)
    for n in (2, 3, 4):
        pool = list(hilb_base(n, 2)) + list(hilb_base(n, 4))
        for _ in range(6):
            a, b = rng.choice(pool), rng.choice(pool)
            for sym in cup_int(a, b, n):
                assert deg(sym) == deg(a) + deg(b)


def test_cup_int_list_consistency():
    one2 = c((2,), (0,))
    for n in (2, 3, 4, 5):
        single = cup_int_list([one2], n)
        assert single == {pad_class(one2, n): 1}
        sq_fold = cup_int_list([one2, one2], n)
        assert sq_fold == cup_int(one2, one2, n)
        cube_fold = cup_int_list([one2] * 3, n)
        assert cube_fold == cup_vec(cup_int(one2, one2, n), one2, n)
    with pytest.raises(ValueError):
        cup_int_list([], 2)


def test_cup_int_list_validates_unless_canonical():
    # public calls canonicalize and validate each factor; canonical=True takes
    # hilb_base symbols as given, with the same product
    rng = random.Random(52)
    for n in (2, 3, 4):
        pool = [s for d in (2, 4) for s in hilb_base(n, d)]
        for _ in range(8):
            factors = [rng.choice(pool) for _ in range(rng.randint(2, 3))]
            want = cup_int_list(factors, n, canonical=True)
            shuffled = [(p[::-1], l[::-1]) for p, l in factors]
            assert cup_int_list(shuffled, n) == want
            assert cup_int_list(shuffled[::-1], n) == want
            assert cup_int_list([(list(p), list(l)) for p, l in shuffled], n) == want
    with pytest.raises(ValueError):
        cup_int_list([((1,), (24,)), ((2,), (0,))], 3)
    with pytest.raises(ValueError):
        cup_int_list([((2,), (0,)), ((1, 1), (1, 24))], 3)


def test_denes_coefficients():
    one2 = c((2,), (0,))
    for k in (2, 3, 4):
        n = k + 2
        prod = cup_int_list([one2] * k, n)
        head = c((k + 1,) + (1,) * (n - k - 1), (0,) * (n - k))
        tail = c((k, 2) + (1,) * (n - k - 2), (0,) * (n - k))
        assert prod[head] == (k + 1) ** (k - 1)
        assert prod[tail] == k ** (k - 1)


def test_dunes_cube_at_n4():
    # triple fold: unit-label cube picks up the 16 = 4^2 full-cycle count
    prod = cup_int_list([c((2,), (0,))] * 3, 4)
    assert prod[c((4,), (0,))] == 16


def test_stability_leading_coefficient():
    # the concatenation of the factors appears with coefficient exactly 1
    # whenever the factors share no (part size, label) pair; shared pairs
    # concatenate with binomial multiplicities instead
    rng = random.Random(41)
    pool = [
        c((2,), (0,)),
        c((1,), (4,)),
        c((2,), (7,)),
        c((1, 1), (3, 2)),
        c((1,), (23,)),
        c((2, 1), (0, 5)),
        c((3,), (0,)),
        c((2,), (23,)),
    ]
    cases = 0
    for n in (3, 4, 5, 6):
        for _ in range(8):
            a, b = rng.choice(pool), rng.choice(pool)
            if sum(a[0]) + sum(b[0]) > n:
                continue
            if set(zip(*a)) & set(zip(*b)):
                continue
            lead = canonical_class(a[0] + b[0], a[1] + b[1])
            prod = cup_int(a, b, n)
            assert prod[pad_class(lead, n)] == 1
            cases += 1
    assert cases >= 10
    # overlapping example: equal factors double the concatenated symbol
    sq = cup_int(c((1,), (7,)), c((1,), (7,)), 3)
    assert sq[pad_class(c((1, 1), (7, 7)), 3)] == 2


def test_cup_universal_example_one_squared():
    coeffs = cup_universal(c((2,), (0,)), c((2,), (0,)))
    by_target = {u.target: u for u in coeffs}
    x1 = by_target[c((1,), (23,))]
    assert x1.poly == (Fraction(1), Fraction(-1))  # -(n-1)
    assert x1.pretty() == "c(n) = 1 + -1*n"


def test_cup_universal_pair_squared():
    coeffs = cup_universal(c((2, 2), (0, 0)), c((2, 2), (0, 0)))
    by_target = {u.target: u for u in coeffs}
    x11 = by_target[c((1, 1), (23, 23))]
    assert x11.poly == (Fraction(3), Fraction(-5, 2), Fraction(1, 2))
    for n in range(4, 11):
        assert x11.evaluate(n) == Fraction((n - 3) * (n - 2), 2)


def test_cup_universal_hyperbolic_constant():
    coeffs = cup_universal(c((1, 1), (1, 2)), c((1, 1), (1, 2)))
    by_target = {u.target: u for u in coeffs}
    assert by_target[c((1, 1), (23, 23))].poly == (Fraction(1),)


def test_cup_universal_degree_bound_and_integrality():
    coeffs = cup_universal(c((2,), (0,)), c((2, 1), (0, 3)))
    wa, wb = 2, 3
    for u in coeffs:
        assert len(u.poly) - 1 <= wa + wb - sum(u.target[0])
        for n in range(max(sum(u.target[0]), wb), 11):
            assert u.evaluate(n).denominator == 1


def test_cup_universal_evaluations_match_direct_products():
    a, b = c((2,), (0,)), c((1, 1), (1, 2))
    coeffs = {u.target: u for u in cup_universal(a, b)}
    for n in (3, 4, 5, 6):
        direct = {reduce_class(s): v for s, v in cup_int(a, b, n).items()}
        for target, u in coeffs.items():
            if sum(target[0]) <= n:
                assert u.evaluate(n) == direct.get(target, 0)


def test_universal_pretty_formats():
    u = UniversalCoeff(c((1,), (23,)), (Fraction(1, 2), Fraction(0), Fraction(-2)))
    assert u.pretty() == "c(n) = 1/2 + -2*n^2"
    assert UniversalCoeff(((), ()), ()).pretty() == "c(n) = 0"


def test_cup_universal_unit():
    unit = c((), ())
    coeffs = cup_universal(unit, unit)
    assert coeffs == [UniversalCoeff(unit, (Fraction(1),))]


def test_non_integral_error_surface():
    # the product's exact division by its denominator is where a fractional
    # coefficient would surface
    from k3hilb.qin_wang import NonIntegralError, _crea_to_int_items, _int_to_crea_items, _to_integral

    e = c((2, 1, 1), (5, 5, 0))
    back = dict(_crea_to_int_items(e))
    assert _to_integral({e: 6}, 3) == {s: 2 * v for s, v in back.items()}
    assert _to_integral({e: 7}, 7) == back
    assert _to_integral({}, 5) == {}
    with pytest.raises(NonIntegralError):
        _to_integral({e: 1}, 2)
    # an integral class, expanded and converted back
    sym = c((2, 1, 1), (0, 5, 5))
    den, items = _int_to_crea_items(sym)
    assert den == 4  # z of the unit part (2) times the 1/2 of m_(1,1) = (p_1^2 - p_2) / 2
    assert _to_integral(dict(items), den) == {sym: 1}
    with pytest.raises(NonIntegralError):
        _to_integral(dict(items), 2 * den)


@pytest.mark.parametrize("n", (1, 2, 3))
def test_base_change_matches_fraction_oracle_full_bases(n):
    for d in range(0, 4 * n + 1, 2):
        for sym in hilb_base(n, d):
            assert int_to_crea(sym, n) == oracles.int_to_crea_by_fractions(sym, n), sym
            assert crea_to_int(sym, n) == oracles.crea_to_int_by_fractions(sym, n), sym
            assert all(type(v) is int for v in crea_to_int(sym, n).values())


def _random_symbol(rng, n):
    """A random symbol of weight <= n, its labels drawn from a few K3 indices
    so that H^2 labels repeat."""
    palette = [0, 23] + rng.sample(range(1, 23), 2)
    parts, left = [], rng.randint(1, n)
    while left:
        parts.append(rng.randint(1, left))
        left -= parts[-1]
    return c(parts, [rng.choice(palette) for _ in parts])


def test_base_change_matches_fraction_oracle_random():
    from k3hilb.qin_wang import _int_to_crea_items

    rng = random.Random(29)
    for _ in range(200):
        n = rng.randint(5, 8)
        sym = _random_symbol(rng, n)
        want = oracles.int_to_crea_by_fractions(sym, n)
        assert int_to_crea(sym, n) == want, sym
        assert crea_to_int(sym, n) == oracles.crea_to_int_by_fractions(sym, n), sym
        # one denominator: every coefficient times it is an integer
        den, _ = _int_to_crea_items(pad_class(sym, n))
        assert all((v * den).denominator == 1 for v in want.values())
        # den is the unit parts' z times the lcm of each H^2 label's psi^-1
        # denominators
        want_den = 1
        for label, parts in oracles._label_subparts(pad_class(sym, n)):
            if label == 0:
                want_den *= part_z(parts)
            elif label != 23:
                rhos = part_of_weight(sum(parts))
                want_den *= lcm(*(psi_inv(parts, rho).denominator for rho in rhos))
        assert den == want_den, sym


# ---------------------------------------------------------------------------
# the divisor derivation on integral symbols, against the creation path

DIVISOR_LABELS = (1, 2, 7, 8, 15, 22)  # a hyperbolic plane and both -E8 blocks


@pytest.mark.parametrize("n", (1, 2, 3))
def test_mult_divisor_matches_creation_path_on_bases(n):
    from k3hilb.qin_wang import _mult_divisor

    for d in range(0, 4 * n + 1, 2):
        for sym in hilb_base(n, d):
            for alpha in DIVISOR_LABELS:
                want = oracles.cup_by_creation([((1,), (alpha,)), sym], n)
                assert _mult_divisor(alpha, sym) == want, (alpha, sym)


def test_mult_divisor_matches_creation_path_random():
    # alpha is drawn next to the symbol's own H^2 labels, so B(alpha, beta) != 0
    # and beta = alpha both come up, and the point parts grow
    from k3hilb.qin_wang import _mult_divisor

    rng = random.Random(61)
    transfers = 0
    for _ in range(150):
        n = rng.randint(4, 8)
        sym = pad_class(_random_symbol(rng, n), n)
        h2 = [l for l in sym[1] if 0 < l < 23] or [rng.randint(1, 22)]
        alpha = min(22, max(1, rng.choice(h2) + rng.choice((-1, 0, 0, 1))))
        got = _mult_divisor(alpha, sym)
        assert got == oracles.cup_by_creation([sym, ((1,), (alpha,))], n), (alpha, sym)
        transfers += any(s[1].count(23) > sym[1].count(23) for s in got)
    assert transfers > 50


def test_cup_int_list_divisor_chains_match_creation_path():
    # all divisors, one other factor, two others; the boundary class is among
    # the others
    rng = random.Random(62)
    for n in (2, 3, 4, 5):
        others = [c((2,), (0,))] + list(hilb_base(n, 2)[:3]) + rng.sample(hilb_base(n, 4), 6)
        for k in (0, 1, 2):
            for _ in range(4):
                factors = [((1,), (rng.choice(DIVISOR_LABELS),)) for _ in range(3 - k)]
                factors += rng.sample(others, k)
                rng.shuffle(factors)
                want = oracles.cup_by_creation(factors, n)
                assert cup_int_list(factors, n) == want, factors
                padded = [pad_class(f, n) for f in factors]
                assert cup_int_list(padded, n, canonical=True) == want, factors


@pytest.mark.parametrize("n", range(1, 9))
def test_fujiki_relation_on_h2_of_k3(n):
    # int a^(2n) = (2n)! / (n! 2^n) * B(a, a)^n for a in H^2(K3): 2n - 1
    # derivations by a, read at the top class (Fujiki, Adv. Stud. Pure Math. 10, 1987)
    from k3hilb.k3 import bil
    from k3hilb.qin_wang import _mult_divisor

    rng = random.Random(70 + n)
    for _ in range(3):
        a = {i: rng.choice((-2, -1, 1, 2)) for i in rng.sample(range(1, 23), 3)}
        vec = {pad_class(((1,), (i,)), n): x for i, x in a.items()}
        for _ in range(2 * n - 1):
            out = {}
            for sym, v in vec.items():
                for i, x in a.items():
                    for t, w in _mult_divisor(i, sym).items():
                        out[t] = out.get(t, 0) + v * x * w
            vec = {t: v for t, v in out.items() if v}
        q = sum(x * y * bil(i, j) for i, x in a.items() for j, y in a.items())
        assert oracles.integrate(n, vec) == factorial(2 * n) // (factorial(n) * 2**n) * q**n, a


# ---------------------------------------------------------------------------
# the boundary class on integral symbols, against the creation path

DELTA = ((2,), (0,))


def _assert_boundary_matches_creation_path(n, degrees):
    from k3hilb.qin_wang import _mult_boundary

    for d in degrees:
        for sym in hilb_base(n, d):
            assert _mult_boundary(sym) == oracles.cup_by_creation([DELTA, sym], n), sym


@pytest.mark.parametrize("n,top", [(1, 4), (2, 8), (3, 12), (4, 6)])
def test_mult_boundary_matches_creation_path_on_bases(n, top):
    # every degree at n <= 3; at n = 4 the degrees up to 6
    _assert_boundary_matches_creation_path(n, range(0, top + 1, 2))


@pytest.mark.stretch
def test_mult_boundary_matches_creation_path_hilb4_stretch():
    _assert_boundary_matches_creation_path(4, (8,))


def test_mult_boundary_matches_creation_path_random():
    from k3hilb.qin_wang import _mult_boundary

    rng = random.Random(63)
    for _ in range(120):
        n = rng.randint(5, 8)
        sym = pad_class(_random_symbol(rng, n), n)
        assert _mult_boundary(sym) == oracles.cup_by_creation([sym, DELTA], n), sym


def test_cup_int_list_boundary_chains_match_creation_path():
    # the boundary class with itself, with divisors, and with factors that are
    # not operators (alone, as the starting class of the operator steps)
    rng = random.Random(64)
    for n in (2, 3, 4, 5):
        others = list(hilb_base(n, 2)[:2]) + rng.sample(hilb_base(n, 4), 4)
        chains = [[DELTA] * 2, [DELTA] * 3]
        for _ in range(3):
            alpha, beta = (((1,), (rng.choice(DIVISOR_LABELS),)) for _ in range(2))
            chains += [[alpha, DELTA, beta], [DELTA, rng.choice(others)]]
            chains += [[rng.choice(others), DELTA, alpha], [DELTA, rng.choice(others), DELTA]]
        for factors in chains:
            want = oracles.cup_by_creation(factors, n)
            assert cup_int_list(factors, n) == want, factors
            padded = [pad_class(f, n) for f in factors]
            assert cup_int_list(padded, n, canonical=True) == want, factors


@pytest.mark.parametrize("n", [2, 3, 4, pytest.param(5, marks=pytest.mark.stretch)])
def test_fujiki_relation_with_boundary(n):
    # int a^(2n) = (2n)! / (n! 2^n) * q(a)^n for a = sum c_i ([1],[i]) + t*delta,
    # with q = B on H^2(K3), q(delta) = -2(n - 1) and delta orthogonal to it
    # (Beauville, J. Differential Geom. 18, 1983); the power is taken by the
    # divisor and boundary rules alone
    from k3hilb.k3 import bil
    from k3hilb.qin_wang import _mult_boundary, _mult_divisor

    rng = random.Random(80 + n)
    for _ in range(2):
        a = {i: rng.choice((-2, -1, 1, 2)) for i in rng.sample(range(1, 23), 2)}
        t = rng.choice((-1, 1, 2))
        vec = {pad_class(((1,), (i,)), n): x for i, x in a.items()}
        vec[pad_class(DELTA, n)] = t
        for _ in range(2 * n - 1):
            out = {}
            for sym, v in vec.items():
                terms = [(x, _mult_divisor(i, sym)) for i, x in a.items()]
                for y, product in terms + [(t, _mult_boundary(sym))]:
                    for s, w in product.items():
                        out[s] = out.get(s, 0) + v * y * w
            vec = {s: v for s, v in out.items() if v}
        q = sum(x * y * bil(i, j) for i, x in a.items() for j, y in a.items()) - 2 * (n - 1) * t * t
        assert oracles.integrate(n, vec) == factorial(2 * n) // (factorial(n) * 2**n) * q**n, (a, t)


# ---------------------------------------------------------------------------
# classes of cycle type (1^n) with distinct H^2 labels, against the creation path

# hyperbolic 1-2, E8 neighbours 7-8, labels 15 and 22 orthogonal to them all
PALETTE = {0, 23, *DIVISOR_LABELS}


def _identity_factors(n):
    """Every padded class of cycle type (1^n) labelled in PALETTE whose H^2
    labels are pairwise distinct: each takes the identity-sector rule."""
    from k3hilb.qin_wang import _operator

    out = []
    for d in range(0, 4 * n + 1, 2):
        for sym in hilb_base(n, d):
            if sym[0][:1] == (1,) and set(sym[1]) <= PALETTE:
                h2 = [l for l in sym[1] if 0 < l < 23]
                if len(set(h2)) == len(h2):
                    assert _operator(sym) is not None, sym
                    out.append(sym)
    return out


def _assert_identity_rule_matches_creation_path(n, classes):
    from k3hilb.qin_wang import _operator

    for f in _identity_factors(n):
        act = _operator(f)
        for sym in classes:
            assert act(sym) == oracles.cup_by_creation([f, sym], n), (f, sym)


@pytest.mark.parametrize("n", (1, 2))
def test_identity_rule_matches_creation_path_on_bases(n):
    # every factor labelled in PALETTE times every basis class of every degree
    classes = [s for d in range(0, 4 * n + 1, 2) for s in hilb_base(n, d)]
    _assert_identity_rule_matches_creation_path(n, classes)


def test_identity_rule_matches_creation_path_on_palette_hilb3():
    # at n = 3 the classes labelled in PALETTE (192 of 3,200), against 72 factors
    classes = [s for d in range(13) for s in hilb_base(3, d) if set(s[1]) <= PALETTE]
    _assert_identity_rule_matches_creation_path(3, classes)


@pytest.mark.stretch
def test_identity_rule_matches_creation_path_hilb3_stretch():
    classes = [s for d in range(13) for s in hilb_base(3, d)]
    _assert_identity_rule_matches_creation_path(3, classes)


def test_identity_rule_matches_creation_path_random():
    # factors with point labels and H^2 labels that pair (B != 0) with each
    # other and with the other class's labels, at n = 4..6
    from k3hilb.k3 import bil
    from k3hilb.qin_wang import _operator

    rng = random.Random(65)
    paired = pointed = 0
    for _ in range(300):
        n = rng.randint(4, 6)
        h2 = rng.sample((1, 2, 3, 7, 8, 9, 12, 14, 15, 16), rng.randint(1, min(4, n)))
        points = rng.randint(0, n - len(h2))
        f = pad_class(c((1,) * (len(h2) + points), h2 + [23] * points), n)
        paired += any(bil(g, h) for g in h2 for h in h2 if g != h)
        pointed += points > 0
        parts, left = [], rng.randint(1, n)
        while left:
            parts.append(rng.randint(1, left))
            left -= parts[-1]
        labels = [rng.choice((0, 23, *h2, min(22, max(1, rng.choice(h2) + 1)))) for _ in parts]
        sym = pad_class(c(parts, labels), n)
        assert _operator(f)(sym) == oracles.cup_by_creation([f, sym], n), (f, sym)
    assert paired > 60 and pointed > 100


def test_cup_int_list_identity_chains_match_creation_path():
    # identity-sector factors with each other (a product of operators alone),
    # with the boundary class and with factors that are not operators
    rng = random.Random(66)
    for n in (3, 4, 5):
        ids = [((1, 1), (1, 2)), ((1, 1, 1), (23, 8, 7)), ((1, 1), (23, 23)), ((1, 1, 1), (22, 2, 1))]
        others = [DELTA, c((1, 1), (7, 7))] + rng.sample(hilb_base(n, 4), 3)
        for _ in range(6):
            a, b = rng.sample(ids, 2)
            for factors in ([a, b], [a, DELTA], [a, rng.choice(others)], [a, b, rng.choice(others)]):
                rng.shuffle(factors)
                want = oracles.cup_by_creation(factors, n)
                assert cup_int_list(factors, n) == want, factors
                padded = [pad_class(c(*f), n) for f in factors]
                assert cup_int_list(padded, n, canonical=True) == want, factors


def test_operator_excludes_repeated_h2_labels():
    # m_(1,1)(alpha) = (p_1^2 - p_2)/2 and p_2 is a 2-cycle: one doubled H^2
    # label of a (1^n) class is an operator; a label three times, two doubled
    # labels or the 2-cycle's H^2 label on a 1-cycle need a longer cycle
    from k3hilb.qin_wang import _operator

    for sym in (
        ((1, 1, 1), (7, 7, 7)),
        ((1, 1, 1, 1), (8, 8, 7, 7)),
        ((2, 1), (7, 7)),
        ((2, 1, 1), (23, 8, 8)),
        ((2, 2), (0, 0)),
        ((3,), (0,)),
    ):
        assert _operator(pad_class(sym, 5)) is None, sym
    for sym in (
        ((1, 1), (7, 7)),
        ((1, 1, 1), (23, 7, 7)),
        ((1, 1, 1), (8, 8, 1)),
        ((2, 1), (7, 8)),
        ((2, 1, 1), (23, 23, 7)),
        ((2, 1), (0, 7)),
        ((1, 1), (23, 23)),
        ((1, 1, 1), (23, 8, 7)),
        ((1,), (23,)),
        ((), ()),
    ):
        assert _operator(pad_class(sym, 5)) is not None, sym


# ---------------------------------------------------------------------------
# classes of cycle type (2, 1^k) with distinct H^2 labels and of cycle type
# (1^n) with one doubled H^2 label, against the creation path


def _degree2_move_factors(n):
    """Every padded class labelled in PALETTE of cycle type (2, 1^k) whose
    H^2 labels are pairwise distinct, or of cycle type (1^n) with exactly one
    H^2 label twice, but not ([2],[0]): each takes _mult_two_cycle or
    _mult_doubled."""
    from k3hilb.qin_wang import _operator

    out = []
    for d in range(0, 4 * n + 1, 2):
        for sym in hilb_base(n, d):
            parts, labels = sym
            h2 = [l for l in labels if 0 < l < 23]
            twice = len(h2) - len(set(h2))
            if set(parts) - {1} == ({2} if parts.count(2) == 1 else set()) and set(labels) <= PALETTE:
                if (parts[0] == 2 and not twice and any(labels)) or (parts[0] == 1 and twice == 1):
                    assert _operator(sym) is not None, sym
                    out.append(sym)
    return out


def _assert_degree2_moves_match_creation_path(n, classes):
    from k3hilb.qin_wang import _operator

    for f in _degree2_move_factors(n):
        act = _operator(f)
        for sym in classes:
            assert act(sym) == oracles.cup_by_creation([f, sym], n), (f, sym)


def test_degree2_moves_match_creation_path_on_bases():
    # every factor labelled in PALETTE times every basis class at n = 2; at
    # n = 1 there is none
    assert _degree2_move_factors(1) == []
    _assert_degree2_moves_match_creation_path(2, [s for d in range(9) for s in hilb_base(2, d)])


def test_degree2_moves_match_creation_path_on_palette_hilb3():
    # at n = 3 the classes labelled in PALETTE, against 99 factors
    classes = [s for d in range(13) for s in hilb_base(3, d) if set(s[1]) <= PALETTE]
    _assert_degree2_moves_match_creation_path(3, classes)


def _random_degree2_move_factor(rng, n):
    """A padded (2, 1^k) class with distinct H^2 labels or a padded (1^n)
    class with one doubled H^2 label, with labels that pair (B != 0), points
    on the 1-cycles, and the unit, an H^2 label or the point on the 2-cycle."""
    h2 = rng.sample((1, 2, 3, 7, 8, 9, 12, 15), rng.randint(0, min(3, n - 2)))
    points = [23] * rng.randint(0, n - 2 - len(h2))
    if rng.random() < 0.5:
        gamma = rng.choice([0, 23] + [g for g in (1, 2, 7, 8) if g not in h2])
        return pad_class(c((2,) + (1,) * (len(h2) + len(points)), [gamma] + h2 + points), n)
    alpha = rng.choice([a for a in (1, 2, 7, 8, 12) if a not in h2])
    return pad_class(c((1,) * (2 + len(h2) + len(points)), [alpha] * 2 + h2 + points), n)


def test_degree2_moves_match_creation_path_random():
    from k3hilb.qin_wang import _operator

    rng = random.Random(67)
    kinds = set()
    for _ in range(200):
        n = rng.randint(4, 6)
        f = _random_degree2_move_factor(rng, n)
        sym = pad_class(_random_symbol(rng, n), n)
        assert _operator(f)(sym) == oracles.cup_by_creation([f, sym], n), (f, sym)
        kinds.add((f[0][0], f[1][0] if f[0][0] == 2 else 1))
    assert kinds >= {(2, 0), (2, 1), (2, 23), (1, 1)}, kinds


def _mutation_caught(n, factors):
    """Whether some factor times some class at n differs from the creation
    path or fails an exact division; the classes are those labelled 0, 1, 2,
    7, 8 and 23."""
    classes = [s for d in range(0, 4 * n + 1, 2) for s in hilb_base(n, d) if set(s[1]) <= {0, 1, 2, 7, 8, 23}]

    def differs(f, sym):
        try:
            return cup_int(f, sym, n) != oracles.cup_by_creation([f, sym], n)
        except NonIntegralError:
            return True

    return any(differs(f, sym) for f in factors for sym in classes)


def test_degree2_moves_mutations_are_caught(monkeypatch):
    from k3hilb import qin_wang

    two_cycles = [((2, 1), (0, 7)), ((2, 1), (1, 2)), ((2, 1, 1), (7, 8, 23))]
    doubled = [((1, 1), (7, 7)), ((1, 1, 1), (8, 7, 7))]
    real_boundary, real_two_cycle, real_doubled = (
        qin_wang._mult_boundary,
        qin_wang._mult_two_cycle,
        qin_wang._mult_doubled,
    )
    assert not _mutation_caught(3, two_cycles + doubled)

    def halved(sym, gamma=0):  # halving for an H^2 label gamma too
        out = real_boundary(sym, gamma)
        return out if gamma in (0, 23) else {t: Fraction(v, 2) for t, v in out.items()}

    monkeypatch.setattr(qin_wang, "_mult_boundary", halved)
    assert _mutation_caught(3, two_cycles[1:])
    monkeypatch.undo()

    depth = [0]

    def doubled_correction(gamma, labels, sym):  # the recursion's terms twice
        depth[0] += 1
        try:
            out = real_two_cycle(gamma, labels, sym)
        finally:
            depth[0] -= 1
        return {t: 2 * v for t, v in out.items()} if depth[0] else out

    monkeypatch.setattr(qin_wang, "_mult_two_cycle", doubled_correction)
    assert _mutation_caught(3, two_cycles)
    monkeypatch.undo()

    monkeypatch.setattr(qin_wang, "_mult_doubled", lambda *a: {t: 2 * v for t, v in real_doubled(*a).items()})
    assert _mutation_caught(3, doubled)


def test_degree2_moves_take_no_creation_product(monkeypatch):
    # products of two (2, 1^6) classes, of two (1^8) classes with a doubled
    # H^2 label, and of a (2, 2, 1^4) class with one, at n = 8: at most one
    # factor is not an operator, so no product reaches mult_an
    from k3hilb import qin_wang

    pairs = [
        (((2, 1, 1, 1), (0, 20, 17, 9)), ((2,), (16,))),
        (((2, 2), (19, 16)), ((1, 1, 1, 1), (17, 5, 5, 3))),
        (((2, 1, 1), (5, 21, 20)), ((2, 1, 1), (12, 21, 7))),
        (((1, 1, 1, 1), (22, 19, 9, 9)), ((1, 1, 1), (20, 19, 19))),
        (((2,), (14,)), ((2, 1), (11, 23))),
        (((2, 1, 1), (0, 21, 19)), ((2, 1, 1), (0, 17, 14))),
        (((2,), (19,)), ((2, 1, 1), (8, 18, 11))),
    ]
    calls = []
    monkeypatch.setattr(qin_wang, "mult_an", lambda *a, **k: calls.append(a))
    products = [cup_int(a, b, 8) for a, b in pairs]
    assert calls == [] and all(products)


@pytest.mark.parametrize("n", (1, 2, 3))
def test_mult_divisor_by_the_point_matches_creation_path(n):
    # ([1],[pt]): the unit parts move to the point, nothing else moves
    from k3hilb.qin_wang import _mult_divisor

    for d in range(0, 4 * n + 1, 2):
        for sym in hilb_base(n, d):
            want = oracles.cup_by_creation([((1,), (23,)), sym], n)
            assert _mult_divisor(23, sym) == want, sym
