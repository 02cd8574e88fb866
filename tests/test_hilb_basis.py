import time
from math import factorial

import pytest
from hypothesis import given, strategies as st

from k3hilb.hilb_basis import (
    ClassSyntaxError,
    an_sort_key,
    an_z,
    betti,
    canonical_class,
    deg,
    format_class,
    hilb_base,
    label_groups,
    pad_class,
    parse_class,
    reduce_class,
)
from k3hilb import lehn_sorger
import oracles
from oracles import check_reduced_weight_bounds, hilb_operators


@pytest.fixture
def fresh_caches():
    """Drop the large bases and operator tables a test built, once it is done."""
    yield
    hilb_base.cache_clear()
    oracles._operators.cache_clear()


def test_deg():
    assert deg(canonical_class((1,), (23,))) == 4
    assert deg(canonical_class((2, 1, 1), (0, 0, 0))) == 2
    assert deg(canonical_class((3, 3, 2, 1, 1, 1), (6, 7, 23, 2, 0, 0))) == 20
    assert deg(((), ())) == 0


def test_hilb_operators_small():
    assert hilb_operators(1, 0) == (((1, 0),),)
    ops = hilb_operators(2, 2)
    assert len(ops) == 23
    assert ((2, 0),) in ops
    for i in range(1, 23):
        assert ((1, i), (1, 0)) in ops
    assert hilb_operators(0, 0) == ((),)
    assert hilb_operators(2, 3) == ()  # odd degree
    assert hilb_operators(-1, 0) == ()


def test_total_rank_hilb2():
    total = sum(len(hilb_operators(2, d)) for d in range(0, 9, 2))
    assert total == 324


def test_hilb_base_counts_match_paper():
    assert [len(hilb_base(n, 2)) for n in (2, 3, 4, 5)] == [23, 23, 23, 23]
    assert [len(hilb_base(n, 4)) for n in (2, 3, 4, 5)] == [276, 299, 300, 300]
    assert [len(hilb_base(n, 6)) for n in (2, 3, 4, 5, 6, 7)] == [
        23,
        2554,
        2852,
        2875,
        2876,
        2876,
    ]


def test_hilb_base_counts_match_series_oracle(fresh_caches):
    series = oracles.hilb_betti_series(8)
    for n in range(4):
        degrees = sorted(series[n])
        assert degrees == sorted(
            d for d in range(0, 4 * n + 1) if len(hilb_base(n, d))
        )
        for d in degrees:
            assert len(hilb_base(n, d)) == series[n][d]
    for n in range(4, 9):
        for d in range(0, 11):
            assert len(hilb_base(n, d)) == series[n].get(d, 0)
    # the middle degrees
    assert len(hilb_base(4, 8)) == 19298
    assert len(hilb_base(5, 10)) == 125604


def test_betti_equals_basis_size():
    # the uncached enumeration, so no large basis stays in memory
    for n in range(7):
        for d in range(-2, 4 * n + 3):
            assert betti(n, d) == len(hilb_base.__wrapped__(n, d)), (n, d)


def test_betti_matches_series_oracle():
    series = oracles.hilb_betti_series(8)
    for n in range(9):
        for d in range(-2, 4 * n + 3):
            assert betti(n, d) == series[n].get(d, 0), (n, d)
    assert (betti(6, 12), betti(8, 12), betti(7, 14), betti(8, 16)) == (
        727606,
        894288,
        3834308,
        18669447,
    )


def _oracle_base(n, d):
    expected = tuple(sorted(oracles.operator_symbols(n, d), key=an_sort_key))
    oracles._operators.cache_clear()
    return expected


# (6, 12) has 727,606 symbols; the oracle's memo takes ~0.5 GiB and seconds
# there, so the default tier checks that degree by order, validity and count
# and the stretch tier compares it with the oracle
ORACLE_CASES = [
    (n, d) for n in range(7) for d in range(-2, 4 * n + 3) if (n, d) != (6, 12)
] + [(8, d) for d in (2, 4, 6, 8)]


def test_hilb_base_matches_operator_oracle(fresh_caches):
    for n, d in ORACLE_CASES:
        assert hilb_base(n, d) == _oracle_base(n, d), (n, d)
        hilb_base.cache_clear()


def test_hilb_base_middle_n6_sorted_valid_and_complete(fresh_caches):
    # strictly increasing, and all of weight 6, degree 12 and canonical: a set
    # of valid symbols as large as the whole basis is the whole basis
    basis = hilb_base(6, 12)
    assert len(basis) == oracles.hilb_betti_series(6)[6][12] == 727606
    assert all(a < b for a, b in zip(basis, basis[1:]))
    assert all(sum(parts) == 6 for parts in {s[0] for s in basis})
    for parts, labels in basis:
        assert len(parts) == len(labels) and 0 <= min(labels) and max(labels) <= 23
        pairs = list(zip(parts, labels))
        assert pairs == sorted(pairs, reverse=True)
        points = labels.count(23)
        h2 = len(labels) - labels.count(0) - points
        assert 2 * (6 - len(parts)) + 2 * h2 + 4 * points == 12


@pytest.mark.stretch
def test_hilb_base_middle_n6_matches_operator_oracle_stretch(fresh_caches):
    assert hilb_base(6, 12) == _oracle_base(6, 12)


def test_hilb_base_prunes_by_degree():
    # only the 4 shapes of 60 with n - len <= 2 are built, not all p(60)
    start = time.perf_counter()
    basis = hilb_base.__wrapped__(60, 4)
    assert time.perf_counter() - start < 0.5
    assert len(basis) == 300
    assert {s[0][:3] for s in basis} == {(1, 1, 1), (2, 1, 1), (2, 2, 1), (3, 1, 1)}


def test_hilb_base_sorted_and_canonical():
    basis = hilb_base(3, 4)
    assert list(basis) == sorted(basis, key=lambda s: (sum(s[0]), s[0], s[1]))
    for parts, labels in basis:
        assert sum(parts) == 3
        assert sorted(zip(parts, labels), reverse=True) == list(zip(parts, labels))


def test_an_z():
    assert an_z(canonical_class((1, 1), (0, 0))) == 2
    assert an_z(canonical_class((2, 1), (0, 0))) == 2
    assert an_z(canonical_class((1, 1), (1, 2))) == 1
    assert an_z(canonical_class((2, 2, 1, 1, 1), (0, 0, 0, 0, 0))) == 48


@pytest.mark.parametrize("n", range(5))
def test_an_z_is_stabilizer_order_and_label_groups_descend(n):
    # orbit-stabilizer: the distinct S_n conjugates of a symbol's model term
    # times its stabilizer order make up all of S_n
    for d in range(0, 2 * n + 1, 2):
        for sym in hilb_base(n, d):
            assert an_z(sym) * len(lehn_sorger.to_sn(sym, n)[0]) == factorial(n), sym
            groups = label_groups(sym)
            assert sorted(groups) == sorted(set(sym[1]))
            for parts in groups.values():
                assert list(parts) == sorted(parts, reverse=True), sym
            assert sorted(p for parts in groups.values() for p in parts) == sorted(sym[0])


def test_canonical_class_sorting_and_validation():
    assert canonical_class((1, 2), (5, 0)) == ((2, 1), (0, 5))
    assert canonical_class((1, 1), (0, 23)) == ((1, 1), (23, 0))
    with pytest.raises(ValueError):
        canonical_class((1, 2), (0,))
    with pytest.raises(ValueError):
        canonical_class((0, 1), (0, 0))
    with pytest.raises(ValueError):
        canonical_class((1,), (24,))


def test_pad_and_reduce():
    sym = canonical_class((2,), (0,))
    assert pad_class(sym, 4) == ((2, 1, 1), (0, 0, 0))
    assert pad_class(sym, 1) is None
    assert reduce_class(((2, 1, 1), (0, 0, 0))) == ((2,), (0,))
    assert reduce_class(((1, 1), (23, 0))) == ((1,), (23,))


def test_parse_format_golden():
    sym = parse_class("([3-3-2-1-1-1],[6,7,23,2,0,0])")
    assert sym == canonical_class((3, 3, 2, 1, 1, 1), (6, 7, 23, 2, 0, 0))
    assert parse_class("([],[])") == ((), ())
    assert parse_class("([2-1],[0,5])") == ((2, 1), (0, 5))
    assert parse_class(" ( [2-1] , [5,0] ) ") == ((2, 1), (5, 0))


def test_parse_errors_carry_position():
    with pytest.raises(ClassSyntaxError):
        parse_class("[2-1],[0,0]")
    with pytest.raises(ClassSyntaxError):
        parse_class("([2-1][0,0])")
    with pytest.raises(ClassSyntaxError):
        parse_class("([2-1],[0,x])")
    with pytest.raises(ValueError):
        parse_class("([2-1],[0])")  # length mismatch
    with pytest.raises(ValueError):
        parse_class("([2-1],[0,99])")  # label out of range


def test_parse_format_round_trip_on_bases():
    for n in range(5):
        for d in range(0, 4 * n + 1, 2):
            for sym in hilb_base(n, d):
                assert parse_class(format_class(sym)) == sym


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=23)
        ),
        max_size=6,
    )
)
def test_parse_format_round_trip_random(pairs):
    sym = canonical_class([p for p, _ in pairs], [l for _, l in pairs])
    assert parse_class(format_class(sym)) == sym


def test_reduced_weight_bounds():
    for m in range(1, 5):
        x_sym = canonical_class((1,) * m, (23,) * m)
        assert check_reduced_weight_bounds(x_sym)
        assert deg(x_sym) == 4 * m  # lower bound tight
        one_sym = canonical_class((2,) * m, (0,) * m)
        assert check_reduced_weight_bounds(one_sym)
        assert deg(one_sym) == 2 * m  # upper bound tight
    for n in range(1, 6):
        for d in range(0, 4 * n + 1, 2):
            for sym in hilb_base(n, d):
                assert check_reduced_weight_bounds(reduce_class(sym))
