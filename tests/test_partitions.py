from math import factorial

import pytest
from hypothesis import given, strategies as st

from k3hilb.partitions import cycles_of, format_partition, part_of_weight, part_z
import oracles
from oracles import (
    as_partition,
    compose,
    cycle_type,
    identity_perm,
    parse_partition,
    part_conj,
    part_of_weight_length,
    part_permute,
    perm_from_cycles,
)


def test_part_of_weight_small():
    assert part_of_weight(0) == ((),)
    assert part_of_weight(-1) == ()
    assert part_of_weight(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    assert len(part_of_weight(10)) == 42


def test_part_of_weight_matches_pentagonal_counts():
    for w in range(13):
        assert len(part_of_weight(w)) == oracles.partition_count(w)


def test_part_of_weight_matches_brute_enumeration():
    for w in range(11):
        assert sorted(part_of_weight(w)) == sorted(oracles.brute_partitions(w))


def test_part_of_weight_length():
    assert set(part_of_weight_length(4, 2)) == {(3, 1), (2, 2)}
    for n in range(1, 7):
        assert part_of_weight_length(n, n) == ((1,) * n,)
    assert part_of_weight_length(3, 5) == ()


def test_part_z_values():
    for n in range(7):
        assert part_z((1,) * n) == factorial(n)
    assert part_z((3, 1, 1)) == 6
    assert part_z((2, 2)) == 8


@pytest.mark.parametrize("n", range(1, 8))
def test_cycle_type_counts_sum_to_group_order(n):
    # the number of permutations of cycle type lam is n!/z_lam
    total = 0
    for lam in part_of_weight(n):
        total += factorial(n) // part_z(lam)
    assert total == factorial(n)


def test_cycle_type_count_matches_enumeration():
    for n in range(1, 6):
        for lam in part_of_weight(n):
            assert oracles.perm_count_of_cycle_type(lam, n) == factorial(n) // part_z(lam)


def test_part_conj():
    assert part_conj((4,)) == (1, 1, 1, 1)
    assert part_conj((3, 1)) == (2, 1, 1)
    assert part_conj(()) == ()
    for w in range(13):
        for p in part_of_weight(w):
            assert part_conj(part_conj(p)) == p


@given(st.lists(st.integers(min_value=1, max_value=9), max_size=8))
def test_as_partition_sorts_and_round_trips(parts):
    p = as_partition(parts)
    assert list(p) == sorted(parts, reverse=True)


def test_permutation_basics():
    assert identity_perm(3) == (0, 1, 2)
    p = perm_from_cycles(5, [(0, 1, 2), (3, 4)])
    assert cycle_type(p) == (3, 2)
    assert cycle_type(identity_perm(4)) == (1, 1, 1, 1)
    q = perm_from_cycles(3, [(0, 1)])
    r = perm_from_cycles(3, [(1, 2)])
    assert compose(q, compose(q, identity_perm(3))) == identity_perm(3)
    # composition is associative
    assert compose(compose(q, r), q) == compose(q, compose(r, q))


def test_part_permute_round_trip():
    assert part_permute((2,)) == (1, 0)
    assert part_permute((1,) * 5) == identity_perm(5)
    for w in range(9):
        for lam in part_of_weight(w):
            assert cycle_type(part_permute(lam)) == lam
    orbit_sizes = sorted(len(c) for c in cycles_of(part_permute((3, 2))))
    assert orbit_sizes == [2, 3]


def test_partition_text_round_trip():
    assert format_partition((3, 2, 1)) == "[3-2-1]"
    assert format_partition(()) == "[]"
    assert parse_partition("[3-2-1]") == (3, 2, 1)
    assert parse_partition("[]") == ()
    with pytest.raises(ValueError):
        parse_partition("3-2-1")
    with pytest.raises(ValueError):
        parse_partition("[3-x]")
