from fractions import Fraction

import pytest

from k3hilb.partitions import part_of_weight, part_z
from k3hilb.symfunc import invert_lower_triangular, psi, psi_inv
import oracles
from oracles import monomial_scalar_power


def test_psi_small_values():
    assert psi((1,), (1,)) == 1
    assert psi((1, 1), (1, 1)) == 2
    assert psi((1, 1), (2,)) == 1
    assert psi((2,), (1, 1)) == 0
    assert psi((2,), (2,)) == 1
    assert psi((2,), (1,)) == 0  # weight mismatch


def test_psi_inv_small_values():
    assert psi_inv((1,), (1,)) == 1
    assert psi_inv((1, 1), (1, 1)) == Fraction(1, 2)
    assert psi_inv((1, 1), (2,)) == Fraction(-1, 2)


@pytest.mark.parametrize("w", range(1, 9))
def test_psi_psi_inv_compose_to_identity(w):
    basis = part_of_weight(w)
    for nu in basis:
        for mu in basis:
            total = sum(psi_inv(nu, rho) * psi(rho, mu) for rho in basis)
            assert total == (1 if nu == mu else 0)


@pytest.mark.parametrize("w", range(1, 7))
def test_psi_matches_polynomial_expansion(w):
    for lam in part_of_weight(w):
        for mu in part_of_weight(w):
            assert psi(lam, mu) == oracles.psi_by_expansion(lam, mu)


@pytest.mark.parametrize("w", range(1, 9))
def test_psi_triangular_in_canonical_order(w):
    basis = part_of_weight(w)
    for i, lam in enumerate(basis):
        for mu in basis[i + 1 :]:
            assert psi(lam, mu) == 0
            assert psi_inv(lam, mu) == 0


def test_monomial_scalar_power():
    assert monomial_scalar_power((1,), (1,)) == 1
    assert monomial_scalar_power((1, 1), (2,)) == -1
    assert monomial_scalar_power((2,), (1, 1)) == 0
    for w in range(1, 7):
        for mu in part_of_weight(w):
            for lam in part_of_weight(w):
                assert monomial_scalar_power(mu, lam) == psi_inv(mu, lam) * part_z(lam)


def test_psi_integrality_everywhere():
    for w in range(1, 9):
        for lam in part_of_weight(w):
            for mu in part_of_weight(w):
                assert isinstance(psi(lam, mu), int)


def test_invert_lower_triangular():
    basis = ["a", "b"]
    entries = {("a", "a"): 1, ("b", "a"): 1, ("b", "b"): 2}
    inv = invert_lower_triangular(basis, lambda x, y: entries.get((x, y), 0))
    assert inv("a", "a") == 1
    assert inv("a", "b") == 0
    assert inv("b", "a") == Fraction(-1, 2)
    assert inv("b", "b") == Fraction(1, 2)

    ident = invert_lower_triangular(basis, lambda x, y: int(x == y))
    assert ident("b", "b") == 1 and ident("b", "a") == 0

    bad = invert_lower_triangular(basis, lambda x, y: 0)
    with pytest.raises(ValueError):
        bad("a", "a")


@pytest.mark.parametrize("w", range(1, 9))
def test_invert_lower_triangular_on_weight_blocks(w):
    basis = list(part_of_weight(w))
    inv = invert_lower_triangular(basis, psi_inv)
    for nu in basis:
        for mu in basis:
            total = sum(psi_inv(nu, rho) * inv(rho, mu) for rho in basis)
            assert total == (1 if nu == mu else 0)
