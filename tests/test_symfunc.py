from fractions import Fraction
from math import factorial, prod

import pytest

from k3hilb.partitions import part_of_weight, part_z
from k3hilb import symfunc
from k3hilb.symfunc import psi, psi_inv
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


@pytest.mark.parametrize("w", range(1, 11))
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


@pytest.mark.parametrize("w", range(1, 11))
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


@pytest.mark.parametrize("w", range(0, 9))
def test_psi_inv_matches_moebius_sums(w):
    for mu in part_of_weight(w):
        for lam in part_of_weight(w):
            assert psi_inv(mu, lam) == oracles.psi_inv_by_moebius(mu, lam), (mu, lam)


def test_psi_diagonal_is_product_of_multiplicity_factorials():
    for w in range(1, 11):
        for mu in part_of_weight(w):
            assert psi(mu, mu) == prod(factorial(mu.count(p)) for p in set(mu))


@pytest.mark.parametrize(
    "block",
    [
        ((1, 1), (1, 2)),  # nonzero above the diagonal
        ((2, 0), (1, 1)),  # -1 / 2 in row 1
        ((1, 0, 0), (0, 2, 0), (0, 3, 2)),  # -3 / 2 in row 2
    ],
)
def test_scaled_inverse_certificates_raise(block):
    with pytest.raises(ArithmeticError):
        symfunc._scaled_inverse(block)
