"""Acceptance gate: every criterion as a dedicated test at exact tolerance.

Each test prints one PASS/FAIL line (visible with `pytest -s` or on failure).
The stretch-tier criteria carry the `stretch` marker and are excluded from
default runs; select them with `-m stretch`.  The sym3 cokernels at n = 3, 4,
the h2xh4 cokernels at n = 3, 4 and the middle lattice at n = 3 keep their
`stretch` names but run in the default tier, now that each takes seconds.
"""

import random
from fractions import Fraction

import pytest

from k3hilb import analysis, k3, zlinalg
from k3hilb.hilb_basis import canonical_class, deg, hilb_base, pad_class, reduce_class
from k3hilb.lehn_sorger import canonical_term, common_orbits, mult_sn
from k3hilb.partitions import part_of_weight
from k3hilb.qin_wang import cup_int, cup_int_list, cup_universal, int_to_crea, crea_to_int
from k3hilb.symfunc import psi, psi_inv
import oracles

c = canonical_class


def _report(name, ok):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")


class _Gate:
    def __init__(self, name):
        self.name = name
        self.ok = False

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        _report(self.name, exc_type is None)
        return False


def test_criterion_1_golden_transcripts():
    with _Gate("1 golden transcripts"):
        got = cup_int(
            c((2, 2, 1, 1), (0, 0, 0, 0)), c((2, 1, 1, 1, 1), (1, 0, 0, 0, 0)), 6
        )
        assert got == {
            c((2, 1, 1, 1, 1), (0, 23, 1, 0, 0)): -2,
            c((2, 2, 2), (1, 0, 0)): 1,
            c((3, 2, 1), (1, 0, 0)): 2,
            c((4, 1, 1), (1, 0, 0)): 1,
        }
        got = cup_int(c((2, 1, 1), (1, 0, 0)), c((1, 1, 1, 1), (1, 0, 0, 0)), 4)
        assert got == {c((2, 1, 1), (1, 1, 0)): 1, c((3, 1), (1, 0)): 1}
        got = cup_int(c((2, 1, 1), (0, 0, 0)), c((2, 1, 1), (0, 0, 0)), 4)
        assert got[c((1, 1, 1, 1), (23, 0, 0, 0))] == -3
        got = cup_int(c((2, 2, 1), (0, 0, 0)), c((2, 2, 1), (0, 0, 0)), 5)
        assert got[c((1, 1, 1, 1, 1), (23, 23, 0, 0, 0))] == 3


def test_criterion_2_universal_polynomials():
    with _Gate("2 universal polynomials"):
        by_target = {u.target: u for u in cup_universal(c((2,), (0,)), c((2,), (0,)))}
        assert by_target[c((1,), (23,))].poly == (Fraction(1), Fraction(-1))
        by_target = {
            u.target: u for u in cup_universal(c((2, 2), (0, 0)), c((2, 2), (0, 0)))
        }
        poly = by_target[c((1, 1), (23, 23))].poly
        assert poly == (Fraction(3), Fraction(-5, 2), Fraction(1, 2))


def test_criterion_3_hyperbolic_squares():
    with _Gate("3 hyperbolic squares"):
        for k in (0, 1):
            lam = c((1,) * (2 + k), (1, 2) + (23,) * k)
            target = c((1,) * (2 * k + 2), (23,) * (2 * k + 2))
            for n in (2 * k + 2, 2 * k + 3):
                got = cup_int(lam, lam, n)
                assert got[pad_class(target, n)] == 1


def test_criterion_4_betti_ranks():
    with _Gate("4 betti ranks"):
        for n in (2, 3, 4, 5):
            assert len(hilb_base(n, 2)) == 23
        assert [len(hilb_base(n, 4)) for n in (2, 3, 4, 5)] == [276, 299, 300, 300]
        assert [len(hilb_base(n, 6)) for n in (2, 3, 4, 5, 6, 7)] == [
            23,
            2554,
            2852,
            2875,
            2876,
            2876,
        ]


def test_criterion_5_cokernels_required_tier():
    with _Gate("5 cokernels (required tier)"):
        r = analysis.cokernel_report(2, "sym2")
        assert r.cokernel.torsion == (2,) * 22 + (10,)
        assert r.cokernel.free_rank == 0

        r = analysis.cokernel_report(3, "sym2", check_generators=True)
        assert r.cokernel.torsion == (3,)
        assert r.cokernel.free_rank == 23
        assert any(g.name == "1^(3)" and g.ok for g in r.generator_checks)

        r = analysis.cokernel_report(4, "sym2")
        assert r.cokernel.torsion == () and r.cokernel.free_rank == 24

        r = analysis.cokernel_report(2, "sym3", check_generators=True)
        assert r.cokernel.torsion == (2,) and r.cokernel.free_rank == 0
        assert any(g.name == "x^(2)" and g.ok for g in r.generator_checks)


def test_criterion_6_cokernels_stretch_sym3_hilb3():
    with _Gate("6 stretch cokernel sym3 n=3"):
        r = analysis.cokernel_report(3, "sym3")
        assert r.cokernel.torsion == (2,) * 230 + (36,) * 22 + (72,)
        assert r.cokernel.free_rank == 254


def test_criterion_6_cokernels_stretch_sym3_hilb4():
    with _Gate("6 stretch cokernel sym3 n=4"):
        r = analysis.cokernel_report(4, "sym3")
        assert r.cokernel.torsion == (2,)
        assert r.cokernel.free_rank == 552


@pytest.mark.parametrize(
    "n,torsion,free",
    [
        (3, (3,) * 23, 0),
        (4, (2,) + (6,) * 22 + (108,), 0),
        pytest.param(5, (), 23, marks=pytest.mark.stretch),
    ],
)
def test_criterion_6_cokernels_stretch_mixed(n, torsion, free):
    with _Gate(f"6 stretch cokernel h2xh4 n={n}"):
        r = analysis.cokernel_report(n, "h2xh4", check_generators=True)
        assert r.cokernel.torsion == torsion
        assert r.cokernel.free_rank == free
        assert all(g.ok for g in r.generator_checks)


def test_criterion_7_middle_lattice_hilb2():
    with _Gate("7 middle lattice n=2"):
        report = analysis.middle_lattice(2, check_unimodular=True)
        assert report.rank == 276
        assert report.parity == "odd"
        assert report.signature == 156
        assert report.unimodular is True


def test_criterion_7_middle_lattice_hilb3_stretch():
    with _Gate("7 middle lattice n=3 (stretch)"):
        report = analysis.middle_lattice(3)
        assert (report.rank, report.parity, report.signature) == (2554, "even", -1152)


def test_criterion_7_middle_lattice_hilb3_unimodular():
    with _Gate("7 middle lattice n=3, unimodular"):
        report = analysis.middle_lattice(3, check_unimodular=True)
        assert (report.rank, report.parity, report.signature) == (2554, "even", -1152)
        assert report.unimodular is True


def test_criterion_8_bns_signature():
    with _Gate("8 bns signature"):
        assert analysis.bns_form_signature() == 17


def test_criterion_9_psi_identity_and_oracle():
    with _Gate("9 psi blocks"):
        for w in range(1, 9):
            basis = part_of_weight(w)
            for nu in basis:
                for mu in basis:
                    total = sum(psi_inv(nu, rho) * psi(rho, mu) for rho in basis)
                    assert total == (1 if nu == mu else 0)
        for w in range(1, 7):
            for lam in part_of_weight(w):
                for mu in part_of_weight(w):
                    assert psi(lam, mu) == oracles.psi_by_expansion(lam, mu)


def test_criterion_9_comultiplication_adjointness():
    with _Gate("9 comultiplication adjointness"):
        for a in k3.INDICES:
            lhs = {}
            for (i, j), w in oracles.coprod_n(2, a).items():
                for b in k3.INDICES:
                    bib = k3.bil(i, b)
                    if not bib:
                        continue
                    for cc in k3.INDICES:
                        bjc = k3.bil(j, cc)
                        if bjc:
                            lhs[(b, cc)] = lhs.get((b, cc), 0) + w * bib * bjc
            for b in k3.INDICES:
                for cc in k3.INDICES:
                    rhs = -sum(
                        v * k3.bil(a, m) for m, v in k3.cup_list([b, cc]).items()
                    )
                    assert lhs.get((b, cc), 0) == rhs


def test_criterion_9_euler_class_composite():
    # composing cup after comult sends the unit to the Euler class e.  Under
    # the sign-twisted adjoint checked above, e = -24*x; the products must use
    # this same e once per unit of graph defect, or they are not associative
    # (see test_qin_wang.test_cup_int_associative_on_graph_defect_triple).
    with _Gate("9 euler class from the composite"):
        acc = {}
        for (i, j), w in oracles.coprod_n(2, k3.UNIT).items():
            for m, v in k3.cup_list([i, j]).items():
                acc[m] = acc.get(m, 0) + w * v
        composite = {m: v for m, v in acc.items() if v}
        assert composite == {k3.POINT: -24}
        # the square of a unit-labeled 3-cycle has one orbit of graph defect
        # g = 1, so it is the composite placed on the squared cycle
        cycle = canonical_term([((0, 1, 2), k3.UNIT)])
        square = {
            canonical_term([((0, 2, 1), m)]): v for m, v in composite.items()
        }
        assert mult_sn(cycle, cycle) == square


def test_criterion_9_graph_defect():
    with _Gate("9 graph defect"):
        rng = random.Random(2)
        for _ in range(300):
            n = rng.randint(1, 7)
            p = tuple(rng.sample(range(n), n))
            t = tuple(rng.sample(range(n), n))
            for orbit in common_orbits(p, t):
                g = oracles.graph_defect(p, t, orbit)
                assert isinstance(g, int) and g >= 0


def test_criterion_9_cup_ring_axioms_sampled():
    with _Gate("9 ring axioms"):
        rng = random.Random(3)

        def cup_vec(vec, sym, n):
            out = {}
            for a, va in vec.items():
                for s, w in cup_int(a, sym, n).items():
                    out[s] = out.get(s, 0) + va * w
            return {s: v for s, v in out.items() if v}

        for n in (2, 3, 4):
            pool = list(hilb_base(n, 2)) + list(hilb_base(n, 4))
            for _ in range(4):
                a, b = rng.choice(pool), rng.choice(pool)
                ab = cup_int(a, b, n)
                assert ab == cup_int(b, a, n)
                for sym in ab:
                    assert deg(sym) == deg(a) + deg(b)
            for _ in range(3):
                a, b, d = (rng.choice(pool) for _ in range(3))
                assert cup_vec(cup_int(a, b, n), d, n) == cup_vec(
                    cup_int(b, d, n), a, n
                )


def test_criterion_9_base_change_round_trip():
    with _Gate("9 base-change round trip"):
        for n in (1, 2, 3):
            for d in range(0, 4 * n + 1, 2):
                for sym in hilb_base(n, d):
                    acc = {}
                    for mid, v in int_to_crea(sym, n).items():
                        for back, w in crea_to_int(mid, n).items():
                            acc[back] = acc.get(back, 0) + v * w
                    assert {s: x for s, x in acc.items() if x} == {sym: 1}


def test_criterion_9_snf_properties():
    with _Gate("9 snf properties"):
        rng = random.Random(4)
        for _ in range(30):
            m, n = rng.randint(1, 7), rng.randint(1, 7)
            mat = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
            factors, u = zlinalg.smith_normal_form(mat, transforms=True)
            oracles.assert_smith_factors(mat, factors)
            oracles.assert_smith_row_transform(mat, factors, u)


def test_criterion_9_verbitsky_injectivity():
    with _Gate("9 verbitsky full column rank"):
        for n, k in ((2, 2), (3, 2), (3, 3)):
            assert oracles.has_full_column_rank(analysis.sym_power_matrix(n, k))


def test_criterion_9_denes_coefficients():
    with _Gate("9 denes coefficients"):
        one2 = c((2,), (0,))
        for k in (2, 3, 4):
            n = k + 2
            prod = cup_int_list([one2] * k, n)
            head = c((k + 1,) + (1,) * (n - k - 1), (0,) * (n - k))
            tail = c((k, 2) + (1,) * (n - k - 2), (0,) * (n - k))
            assert prod[head] == (k + 1) ** (k - 1)
            assert prod[tail] == k ** (k - 1)
