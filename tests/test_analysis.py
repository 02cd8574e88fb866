import random
from itertools import combinations_with_replacement, permutations, product

import pytest

from k3hilb import analysis, k3, qin_wang, zlinalg
from k3hilb.analysis import (
    bns_form_signature,
    class_K,
    class_alpha_generator,
    class_one_power,
    class_vector,
    class_x_power,
    cokernel_report,
    middle_lattice,
    mixed_matrix,
    sym_power_matrix,
    top_class,
)
from k3hilb.hilb_basis import canonical_class, hilb_base
from k3hilb.lehn_sorger import mult_an
from k3hilb.qin_wang import cup_int, cup_int_list
import oracles
from oracles import integrate, verify_quotient_generator

c = canonical_class


def test_integrate():
    assert integrate(3, {top_class(3): 5}) == 5
    assert integrate(2, {top_class(2): -7}) == -7
    assert integrate(2, {}) == 0
    with pytest.raises(ValueError):
        integrate(2, {c((1, 1), (1, 0)): 1})  # degree 2, not top


def test_sym_power_matrix_shapes():
    m22 = sym_power_matrix(2, 2)
    assert len(m22) == 276 and len(m22[0]) == 276
    m32 = sym_power_matrix(3, 2)
    assert len(m32) == 299 and len(m32[0]) == 276
    m23 = sym_power_matrix(2, 3)
    assert len(m23) == 23 and len(m23[0]) == 2300


def test_verbitsky_full_column_rank():
    for n, k in ((2, 2), (3, 2), (4, 2)):
        assert oracles.has_full_column_rank(sym_power_matrix(n, k))


def test_sym2_cokernels_required():
    r2 = cokernel_report(2, "sym2")
    assert r2.cokernel.torsion == (2,) * 22 + (10,)  # (Z/2)^23 + Z/5
    assert r2.cokernel.free_rank == 0
    r3 = cokernel_report(3, "sym2", check_generators=True)
    assert r3.cokernel.torsion == (3,)
    assert r3.cokernel.free_rank == 23
    assert all(g.ok for g in r3.generator_checks)
    r4 = cokernel_report(4, "sym2")
    assert r4.cokernel.torsion == ()
    assert r4.cokernel.free_rank == 24


def test_sym3_cokernel_hilb2():
    r = cokernel_report(2, "sym3", check_generators=True)
    assert r.cokernel.torsion == (2,)
    assert r.cokernel.free_rank == 0
    assert r.generator_checks[0].name == "x^(2)"
    assert r.generator_checks[0].ok


def test_freeness_n4_k2():
    # the degree-4 quotient is torsion-free once n is large enough
    assert cokernel_report(4, "sym2").cokernel.torsion == ()


def test_generator_helpers():
    assert class_one_power(3) == {c((3,), (0,)): 1}
    assert class_x_power(2) == {c((2,), (23,)): 1}
    gen = class_alpha_generator(5)
    assert gen[c((1, 1, 1), (5, 5, 5))] == 1
    assert gen[c((2, 2, 1), (0, 0, 5))] == 6
    with pytest.raises(ValueError):
        class_alpha_generator(0)


def test_class_K_is_integral_and_has_expected_support():
    K = class_K()
    assert K[c((2,), (23,))] == 1
    assert K[c((2, 1), (0, 23))] == -1
    # hyperbolic pair contributions: off-diagonal pairing 1 gives coefficient 3
    assert K[c((2, 1, 1), (0, 1, 2))] == 3
    # all coefficients are integers by construction
    assert all(isinstance(v, int) for v in K.values())


def test_class_vector_drops_overweight():
    vec = class_vector({c((2, 2), (0, 0)): 7, c((2,), (23,)): 1}, 3, 6)
    basis = hilb_base(3, 6)
    assert vec[basis.index(((2, 1), (23, 0)))] == 1
    assert sum(abs(x) for x in vec) == 1  # the weight-4 symbol vanished at n=3


def test_verify_quotient_generator_known_cases():
    m3 = sym_power_matrix(3, 2)
    assert verify_quotient_generator(3, class_one_power(3), m3, 3, 4)
    assert not verify_quotient_generator(3, class_one_power(3), m3, 5, 4)
    m23 = sym_power_matrix(2, 3)
    assert verify_quotient_generator(2, class_x_power(2), m23, 2, 6)


def test_middle_lattice_hilb2():
    report = middle_lattice(2, check_unimodular=True)
    assert report.rank == 276
    assert report.parity == "odd"
    assert report.signature == 156
    assert report.unimodular is True


@pytest.mark.parametrize("n", [2, 3])
def test_creation_gram_closed_form_equals_products(n):
    assert analysis.creation_gram(n) == oracles.creation_gram_by_products(n)


@pytest.mark.parametrize("n, count", [(4, 300), (5, 120)])
def test_creation_pairing_sampled_entries_match_products(n, count):
    basis = hilb_base(n, 2 * n)
    top = top_class(n)
    rng = random.Random(20261020 + n)
    for k in range(count):
        p = rng.choice(basis)
        if k % 2:
            # on p's Nakajima support: a nonzero K3 partner for every label
            partners = [[m for m in k3.INDICES if k3.bil(l, m)] for l in p[1]]
            q = c(p[0], [rng.choice(ms) for ms in partners])
        else:
            q = rng.choice(basis)
        for a, b in ((p, q), (q, p)):
            assert analysis.creation_pairing(a).get(b, 0) == mult_an(a, b, n).get(top, 0), (a, b)


def test_middle_gram_equals_all_pairs_products_hilb2():
    g = analysis.middle_gram_matrix(2)
    assert g == oracles.direct_middle_gram(2)
    # Sylvester: the creation pairing is congruent to g over Q
    assert oracles.block_signature(analysis.creation_gram(2)) == zlinalg.signature(g) == 156


def _goettsche_soergel_signatures(nmax):
    """sigma(K3^[n]) for n <= nmax from prod_k (1 + t^k)^-4 (1 - t^k)^-20, t = -q.

    The Hirzebruch signature theorem with the chi_y genus of Hilbert schemes
    of points (Goettsche and Soergel, Math. Ann. 296, 1993).
    """
    c = [1] + [0] * nmax
    for k in range(1, nmax + 1):
        # dividing by 1 + t^k four times and by 1 - t^k twenty times
        for sign, times in ((-1, 4), (1, 20)):
            for _ in range(times):
                for i in range(k, nmax + 1):
                    c[i] += sign * c[i - k]
    return [(-1) ** n * x for n, x in enumerate(c)]


def test_middle_lattice_signature_is_goettsche_soergel():
    series = _goettsche_soergel_signatures(6)
    assert series == [1, -16, 156, -1152, 7082, -38016, 183592]
    for n in (1, 2, 3, 4, 5):
        assert middle_lattice(n).signature == series[n]


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_middle_lattice_equals_full_gram_path(n):
    # the orthogonal summands against one elimination of the whole G_int
    g = analysis._integral_gram(analysis.creation_gram(n), hilb_base(n, 2 * n))
    sig, det = zlinalg.form_invariants(g)
    parity = "odd" if any(row.get(i, 0) % 2 for i, row in enumerate(g)) else "even"
    assert middle_lattice(n, check_unimodular=True) == (n, len(g), parity, sig, abs(det) == 1)


def _u_p_h(sym):
    """A symbol's unit parts, point parts and H^2-labelled pairs."""
    pairs = list(zip(*sym))
    parts = [tuple(p for p, l in pairs if l == label) for label in (k3.UNIT, k3.POINT)]
    rest = [(p, l) for p, l in pairs if l not in (k3.UNIT, k3.POINT)]
    return (*parts, (tuple(p for p, _ in rest), tuple(l for _, l in rest)))


def test_middle_gram_pairs_u_p_h_only_with_p_u_h_hilb3():
    # (U, P, H) pairs only with (P, U, H'), to eps(U) eps(P) <H, H'>
    def eps(mu):
        return (-1) ** (sum(mu) - len(mu))

    basis = hilb_base(3, 6)
    g = analysis._integral_gram(analysis.creation_gram(3), basis)
    f = {}
    for w in range(4):
        sub = [s for s in hilb_base(w, 2 * w) if k3.UNIT not in s[1] and k3.POINT not in s[1]]
        rows = analysis._integral_gram(analysis._creation_rows(sub), sub)
        f.update({(sub[i], sub[j]): v for i, row in enumerate(rows) for j, v in row.items()})
    by_u_p = {}
    for u, p, h in map(_u_p_h, basis):
        by_u_p.setdefault((u, p), []).append(h)
    for a, row in enumerate(g):
        u, p, h = _u_p_h(basis[a])
        assert len(u) == len(p)
        assert len(row) == sum((h, h2) in f for h2 in by_u_p.get((p, u), ())), basis[a]
        for b, v in row.items():
            u2, p2, h2 = _u_p_h(basis[b])
            assert (u2, p2) == (p, u), (basis[a], basis[b])
            assert v == eps(u) * eps(p) * f[h, h2], (basis[a], basis[b])


@pytest.mark.parametrize("w", range(5))
def test_summand_forms_unimodular_and_e8_definite(w):
    def rank(labels):
        return sum(set(s[1]) <= set(labels) for s in hilb_base(w, 2 * w))

    assert analysis._summand_invariants(analysis._HYPERBOLIC, w)[2] == 1
    sig, _, det = analysis._summand_invariants(analysis._E8, w)
    assert det == 1
    # -E8 is negative definite and a part of size k carries the sign (-1)^(k-1)
    assert sig == (-1) ** w * rank(analysis._E8)


@pytest.mark.parametrize("labels", [analysis._HYPERBOLIC, analysis._E8])
def test_summand_symbols_are_the_filtered_basis(labels):
    for w in range(6):
        symbols = analysis._summand_symbols(labels, w)
        filtered = [s for s in hilb_base(w, 2 * w) if set(s[1]) <= set(labels)]
        assert len(set(symbols)) == len(symbols) == len(filtered), w
        assert set(symbols) == set(filtered), w


def _eliminated_summand_invariants(labels, w):
    """(signature, odd, |det|) of the integral Gram on the weight-w symbols
    labelled in `labels`, built whole from the restricted creation pairing
    and eliminated."""
    basis = [s for s in hilb_base(w, 2 * w) if set(s[1]) <= set(labels)]
    index = {s: i for i, s in enumerate(basis)}
    gc = [
        {index[q]: v for q, v in analysis.creation_pairing(p).items() if q in index}
        for p in basis
    ]
    g = analysis._integral_gram(gc, basis)
    sig, det = zlinalg.form_invariants(g)
    return sig, any(row.get(i, 0) % 2 for i, row in enumerate(g)), abs(det)


@pytest.mark.parametrize(
    "labels",
    [(7,), (7, 8), (7, 8, 9), (7, 9), (1, 2, 7), analysis._HYPERBOLIC, analysis._E8],
)
def test_summand_invariants_equal_elimination(labels):
    # B is not unimodular on the first five label sets, so the power of
    # |det B_S| counts as well; the largest Gram, E8 at w = 4, has 726 rows
    for w in range(5):
        expected = _eliminated_summand_invariants(labels, w)
        assert analysis._summand_invariants(labels, w) == expected, w


def test_summand_determinants_off_the_unimodular_summands():
    assert [analysis._summand_invariants((7,), w)[2] for w in range(1, 5)] == [2, 8, 64, 4096]
    dets = [analysis._summand_invariants((7, 8), w)[2] for w in range(1, 5)]
    assert dets == [3, 81, 3**11, 3**27]
    with pytest.raises(ValueError):
        analysis._summand_invariants((1,), 2)  # B(1, 1) = 0


@pytest.mark.parametrize("labels", [analysis._HYPERBOLIC, analysis._E8])
def test_middle_lattice_reads_every_summand_determinant(labels, monkeypatch):
    real = analysis._summand_invariants

    def doubled(summand, w):
        sig, odd, det = real(summand, w)
        return sig, odd, 2 * det if (summand, w) == (labels, 2) else det

    monkeypatch.setattr(analysis, "_summand_invariants", doubled)
    assert middle_lattice(1, check_unimodular=True).unimodular is True
    assert middle_lattice(2, check_unimodular=True).unimodular is False
    assert middle_lattice(2).unimodular is None


@pytest.mark.parametrize("n", [2, 3])
def test_middle_lattice_signature_sylvester(n):
    # the creation pairing is congruent to G_int over Q; a Fraction elimination
    # of its blocks is independent of the integral kernel
    assert oracles.block_signature(analysis.creation_gram(n)) == middle_lattice(n).signature


def test_unimodular_determinant_agrees_with_smith_form_hilb2():
    def det(g):
        return zlinalg.form_invariants([{j: x for j, x in enumerate(row) if x} for row in g])[1]

    g = analysis.middle_gram_matrix(2)
    assert oracles.is_unimodular_gram(g)
    assert abs(det(g)) == 1
    assert middle_lattice(2, check_unimodular=True).unimodular is True
    # one changed symmetric off-diagonal pair: both paths see a non-unimodular form
    i, j = next((i, j) for i, row in enumerate(g) for j, x in enumerate(row) if x and i < j)
    g[i][j] += 1
    g[j][i] += 1
    assert abs(det(g)) != 1
    assert not oracles.is_unimodular_gram(g)


def test_middle_gram_rejects_non_integral_pairing():
    gc = analysis.creation_gram(2)
    k = hilb_base(2, 4).index(c((2,), (1,)))
    gc[k][k] = gc[k].get(k, 0) + 1
    with pytest.raises(ArithmeticError):
        analysis._integral_gram(gc, hilb_base(2, 4))


def _on_nakajima_support(p, q):
    """Same partition, and a part-preserving matching of nonzero label pairings."""
    if p[0] != q[0]:
        return False
    return any(
        all(p[0][i] == q[0][j] and k3.bil(p[1][i], q[1][j]) for i, j in enumerate(perm))
        for perm in permutations(range(len(p[0])))
    )


def test_middle_gram_hilb3_sampled_entries_match_products():
    basis = hilb_base(3, 6)
    g = analysis.middle_gram_matrix(3)
    nonzero = [(i, j) for i, row in enumerate(g) for j, x in enumerate(row) if x]
    rng = random.Random(20261018)
    pairs = rng.sample(nonzero, 200)
    pairs += [(rng.randrange(len(basis)), rng.randrange(len(basis))) for _ in range(200)]
    for i, j in pairs:
        assert g[i][j] == integrate(3, cup_int(basis[i], basis[j], 3)), (basis[i], basis[j])


def test_creation_pairing_vanishes_off_support_hilb3():
    basis = hilb_base(3, 6)
    top = top_class(3)
    rng = random.Random(20261019)
    by_parts = {}
    for sym in basis:
        by_parts.setdefault(sym[0], []).append(sym)
    checked = 0
    while checked < 400:
        p = rng.choice(basis)
        # half the pairs share p's partition, where only the labels decide
        q = rng.choice(by_parts[p[0]] if checked % 2 else basis)
        if _on_nakajima_support(p, q):
            continue
        assert mult_an(p, q, 3).get(top, 0) == 0, (p, q)
        checked += 1


def test_gram_symmetric():
    g = analysis.middle_gram_matrix(2)
    assert all(g[i][j] == g[j][i] for i in range(len(g)) for j in range(len(g)))


def test_odd_witness_self_pairing():
    # the hyperbolic witness class has self-pairing one at n = 2 and 4
    for k, n in ((0, 2), (1, 4)):
        w = c((1,) * (k + 2), (1, 2) + (23,) * k)
        sq = cup_int(w, w, n)
        assert integrate(n, sq) == 1


def test_bns_signature():
    assert bns_form_signature() == 17


def test_distinct_rows_equal_dense_dedup():
    # zero, repeated and distinct sparse columns against the dense views
    rng = random.Random(41)
    rows = hilb_base(2, 4)
    for _ in range(100):
        pool = [{}] + [
            {rng.choice(rows): rng.choice((1, -1, 2, -6)) for _ in range(rng.randint(1, 4))}
            for _ in range(4)
        ]
        cols = [dict(rng.choice(pool)) for _ in range(rng.randint(0, 12))]
        dense = zlinalg.dedup_columns(analysis._assemble(rows, cols))
        assert analysis._distinct_rows(rows, cols) == [
            {j: x for j, x in enumerate(row) if x} for row in dense
        ]


def _domain(n, kind):
    """The factor tuples of a cokernel map's domain, as `cokernel_report` lists them."""
    if kind == "h2xh4":
        return list(product(hilb_base(n, 2), hilb_base(n, 4)))
    return list(combinations_with_replacement(hilb_base(n, 2), 2 if kind == "sym2" else 3))


def _assert_columns_match_s_n_kernel(n, kind, monkeypatch):
    """Every column of a cokernel map, through the integral operators (the
    divisor and boundary rules on the integral symbols), and again with
    every factor in the creation basis and every product through the S_n
    kernel, so the boundary block is never compared with itself."""
    domain = _domain(n, kind)
    closed = analysis._columns(domain, n)
    calls = []

    def kernel(a, b, n, *, canonical=False):
        calls.append(1)
        return mult_an(a, b, n, canonical=canonical)

    monkeypatch.setattr(qin_wang, "mult_an", kernel)
    assert [oracles.cup_by_creation(f, n) for f in domain] == closed
    assert len(calls) >= len(domain)  # every column went through the S_n kernel
    assert any(closed) or n == 1


@pytest.mark.parametrize("kind", analysis.MAP_KINDS)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_map_columns_match_s_n_kernel(n, kind, monkeypatch):
    _assert_columns_match_s_n_kernel(n, kind, monkeypatch)


def _assert_columns_equal_products(n, kind):
    # the composed columns, from a one-shot iterator as `sym_power_matrix`
    # passes them, against the general product of each factor tuple
    domain = _domain(n, kind)
    assert analysis._columns(iter(domain), n) == [cup_int_list(list(f), n) for f in domain]


@pytest.mark.parametrize("kind", analysis.MAP_KINDS)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_columns_equal_cup_int_list(n, kind):
    _assert_columns_equal_products(n, kind)


@pytest.mark.parametrize("kind", analysis.MAP_KINDS)
def test_columns_take_one_operator_per_head(kind, monkeypatch):
    # 23 distinct degree-2 heads at n = 3; a product per column would take
    # 552, 6,900 and 13,754 operators for sym2, sym3 and h2xh4
    calls = []

    def spy(sym):
        calls.append(sym)
        return qin_wang._operator(sym)

    monkeypatch.setattr(analysis, "_operator", spy)
    analysis._columns(_domain(3, kind), 3)
    assert len(calls) == len(set(calls)) == 23


def test_columns_mutation_is_caught(monkeypatch):
    # each head's operator applied to the head's own symbol instead of the
    # product of the tail
    real = qin_wang._operator
    monkeypatch.setattr(analysis, "_operator", lambda sym: lambda _, op=real(sym): op(sym))
    for kind in analysis.MAP_KINDS:
        with pytest.raises(AssertionError):
            _assert_columns_equal_products(3, kind)


def test_columns_reject_a_head_without_operator():
    cube = ((3,), (0,))  # the class 1^(3), of cycle type (3)
    with pytest.raises(ValueError, match="no operator"):
        analysis._columns([(cube, cube)], 3)


def test_mixed_matrix_shape():
    m = mixed_matrix(2)
    assert len(m) == 23
    assert len(m[0]) == 23 * 276


def test_sym3_free_hilb5_stretch():
    # the name is kept from the stretch tier; with the unit pass it takes seconds
    assert cokernel_report(5, "sym3").cokernel.torsion == ()


# ---------------------------------------------------------------------------
# the large verifications, named from the stretch tier; each takes seconds
# now, and only the h2xh4 cokernel at n = 5, which fails (ROADMAP item 1),
# is still run on demand


def test_sym3_cokernel_hilb3_stretch():
    r = cokernel_report(3, "sym3")
    assert r.cokernel.torsion == (2,) * 230 + (36,) * 22 + (72,)
    assert r.cokernel.free_rank == 254


def test_sym3_cokernel_hilb4_stretch():
    r = cokernel_report(4, "sym3")
    assert r.cokernel.torsion == (2,)
    assert r.cokernel.free_rank == 552


def test_mixed_cokernel_hilb3_stretch():
    r = cokernel_report(3, "h2xh4", check_generators=True)
    assert r.cokernel.torsion == (3,) * 23
    assert r.cokernel.free_rank == 0
    assert all(g.ok for g in r.generator_checks)


def test_mixed_cokernel_hilb4_stretch():
    r = cokernel_report(4, "h2xh4", check_generators=True)
    assert r.cokernel.torsion == (2,) + (6,) * 22 + (108,)
    assert r.cokernel.free_rank == 0
    assert all(g.ok for g in r.generator_checks)


@pytest.mark.stretch
def test_mixed_cokernel_hilb5_stretch():
    r = cokernel_report(5, "h2xh4", check_generators=True)
    assert r.cokernel.torsion == ()
    assert r.cokernel.free_rank == 23
    assert all(g.ok for g in r.generator_checks)


@pytest.mark.parametrize("n", [4, 5])
def test_mixed_columns_match_s_n_kernel_stretch(n, monkeypatch):
    # the h2xh4 matrices whose cokernels fail the criteria above: the closed
    # form and the S_n kernel give the same columns
    _assert_columns_match_s_n_kernel(n, "h2xh4", monkeypatch)


def test_mixed_cokernel_hilb5_takes_no_creation_product_stretch(monkeypatch):
    # every h2xh4 column at n = 5, the boundary block included, stays on the
    # integral symbols
    calls = []
    real = qin_wang.mult_an

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(qin_wang, "mult_an", counted)
    report = cokernel_report(5, "h2xh4")
    assert report.codomain_dim > 0
    assert calls == []


def test_middle_lattice_hilb3_stretch():
    report = middle_lattice(3)
    assert report.rank == 2554
    assert report.parity == "even"
    assert report.signature == -1152
