"""Checkers for the benchmark's outputs, written independently of k3hilb.

Nothing here imports the program: every function takes plain data (CLI text,
integer matrices, product dictionaries) and either returns a value computed
with its own code or a list of problems (empty when the check passes).
"""

import math
import re

# rank over F_p of a large prime equals the rank over Q unless p divides every
# maximal nonzero minor
LARGE_PRIME = 1_000_000_007


# ---------------------------------------------------------------------------
# linear algebra over F_p, sparse columns


def rank_mod_p(columns, p):
    """Rank over F_p of the matrix whose columns are {row: value} maps.

    Gaussian elimination on sparse columns: each column is reduced against the
    pivots found so far (a pivot is keyed by its leading row) until it is zero
    or opens a new pivot.
    """
    pivots = {}
    for col in columns:
        vec = {r: v % p for r, v in col.items() if v % p}
        while vec:
            lead = min(vec)
            piv = pivots.get(lead)
            if piv is None:
                inv = pow(vec[lead], p - 2, p)
                pivots[lead] = {r: v * inv % p for r, v in vec.items()}
                break
            f = vec[lead]
            for r, v in piv.items():
                x = (vec.get(r, 0) - f * v) % p
                if x:
                    vec[r] = x
                else:
                    vec.pop(r, None)
    return len(pivots)


def columns_of(rows):
    """Sparse columns {row: value} of a dense list-of-rows integer matrix."""
    if not rows:
        return []
    cols = [dict() for _ in rows[0]]
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if v:
                cols[j][i] = v
    return cols


# ---------------------------------------------------------------------------
# symmetric forms


def det_exact(rows):
    """Exact determinant of a square integer matrix, by CRT over 31-bit primes.

    The Hadamard bound fixes how many primes are needed; each residue comes
    from elimination mod p in int64, where every product stays below 2^62.
    """
    n = len(rows)
    if n == 0:
        return 1
    log2_bound = sum(0.5 * math.log2(max(1, sum(x * x for x in row))) for row in rows)
    need_bits = log2_bound + 2  # sign and slack
    mod, acc, bits = 1, 0, 0.0
    p = 2_147_483_647
    while bits < need_bits:
        r = _det_mod_p(rows, p)
        # combine acc (mod mod) with r (mod p)
        t = ((r - acc) * pow(mod, -1, p)) % p
        acc += mod * t
        mod *= p
        bits += math.log2(p)
        p = _prev_prime(p)
    return acc if acc <= mod // 2 else acc - mod


def _prev_prime(p):
    q = p - 2
    while not _is_prime(q):
        q -= 2
    return q


def _is_prime(q):
    """Miller-Rabin with bases 2, 3, 5, 7: deterministic below 3.2e9."""
    if q < 11:
        return q in (2, 3, 5, 7)
    d, s = q - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, q)
        if x in (1, q - 1):
            continue
        for _ in range(s - 1):
            x = x * x % q
            if x == q - 1:
                break
        else:
            return False
    return True


def _det_mod_p(rows, p):
    import numpy as np

    m = np.array([[x % p for x in row] for row in rows], dtype=np.int64)
    n = len(rows)
    det = 1
    for c in range(n):
        nz = np.nonzero(m[c:, c])[0]
        if nz.size == 0:
            return 0
        piv = c + int(nz[0])
        if piv != c:
            m[[c, piv]] = m[[piv, c]]
            det = -det
        d = int(m[c, c])
        det = det * d % p
        inv = pow(d, p - 2, p)
        below = m[c + 1 :, c]
        hit = np.nonzero(below)[0]
        if hit.size:
            f = (below[hit] * inv) % p
            rowc = m[c, c:]
            for k, i in zip(f.tolist(), (hit + c + 1).tolist()):
                m[i, c:] = (m[i, c:] - k * rowc) % p
    return det % p


def float_signature(rows):
    """(signature, smallest |eigenvalue| / largest) from float eigenvalues."""
    import numpy as np

    ev = np.linalg.eigvalsh(np.array(rows, dtype=float))
    top = float(np.max(np.abs(ev)))
    pos = int(np.sum(ev > 0))
    neg = int(np.sum(ev < 0))
    gap = float(np.min(np.abs(ev))) / top if top else 0.0
    return pos - neg, gap


def check_gram(rows, rank, parity, signature, min_gap=1e-9):
    """Problems with a claimed (rank, parity, signature, unimodular) of a Gram matrix.

    Float eigenvalues are off by about size * 2^-52 relative to the largest, so
    min_gap = 1e-9 leaves every sign certain without calling a real eigenvalue 0.
    """
    problems = []
    n = len(rows)
    if any(len(r) != n for r in rows):
        return ["Gram matrix is not square"]
    if any(rows[i][j] != rows[j][i] for i in range(n) for j in range(i)):
        problems.append("Gram matrix is not symmetric")
    if n != rank:
        problems.append(f"rank {rank} but the Gram matrix has size {n}")
    odd = any(rows[i][i] % 2 for i in range(n))
    if parity != ("odd" if odd else "even"):
        problems.append(f"parity {parity} but the diagonal says {'odd' if odd else 'even'}")
    sig, gap = float_signature(rows)
    if gap < min_gap:
        problems.append(f"an eigenvalue is near 0 (relative {gap:.3g})")
    if sig != signature:
        problems.append(f"signature {signature} but float eigenvalues give {sig}")
    d = det_exact(rows)
    if d != 1:
        problems.append(f"determinant {d}, not +1")
    return problems


# ---------------------------------------------------------------------------
# CLI transcripts


def parse_cokernel(text):
    """(domain, codomain, torsion, free_rank, {generator: (order, expected, ok)})."""
    head = re.search(r"map \S+ at n=\d+: (\d+) -> (\d+)", text)
    tors = re.search(r"torsion: \[([^\]]*)\], free rank: (\d+)", text)
    if not head or not tors:
        raise ValueError("not a cokernel transcript")
    torsion = tuple(int(x) for x in tors.group(1).split(",") if x.strip())
    gens = {
        m.group(1): (int(m.group(2)), int(m.group(3)), m.group(4) == "ok")
        for m in re.finditer(
            r"generator (.+): order (-?\d+) \(expected (\d+)\) (ok|MISMATCH)", text
        )
    }
    return int(head.group(1)), int(head.group(2)), torsion, int(tors.group(2)), gens


def check_cokernel_text(text, domain, codomain, torsion, free_rank, generators=None):
    """Problems with a cokernel transcript against published values."""
    try:
        got = parse_cokernel(text)
    except ValueError as exc:
        return [str(exc)]
    problems = []
    if got[:2] != (domain, codomain):
        problems.append(f"shape {got[0]} -> {got[1]}, expected {domain} -> {codomain}")
    if got[2] != tuple(torsion):
        problems.append(f"torsion {list(got[2])} differs from the published one")
    if got[3] != free_rank:
        problems.append(f"free rank {got[3]}, expected {free_rank}")
    for name, order in (generators or {}).items():
        g = got[4].get(name)
        if g is None or g[0] != order or not g[2]:
            problems.append(f"generator {name}: {g}, expected order {order}")
    return problems


def parse_lattice(text):
    m = re.fullmatch(r"rank (\d+), (odd|even), signature (-?\d+)(, unimodular)?\n?", text)
    if not m:
        raise ValueError(f"not a lattice transcript: {text!r}")
    return int(m.group(1)), m.group(2), int(m.group(3)), bool(m.group(4))


# ---------------------------------------------------------------------------
# products


def symbol_degree(sym):
    """Degree of a basis symbol: 2(|parts| - len) + label degrees (0, 2, 4)."""
    parts, labels = sym
    return 2 * (sum(parts) - len(parts)) + sum(0 if l == 0 else 4 if l == 23 else 2 for l in labels)


def check_product(a, b, n, product):
    """Problems with a product: homogeneity, integer coefficients, symbol shape."""
    want = symbol_degree(a) + symbol_degree(b)
    problems = []
    for sym, c in product.items():
        parts, labels = sym
        if type(c) is not int or c == 0:
            problems.append(f"coefficient {c!r} of {sym} is not a nonzero integer")
        if len(parts) != len(labels) or sum(parts) > n or any(p < 1 for p in parts):
            problems.append(f"{sym} is not a symbol at n={n}")
        elif symbol_degree(sym) != want:
            problems.append(f"{sym} has degree {symbol_degree(sym)}, expected {want}")
    return problems


def cup_vector(cup, vec, sym, n):
    """(sum of vec) * sym with a two-argument product function."""
    out = {}
    for a, va in vec.items():
        for s, w in cup(a, sym, n).items():
            out[s] = out.get(s, 0) + va * w
    return {s: v for s, v in out.items() if v}


def check_associative(cup, triples, n):
    """Problems with (ab)c = a(bc) (written (ab)c = (bc)a, using commutativity)."""
    problems = []
    for a, b, c in triples:
        left = cup_vector(cup, cup(a, b, n), c, n)
        right = cup_vector(cup, cup(b, c, n), a, n)
        if left != right:
            problems.append(f"({a} {b}) {c} != ({b} {c}) {a}")
    return problems


def denes_targets(k, n):
    """Symbols of the two classes whose coefficients in ([2],[0])^k Denes counted.

    (k+1)^(k-1) trees give the (k+1)-cycle, k^(k-1) the (k, 2) cycle type.
    """
    head = ((k + 1,) + (1,) * (n - k - 1), (0,) * (n - k))
    tail = ((k, 2) + (1,) * (n - k - 2), (0,) * (n - k))
    return {head: (k + 1) ** (k - 1), tail: k ** (k - 1)}


def check_denes(power, k, n):
    return [
        f"coefficient of {sym} in ([2],[0])^{k} is {power.get(sym)}, Denes gives {want}"
        for sym, want in denes_targets(k, n).items()
        if power.get(sym) != want
    ]
