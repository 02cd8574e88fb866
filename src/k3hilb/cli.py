"""Command-line interface.

Subcommands: basis, cup, cup-universal, cokernel, lattice, bns, selftest.
Exit codes: 0 success, 1 computation mismatch (selftest), 2 usage error.
All coefficients print as exact decimal strings; --json switches to
structured output with the same information.
"""

import argparse
import json
import os
import sys

from . import analysis
from .hilb_basis import (
    an_sort_key,
    betti,
    canonical_class,
    format_class,
    hilb_base,
    parse_class,
    reduce_class,
)
from .qin_wang import cup_int, cup_universal

MAX_PRODUCT_N = 8
MAX_LATTICE_N = 5
MAX_BASIS = 1_000_000


class UsageError(Exception):
    pass


def _sorted_terms(vec):
    return sorted(vec.items(), key=lambda t: an_sort_key(t[0]))


def _format_vec(vec):
    terms = _sorted_terms(vec)
    return "[" + ",".join(f"({format_class(s)},{c})" for s, c in terms) + "]"


def _json_terms(vec):
    return [
        {"part": list(s[0]), "labels": list(s[1]), "coeff": str(c)}
        for s, c in _sorted_terms(vec)
    ]


def _parse_class_arg(text):
    try:
        return parse_class(text)
    except ValueError as exc:  # a ClassSyntaxError is a ValueError
        raise UsageError(f"bad class {text!r}: {exc}") from exc


def _check_n(n, limit, force, what):
    if n < 0:
        raise UsageError(f"{what}: n must be nonnegative")
    if n > limit and not force:
        raise UsageError(
            f"{what}: n={n} exceeds the default limit {limit}; pass --force to override"
        )


def cmd_basis(args, out):
    _check_n(args.n, MAX_PRODUCT_N, args.force, "basis")
    count = betti(args.n, args.deg)
    if count > MAX_BASIS and not args.force:
        raise UsageError(f"basis: {count} classes exceed the limit {MAX_BASIS}; pass --force")
    basis = hilb_base(args.n, args.deg)
    if args.json:
        json.dump(
            {
                "n": args.n,
                "deg": args.deg,
                "count": len(basis),
                "classes": [{"part": list(s[0]), "labels": list(s[1])} for s in basis],
            },
            out,
        )
        out.write("\n")
    else:
        for sym in basis:
            out.write(format_class(sym) + "\n")
        out.write(f"count: {len(basis)}\n")
    return 0


def cmd_cup(args, out):
    _check_n(args.n, MAX_PRODUCT_N, args.force, "cup")
    a = _parse_class_arg(args.a)
    b = _parse_class_arg(args.b)
    result = cup_int(a, b, args.n)
    if args.json:
        json.dump(
            {
                "n": args.n,
                "factors": [
                    {"part": list(s[0]), "labels": list(s[1])} for s in (a, b)
                ],
                "terms": _json_terms(result),
            },
            out,
        )
        out.write("\n")
    else:
        out.write(_format_vec(result) + "\n")
    return 0


def cmd_cup_universal(args, out):
    a = _parse_class_arg(args.a)
    b = _parse_class_arg(args.b)
    # the products are sampled at every n up to at least w(a) + w(b) + 1
    w = sum(reduce_class(a)[0]) + sum(reduce_class(b)[0])
    if w > MAX_PRODUCT_N and not args.force:
        raise UsageError(
            f"cup-universal: w(a) + w(b) = {w} exceeds the default limit "
            f"{MAX_PRODUCT_N}; pass --force to override"
        )
    coeffs = cup_universal(a, b)
    if args.json:
        json.dump(
            {
                "targets": [
                    {
                        "part": list(u.target[0]),
                        "labels": list(u.target[1]),
                        "poly": [str(c) for c in u.poly],
                        "pretty": u.pretty(),
                    }
                    for u in coeffs
                ]
            },
            out,
        )
        out.write("\n")
    else:
        for u in coeffs:
            out.write(f"{format_class(u.target)} : {u.pretty()}\n")
    return 0


def cmd_cokernel(args, out):
    _check_n(args.n, MAX_PRODUCT_N, args.force, "cokernel")
    report = analysis.cokernel_report(args.n, args.map, check_generators=args.check_generators)
    if args.json:
        json.dump(
            {
                "n": report.n,
                "map": report.map_kind,
                "domain_dim": report.domain_dim,
                "codomain_dim": report.codomain_dim,
                "torsion": [str(d) for d in report.cokernel.torsion],
                "free_rank": report.cokernel.free_rank,
                "generators": [
                    {
                        "name": g.name,
                        "expected_order": g.expected_order,
                        "order": g.order,
                        "ok": g.ok,
                    }
                    for g in report.generator_checks
                ],
            },
            out,
        )
        out.write("\n")
    else:
        out.write(
            f"map {report.map_kind} at n={report.n}: "
            f"{report.domain_dim} -> {report.codomain_dim}\n"
        )
        out.write(f"torsion: {list(report.cokernel.torsion)}, ")
        out.write(f"free rank: {report.cokernel.free_rank}\n")
        for g in report.generator_checks:
            out.write(
                f"generator {g.name}: order {g.order} "
                f"(expected {g.expected_order}) {'ok' if g.ok else 'MISMATCH'}\n"
            )
    if any(not g.ok for g in report.generator_checks):
        return 1
    return 0


def cmd_lattice(args, out):
    _check_n(args.n, MAX_LATTICE_N, args.force, "lattice")
    report = analysis.middle_lattice(args.n, check_unimodular=args.unimodular)
    if args.json:
        payload = {
            "n": report.n,
            "rank": report.rank,
            "parity": report.parity,
            "signature": report.signature,
        }
        if report.unimodular is not None:
            payload["unimodular"] = report.unimodular
        json.dump(payload, out)
        out.write("\n")
    else:
        line = f"rank {report.rank}, {report.parity}, signature {report.signature}"
        if report.unimodular is not None:
            line += ", unimodular" if report.unimodular else ", NOT unimodular"
        out.write(line + "\n")
    return 0


def cmd_bns(args, out):
    sig = analysis.bns_form_signature()
    if args.json:
        json.dump({"rank": 23, "signature": sig}, out)
        out.write("\n")
    else:
        out.write(f"rank 23, signature {sig}\n")
    return 0 if sig == 17 else 1


def _selftest_checks():
    c = canonical_class

    def transcript_1():
        got = cup_int(c((2, 2, 1, 1), (0, 0, 0, 0)), c((2, 1, 1, 1, 1), (1, 0, 0, 0, 0)), 6)
        want = {
            c((2, 1, 1, 1, 1), (0, 23, 1, 0, 0)): -2,
            c((2, 2, 2), (1, 0, 0)): 1,
            c((3, 2, 1), (1, 0, 0)): 2,
            c((4, 1, 1), (1, 0, 0)): 1,
        }
        return got == want

    def transcript_2():
        got = cup_int(c((2, 1, 1), (1, 0, 0)), c((1, 1, 1, 1), (1, 0, 0, 0)), 4)
        want = {c((2, 1, 1), (1, 1, 0)): 1, c((3, 1), (1, 0)): 1}
        return got == want

    def transcript_3():
        got = cup_int(c((2, 1, 1), (0, 0, 0)), c((2, 1, 1), (0, 0, 0)), 4)
        return got.get(c((1, 1, 1, 1), (23, 0, 0, 0))) == -3

    def transcript_4():
        got = cup_int(c((2, 2, 1), (0, 0, 0)), c((2, 2, 1), (0, 0, 0)), 5)
        return got.get(c((1, 1, 1, 1, 1), (23, 23, 0, 0, 0))) == 3

    def betti():
        return (
            all(len(hilb_base(n, 2)) == 23 for n in (2, 3, 4))
            and [len(hilb_base(n, 4)) for n in (2, 3, 4)] == [276, 299, 300]
            and [len(hilb_base(n, 6)) for n in (2, 3)] == [23, 2554]
        )

    def bilinear_values():
        from . import k3 as _k3

        return (
            _k3.bil(0, 23) == 1
            and _k3.bil(1, 2) == 1
            and _k3.bil(1, 1) == 0
            and _k3.bil(7, 7) == -2
            and _k3.bil(7, 8) == 1
            and _k3.bil_inv(7, 7) == -2
        )

    def hyperbolic_square():
        got = cup_int(c((1, 1), (1, 2)), c((1, 1), (1, 2)), 2)
        return got.get(c((1, 1), (23, 23))) == 1

    return [
        ("transcript 1 (n=6)", transcript_1),
        ("transcript 2 (n=4)", transcript_2),
        ("transcript 3 (n=4, coefficient -3)", transcript_3),
        ("transcript 4 (n=5, coefficient 3)", transcript_4),
        ("betti numbers", betti),
        ("K3 bilinear form entries", bilinear_values),
        ("hyperbolic pair square", hyperbolic_square),
    ]


def cmd_selftest(args, out):
    results = []
    ok = True
    for name, fn in _selftest_checks():
        passed = bool(fn())
        ok = ok and passed
        results.append((name, passed))
        if not args.json:
            out.write(f"{'PASS' if passed else 'FAIL'}  {name}\n")
    if args.json:
        json.dump(
            {"checks": [{"name": n, "ok": p} for n, p in results], "ok": ok}, out
        )
        out.write("\n")
    elif not ok:
        out.write("selftest failed\n")
    return 0 if ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="k3hilb",
        description="Exact cup products on Hilbert schemes of points on a K3 surface",
    )
    parser.add_argument("--json", action="store_true", help="structured output")
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="ignored: accepted in 1..CPU count while the benchmark harness passes it",
    )
    parser.add_argument(
        "--force", action="store_true", help="override the default size limits"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("basis", help="list the integral basis in one degree")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--deg", type=int, required=True)
    p.set_defaults(fn=cmd_basis)

    p = sub.add_parser("cup", help="cup product of two classes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("a", help="class like ([2-1],[0,0])")
    p.add_argument("b")
    p.set_defaults(fn=cmd_cup)

    p = sub.add_parser(
        "cup-universal", help="structure-constant polynomials in n for reduced classes"
    )
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(fn=cmd_cup_universal)

    p = sub.add_parser("cokernel", help="cokernel of a multiplication map")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--map", choices=analysis.MAP_KINDS, required=True)
    p.add_argument(
        "--check-generators",
        action="store_true",
        help="verify the known generator orders",
    )
    p.set_defaults(fn=cmd_cokernel)

    p = sub.add_parser("lattice", help="middle-cohomology lattice invariants")
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--unimodular", action="store_true", help="also verify unimodularity"
    )
    p.set_defaults(fn=cmd_lattice)

    p = sub.add_parser("bns", help="signature of the twisted degree-2 form on Hilb^2")
    p.set_defaults(fn=cmd_bns)

    p = sub.add_parser("selftest", help="run the built-in golden checks")
    p.set_defaults(fn=cmd_selftest)

    return parser


def run(argv=None, out=None):
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cpus = os.cpu_count() or 1
        if not 1 <= args.jobs <= cpus:
            raise UsageError(f"--jobs must be between 1 and {cpus}, got {args.jobs}")
        return args.fn(args, out)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
