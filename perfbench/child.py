"""One cold process of the benchmark: a CLI computation, the product stream, or
the checks that need the program.

Run from the root of a source checkout with PYTHONPATH=src:

    python3 perfbench/child.py cli [--trace] [--setup-only] -- lattice --n 2 --unimodular
    python3 perfbench/child.py products --seed 7 [--trace] [--setup-only]
    python3 perfbench/child.py check <workload> --seed 7

The last line of stdout is one JSON object.  Times are CLOCK_MONOTONIC
readings, comparable with the parent's, so the parent can measure set-up from
its own launch time to the first call into the computation.
"""

import argparse
import io
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import inputs  # noqa: E402


def _peak_rss_kb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _start_tracer(enabled):
    if not enabled:
        return None
    import tracer

    t = tracer.Tracer()
    t.install()
    return t


def run_cli(argv, trace, setup_only=False):
    import k3hilb.cli as cli

    tr = _start_tracer(trace)
    first = []

    def timed(fn):
        def entry(*args, **kwargs):
            first.append(time.monotonic())
            if setup_only:
                return 0
            if tr is not None:
                tr.start_computation()
            return fn(*args, **kwargs)

        return entry

    for name in [n for n in vars(cli) if n.startswith("cmd_")]:
        setattr(cli, name, timed(getattr(cli, name)))
    out = io.StringIO()
    code = cli.run(argv, out=out)
    end = time.monotonic()
    rec = {
        "first": first[0] if first else end,
        "end": end,
        "exit": code,
        "stdout": out.getvalue(),
        "rss_kb": _peak_rss_kb(),
        "latencies": [end - first[0]] if first else [],
        "check_s": 0.0,
    }
    if tr is not None:
        from k3hilb import lehn_sorger

        rec["layers"] = tr.report(end - rec["first"], lehn_sorger._mult_sn_items.cache_info())
    return rec


def _bases():
    from k3hilb.hilb_basis import hilb_base

    return {d: hilb_base(inputs.N, d) for d in inputs.DEGREES}


def _check_isometry(sigma):
    from k3hilb import k3

    for i in range(24):
        for j in range(24):
            if k3.bil(sigma[i], sigma[j]) != k3.bil(i, j):
                raise SystemExit(f"label map {sigma} is not an isometry of the K3 form")


def run_products(seed, trace, setup_only=False):
    import k3hilb.qin_wang as qin_wang

    tr = _start_tracer(trace)
    _check_isometry(inputs.isometry(seed))
    pairs = inputs.product_stream(seed, _bases())
    cup = qin_wang.cup_int  # looked up after the tracer wrapped it
    n = inputs.N
    latencies, problems, errors = [], [], []  # latency None: the product raised
    check_s = 0.0
    clock = time.perf_counter
    first = time.monotonic()
    if setup_only:
        pairs = []
    if tr is not None:
        tr.start_computation()
    for a, b in pairs:
        t0 = clock()
        try:
            prod = cup(a, b, n)
        except Exception as exc:  # a failed operation: counted, not a wrong answer
            errors.append(f"cup_int({a}, {b}, {n}) raised {exc!r}")
            latencies.append(None)
            continue
        t1 = clock()
        latencies.append(t1 - t0)
        problems.extend(checks.check_product(a, b, n, prod)[:3])
        check_s += clock() - t1
    end = time.monotonic()
    rec = {
        "first": first,
        "end": end,
        "exit": 0,
        "rss_kb": _peak_rss_kb(),
        "latencies": latencies,
        "check_s": check_s,
        "errors": errors[:20],
        "problems": problems[:20],
    }
    if tr is not None:
        from k3hilb import lehn_sorger

        rec["layers"] = tr.report(end - first - check_s, lehn_sorger._mult_sn_items.cache_info())
    return rec


def run_check(workload, seed):
    """Data for the checks that need the program's own matrices or products."""
    if workload == "coker-sym2-n3-gens":
        from k3hilb import analysis
        from k3hilb.hilb_basis import hilb_base

        cols = checks.columns_of(analysis.sym_power_matrix(3, 2))
        gen = {hilb_base(3, 4).index(((3,), (0,))): 1}  # the class 1^(3)
        primes = (checks.LARGE_PRIME, 3)
        return {
            "ranks": {p: checks.rank_mod_p(cols, p) for p in primes},
            "ranks_with_generator": {p: checks.rank_mod_p(cols + [gen], p) for p in primes},
        }
    if workload == "lattice-n2":
        from k3hilb import analysis

        g = analysis.middle_gram_matrix(2)
        return {"problems": checks.check_gram(g, rank=276, parity="odd", signature=156)}
    if workload == "cup-n8":
        import k3hilb.qin_wang as qin_wang

        bases = _bases()
        sigma = inputs.isometry(seed)
        triples = [
            tuple(inputs.relabel(s, sigma) for s in t) for t in inputs.assoc_triples(seed, bases)
        ]
        problems = checks.check_associative(qin_wang.cup_int, triples, inputs.N)
        problems += checks.check_associative(
            qin_wang.cup_int, [inputs.defect_triple(seed)], inputs.DEFECT_N
        )
        for k in (2, 3, 4):
            power = qin_wang.cup_int_list([((2,), (0,))] * k, inputs.N)
            problems += checks.check_denes(power, k, inputs.N)
        return {"problems": problems}
    raise SystemExit(f"no checks for workload {workload!r}")


def main():
    argv = sys.argv[1:]
    cli_argv = []
    if "--" in argv:
        cut = argv.index("--")
        argv, cli_argv = argv[:cut], argv[cut + 1 :]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("cli", "products", "check"))
    parser.add_argument("workload", nargs="?")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument(
        "--setup-only", action="store_true", help="stop at the first call into the computation"
    )
    args = parser.parse_args(argv)
    if args.mode == "cli":
        rec = run_cli(cli_argv, args.trace, args.setup_only)
    elif args.mode == "products":
        rec = run_products(args.seed, args.trace, args.setup_only)
    else:
        rec = run_check(args.workload, args.seed)
    print(json.dumps(rec))


if __name__ == "__main__":
    main()
