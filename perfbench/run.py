"""Benchmark of k3hilb: cold CLI computations and a product stream.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload lattice-n2 --seed 1 --seconds 36 --trace 0

Each round runs in a fresh interpreter (PYTHONPATH=src, one process, no
on-disk cache) and does the same operations.  The run repeats whole rounds
while another one fits in --seconds, checks every output and prints, as its
last line, one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with --trace 0, the per-layer metrics of
traced processes with --trace 1.  An operation's end-to-end time is the
fastest of the run's rounds, since the host slows stretches of a run down
but never speeds one up.
A line before it records the commit, the Python version and the CPU count.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
CHILD_TIMEOUT_S = 170
SETUP_REPEATS = 5
OUT_DIR = ".perfbench-out"  # one JSON record per run, rounds included

WORKLOADS = {
    "coker-sym2-n3-gens": {
        "cli": ["cokernel", "--n", "3", "--map", "sym2", "--check-generators"],
        "ops_per_round": 2,  # the computation and the generator check
    },
    "lattice-n2": {
        "cli": ["lattice", "--n", "2", "--unimodular"],
        "ops_per_round": 1,
    },
    "cup-n8": {"cli": None, "ops_per_round": None},
}


def metric_units(kind):
    """{name: unit} of the "end_to_end" or "per_layer" metrics in BENCHMARK.json."""
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


class BenchError(Exception):
    """The benchmark cannot run here (no program, or a child broke)."""


def child_env(root):
    env = dict(os.environ)
    env.pop("K3HILB_CACHE_DIR", None)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(root, args):
    """Run one child to its end; returns (launch, exit, record)."""
    launch = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, CHILD, *args],
        cwd=root,
        env=child_env(root),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"child {args} exceeded {CHILD_TIMEOUT_S} s")
    done = time.monotonic()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child {args} exited {proc.returncode}: {err.strip()[-2000:]}")
    return launch, done, json.loads(lines[-1])


def child_args(name, seed, flags):
    spec = WORKLOADS[name]
    if spec["cli"] is not None:
        return ["cli", *flags, "--", "--jobs", "1", *spec["cli"]]
    return ["products", "--seed", str(seed), *flags]


def setup_times(root, name, seed):
    """Launch-to-first-call times of processes that stop there."""
    out = []
    for _ in range(SETUP_REPEATS):
        launch, _, rec = spawn(root, child_args(name, seed, ["--setup-only"]))
        out.append(rec["first"] - launch)
    return out


def run_round(root, name, seed, trace):
    launch, done, rec = spawn(root, child_args(name, seed, ["--trace"] if trace else []))
    ops = WORKLOADS[name]["ops_per_round"]
    if ops is None:  # the product stream counts its own operations
        rec["ops"], rec["failed_ops"] = len(rec["latencies"]), rec["latencies"].count(None)
    else:
        rec["ops"], rec["failed_ops"] = ops, 0 if rec["exit"] == 0 else ops
    rec["wall_s"] = done - launch - rec["check_s"]
    rec["setup_s"] = rec["first"] - launch
    return rec


def output_problems(name, rounds):
    """Checks on what the timed processes printed or computed."""
    problems = []
    texts = {r.get("stdout") for r in rounds}
    if len(texts) != 1:
        problems.append("rounds printed different output")
    text = rounds[0].get("stdout", "")
    if name == "coker-sym2-n3-gens":
        problems += checks.check_cokernel_text(text, 276, 299, (3,), 23, {"1^(3)": 3})
    elif name == "lattice-n2":
        try:
            got = checks.parse_lattice(text)
        except ValueError as exc:
            problems.append(str(exc))
        else:
            if got != (276, "odd", 156, True):
                problems.append(f"lattice invariants {got}, expected (276, 'odd', 156, True)")
    else:
        for r in rounds:
            problems += r["problems"]
    return problems


def check_problems(root, name, seed, rounds):
    """Independent checks that need the program's matrices or more products."""
    _, _, data = spawn(root, ["check", name, "--seed", str(seed)])
    problems = list(data.get("problems", []))
    ranks = {int(p): r for p, r in data.get("ranks", {}).items()}
    if name == "coker-sym2-n3-gens":
        with_gen = {int(p): r for p, r in data["ranks_with_generator"].items()}
        want = {checks.LARGE_PRIME: 276, 3: 275}
        if ranks != want:
            problems.append(f"F_p ranks {ranks}, expected {want}")
        # the image is nonzero in coker (x) F_3 (the F_3 rank rises) and has a
        # free component (the large-prime rank rises); the printed order is
        # that of its torsion component
        if with_gen != {checks.LARGE_PRIME: 277, 3: 276}:
            problems.append(f"ranks with the generator {with_gen}, expected 277 and 276")
    return problems


def best_latencies(rounds):
    """Each operation's fastest time over the rounds, which all do the same operations."""
    cols = zip(*(r["latencies"] for r in rounds))
    return [min(col) for col in cols if None not in col]


def end_to_end(rounds, setups):
    return {
        "op_best_ms": 1e3 * median(best_latencies(rounds)),
        "setup_s": median(setups + [r["setup_s"] for r in rounds]),
        "peak_rss_mb": median(r["rss_kb"] / 1024 for r in rounds),
    }


def per_layer(rounds):
    out = {key: median(r["layers"][key] for r in rounds) for key in rounds[0]["layers"]}
    out["trace.wall_s"] = median(r["wall_s"] for r in rounds)
    return out


def git_sha(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    try:
        res = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() or "unknown"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "k3hilb", "__init__.py")):
        print("perfbench: run from the root of a k3hilb source checkout (src/k3hilb)", file=sys.stderr)
        return 2
    try:
        # compile the bytecode once so that no timed process pays for it
        spawn(root, child_args(args.workload, args.seed, ["--setup-only"]))
        setups = setup_times(root, args.workload, args.seed)
        start = time.monotonic()
        rounds = []
        while True:
            rounds.append(run_round(root, args.workload, args.seed, bool(args.trace)))
            elapsed = time.monotonic() - start
            if elapsed + median(r["wall_s"] for r in rounds) > args.seconds:
                break
        measured = time.monotonic() - start
        problems = output_problems(args.workload, rounds)
        problems += check_problems(root, args.workload, args.seed, rounds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics, units = per_layer(rounds), metric_units("per_layer")
    else:
        metrics, units = end_to_end(rounds, setups), metric_units("end_to_end")
    if metrics.keys() != units.keys():
        print(f"perfbench: metrics {sorted(metrics)} differ from BENCHMARK.json", file=sys.stderr)
        return 1
    for p in problems:
        print(f"perfbench: check failed: {p}", file=sys.stderr)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": len(rounds),
        "measured_s": measured,
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
    }
    result = {
        "correct": not problems,
        "attempted": sum(r["ops"] for r in rounds),
        "failed": sum(r["failed_ops"] for r in rounds),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    record = os.path.join(root, OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w", encoding="utf-8") as fh:
        json.dump(
            {"meta": meta, "result": result, "problems": problems, "setups": setups, "rounds": rounds},
            fh,
        )
    print(json.dumps({"meta": meta, "record": os.path.relpath(record, root)}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
