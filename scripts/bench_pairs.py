"""Run the benchmark in alternating pairs on REV's source and this checkout's.

Usage::

    python3 scripts/bench_pairs.py REV [--pairs 10]
        [--workloads grids,orbit,ivp-sweep]

Builds two temporary trees, each holding this checkout's ``bench/``: one
with REV's ``src/`` (extracted with ``git archive``, as
``compare_trees.py`` does) and one with this checkout's ``src/`` (working
files, uncommitted changes included).  For each workload and each seed
1..PAIRS it runs ``python3 bench/run.py --workload W --seed S --seconds T
--trace 0`` once in each tree, with T the ``run_seconds`` of
``BENCHMARK.json``, REV's first on odd seeds and the checkout's first on
even ones.  Then, for every end-to-end metric that ``BENCHMARK.json``
declares, it prints REV's and the checkout's medians with their
quartiles, the relative change of the median, the number of pairs in
which the checkout's run is better, ``OVER BOUND`` when the checkout's
median is worse than REV's by more than the metric's bound, and
``UNRESOLVED`` when either side's quartile distance, relative to its
median, is wider than the bound and not every checkout run is better than
every REV run; and each side's failed ops.  Exits 1 when a metric is over
its bound or unresolved or an op failed, else 0.  Uses the standard
library only.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "scripts"))

from compare_trees import extract_src  # noqa: E402

SIDES = ("rev", "checkout")


def make_trees(rev: str, tmp: Path) -> dict:
    """The two benchmark trees, by side: REV's source and the checkout's."""
    skip = shutil.ignore_patterns("__pycache__")
    trees = {side: tmp / side for side in SIDES}
    extract_src(rev, trees["rev"])
    shutil.copytree(ROOT / "src", trees["checkout"] / "src", ignore=skip)
    for tree in trees.values():
        shutil.copytree(ROOT / "bench", tree / "bench", ignore=skip)
    return trees


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON summary, the last stdout line, of one benchmark run."""
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed)]
    command += ["--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(command, cwd=tree, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def spread(values: list) -> tuple:
    """Median and quartiles (``statistics.quantiles``, n=4) of the runs."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def report(workload: str, runs: dict, metrics: list) -> bool:
    """Print one workload's table; return whether every metric holds its bound."""
    ok = True
    pairs = len(runs["rev"])
    print(f"== {workload}: {pairs} pair(s)")
    for metric in metrics:
        name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        spreads = [spread(values[side]) for side in SIDES]
        (old, old_q1, old_q3), (new, new_q1, new_q3) = spreads
        change = (new - old) / old if old else 0.0
        wins = sum(sign * (b - a) < 0 for a, b in zip(values["rev"], values["checkout"]))
        over = sign * change > metric["bound"]
        wide = any(q3 - q1 > metric["bound"] * abs(m) for m, q1, q3 in spreads)
        apart = all(sign * (b - a) < 0 for a in values["rev"] for b in values["checkout"])
        unresolved = wide and not apart
        ok = ok and not over and not unresolved
        print(
            f"{name:12} rev {old:.4g} [{old_q1:.4g}, {old_q3:.4g}]  "
            f"checkout {new:.4g} [{new_q1:.4g}, {new_q3:.4g}]  "
            f"{100 * change:+.1f}%  better in {wins}/{pairs}"
            + ("  OVER BOUND" if over else "")
            + ("  UNRESOLVED" if unresolved else "")
        )
    for side in SIDES:
        failed = sum(r["failed"] for r in runs[side])
        attempted = sum(r["attempted"] for r in runs[side])
        print(f"{side} failed ops: {failed} of {attempted}")
        ok = ok and failed == 0
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workloads", default=None, help="comma-separated; default all")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = (
        args.workloads.split(",") if args.workloads else [w["name"] for w in benchmark["workloads"]]
    )
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        trees = make_trees(args.rev, Path(tmp))
        for workload in workloads:
            runs = {side: [] for side in SIDES}
            for seed in range(1, args.pairs + 1):
                for side in SIDES if seed % 2 else SIDES[::-1]:
                    run = run_bench(trees[side], workload, seed, benchmark["run_seconds"])
                    runs[side].append(run)
                    print(f"{workload} seed {seed} {side} done", file=sys.stderr, flush=True)
            ok = report(workload, runs, benchmark["end_to_end"]) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
