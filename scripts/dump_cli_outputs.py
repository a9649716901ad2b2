"""Dump what the ``auglobatto`` command writes, for a byte-for-byte diff.

Runs ``auglobatto.cli.main`` in-process on a fixed set of commands and
writes, per command, its stdout, stderr, exit code and any CSV it wrote
into OUTDIR.  Compare two checkouts at the same BLAS thread count (the
orbit solve's last bits depend on it); ``python3 scripts/compare_trees.py
REV`` runs this script and ``dump_solves.py`` on REV's source and on this
checkout's with ``OPENBLAS_NUM_THREADS=1`` and prints the differing lines.

The commands: ``nodes`` and ``diffmat --check`` (all three kinds) for
N=3..50; ``solve`` for the IVP at N=10 and 25 (augmented), at N=11
(singular), 12 and 17 (stalled) on the square method, and orbit raising at
N=25; ``converge`` for N=6..13 with both methods.  Usage errors are left
out: their wording is argparse's.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

from auglobatto import cli

SOLVES = [
    ("ivp-new-10", ["--problem", "nonlinear-ivp", "--n", "10"]),
    ("ivp-new-25", ["--problem", "nonlinear-ivp", "--n", "25"]),
    ("ivp-std-11", ["--problem", "nonlinear-ivp", "--n", "11", "--method", "standard-lobatto"]),
    ("ivp-std-12", ["--problem", "nonlinear-ivp", "--n", "12", "--method", "standard-lobatto"]),
    ("ivp-std-17", ["--problem", "nonlinear-ivp", "--n", "17", "--method", "standard-lobatto"]),
    ("orbit-new-25", ["--problem", "orbit-raising", "--n", "25"]),
]


def run(outdir: Path, name: str, argv: list, csv_path: Path = None) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    written = csv_path.read_text(encoding="utf-8") if csv_path and csv_path.exists() else ""
    (outdir / f"{name}.out").write_text(out.getvalue() + written, encoding="utf-8")
    (outdir / f"{name}.err").write_text(f"{err.getvalue()}exit {code}\n", encoding="utf-8")


def main(outdir: str) -> None:
    root = Path(outdir)
    root.mkdir(parents=True, exist_ok=True)
    for n in range(3, 51):
        run(root, f"nodes-{n}", ["nodes", "--n", str(n)])
        for kind in ("new", "standard", "dual"):
            run(root, f"diffmat-{kind}-{n}", ["diffmat", "--n", str(n), "--kind", kind, "--check"])
    for name, flags in SOLVES:
        path = root / f"solve-{name}.csv"
        run(root, f"solve-{name}", ["solve", *flags, "--out", str(path)], path)
        path.unlink(missing_ok=True)
    path = root / "converge.csv"
    methods = " new-lobatto , standard-lobatto "
    argv = ["converge", "--problem", "nonlinear-ivp", "--n-min", "6", "--n-max", "13"]
    run(root, "converge", argv + ["--methods", methods, "--out", str(path)], path)
    path.unlink()


if __name__ == "__main__":
    main(sys.argv[1])
