"""Diff the reference solves and command outputs of this checkout against REV.

Usage::

    python3 scripts/compare_trees.py REV

Extracts REV's ``src/`` with ``git archive`` into a temporary directory,
runs this checkout's ``dump_solves.py`` and ``dump_cli_outputs.py`` on
REV's source tree and on this checkout's (working files, uncommitted
changes included), and prints every differing line as a unified diff.  It
does so twice: with ``OPENBLAS_NUM_THREADS=1``, and with the variable unset,
the benchmark's setting (the orbit solves' last bits depend on the thread
count, so each setting compares the trees only with each other).  Exits 0
when every output is identical under both settings and 1 otherwise.  Uses
the standard library only.
"""

from __future__ import annotations

import difflib
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def extract_src(rev: str, dest: Path) -> Path:
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
        check=True,
        capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest / "src"


# Label and OPENBLAS_NUM_THREADS value (None: unset) of each comparison.
THREAD_SETTINGS = [("OPENBLAS_NUM_THREADS=1", "1"), ("OPENBLAS_NUM_THREADS unset", None)]


def dump(src: Path, out: Path, threads) -> None:
    """Write ``solves.txt`` and the ``cli`` folder of one source tree."""
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    out.mkdir()
    with open(out / "solves.txt", "w", encoding="utf-8") as solves:
        subprocess.run(
            [sys.executable, str(SCRIPTS / "dump_solves.py")], env=env, check=True, stdout=solves
        )
    subprocess.run(
        [sys.executable, str(SCRIPTS / "dump_cli_outputs.py"), str(out / "cli")],
        env=env,
        check=True,
    )


def read_lines(path: Path) -> list:
    return path.read_text(encoding="utf-8").splitlines() if path.exists() else []


def diff_trees(rev: str, old: Path, new: Path) -> int:
    """Print the unified diff of every output file; return how many differ."""
    names = ["solves.txt"] + sorted(
        {f"cli/{p.name}" for tree in (old, new) for p in (tree / "cli").iterdir()}
    )
    differing = 0
    for name in names:
        lines = list(
            difflib.unified_diff(
                read_lines(old / name),
                read_lines(new / name),
                fromfile=f"{rev}/{name}",
                tofile=f"checkout/{name}",
                lineterm="",
                n=0,
            )
        )
        if lines or (old / name).exists() != (new / name).exists():
            differing += 1
            print("\n".join(lines) or f"{name}: present on one side only")
    return differing


def main(argv: list) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    (rev,) = argv
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        old_src = extract_src(rev, tmp / "tree")
        for k, (label, threads) in enumerate(THREAD_SETTINGS):
            print(f"== {label}")
            old, new = tmp / f"old{k}", tmp / f"new{k}"
            dump(old_src, old, threads)
            dump(ROOT / "src", new, threads)
            differing = diff_trees(rev, old, new)
            print(f"{differing} output file(s) differ" if differing else "all outputs identical")
            failed = failed or differing > 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
