"""Print where the solver's time goes, in ms per solve and phase.

Usage::

    python3 scripts/phase_times.py [--repeat 3]

Times five phases of ``auglobatto.nlpsolve.solve`` by wrapping them for the
length of the run: the Lagrangian Hessian (``Transcript.hessian``), the
inertia band (``_inertia_band``: the QR of J^T and the reduced Hessian's
smallest eigenvalue), the KKT solve (``_solve_kkt``: filling the matrix,
the inertia test, the factorization and its checks), the line search
(``_line_search``, its transcript evaluations included) and the multiplier
estimate (``_multiplier_estimate``).  ``other`` is the rest of the solve:
the guess's evaluation, the residuals and the stall rule.  The workloads
are orbit raising at N=25 and N=45 and the benchmark's IVP sweep (the
nonlinear IVP, augmented method N=6..25 and square method N=6..13); a
solve that raises counts like one that converges.  Each workload runs
``--repeat`` times, and every column is the median over the repeats of
ms per solve.  The BLAS thread count is whatever the environment sets
(``OPENBLAS_NUM_THREADS``).  Uses the standard library and the package
only; run it with the package importable (``PYTHONPATH=src``).
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from collections import defaultdict

from auglobatto import (
    MaxIterationsError,
    Method,
    SingularKktError,
    lobatto_nodes,
    nlpsolve,
    nonlinear_ivp,
    orbit_raising,
    transcribe,
)
from auglobatto.transcribe import Transcript

# Column name -> (owner, attribute) of each timed phase.
PHASES = {
    "hessian": (Transcript, "hessian"),
    "inertia_band": (nlpsolve, "_inertia_band"),
    "kkt_solve": (nlpsolve, "_solve_kkt"),
    "line_search": (nlpsolve, "_line_search"),
    "multipliers": (nlpsolve, "_multiplier_estimate"),
}

WORKLOADS = {
    "orbit-25": [(orbit_raising, Method.NEW_LOBATTO, 25)],
    "orbit-45": [(orbit_raising, Method.NEW_LOBATTO, 45)],
    "ivp-sweep": [(lambda: nonlinear_ivp()[0], Method.NEW_LOBATTO, n) for n in range(6, 26)]
    + [(lambda: nonlinear_ivp()[0], Method.STANDARD_LOBATTO, n) for n in range(6, 14)],
}


def timed(phase, fn, totals):
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            totals[phase] += time.perf_counter() - start

    return wrapper


def measure(solves):
    """Seconds per phase, ``other`` and ``solve`` (the total) over one run
    of ``solves``, each a (factory, method, n) triple."""
    totals = defaultdict(float)
    originals = {phase: getattr(owner, attr) for phase, (owner, attr) in PHASES.items()}
    try:
        for phase, (owner, attr) in PHASES.items():
            setattr(owner, attr, timed(phase, originals[phase], totals))
        for factory, method, n in solves:
            t = transcribe(factory(), lobatto_nodes(n), method)
            start = time.perf_counter()
            try:
                nlpsolve.solve(t)
            except (MaxIterationsError, SingularKktError):
                pass
            totals["solve"] += time.perf_counter() - start
    finally:
        for phase, (owner, attr) in PHASES.items():
            setattr(owner, attr, originals[phase])
    totals["other"] = totals["solve"] - sum(totals[phase] for phase in PHASES)
    return dict(totals)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=3, help="runs per workload (default 3)")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    columns = list(PHASES) + ["other", "solve"]
    print(f"{'ms per solve':<12} {'solves':>6} " + " ".join(f"{c:>12}" for c in columns))
    for name, solves in WORKLOADS.items():
        runs = [measure(solves) for _ in range(args.repeat)]
        cells = [
            f"{1e3 * statistics.median(run[c] for run in runs) / len(solves):12.2f}"
            for c in columns
        ]
        print(f"{name:<12} {len(solves):>6} " + " ".join(cells), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
