"""Dump the outcome of every reference solve, for a line-by-line diff.

Solves the 53 reference transcripts in-process: orbit raising at N=25, 35
and 45 (augmented method) and the nonlinear IVP at N=6..30 with both
methods.  Writes one line per solve to stdout: the outcome (``converged``
or the exception's class), the iteration count and the solver's message,
then sha256 hashes of the final ``z`` and multipliers (converged solves
only) and of the report's ``residuals`` and ``step_history``.  A converged
augmented solve adds its ``kkt_residuals`` audit; an orbit solve adds the
leading-coefficient gate ratio and the boundary residual.  Every float is
written with ``%.17g``, so equal lines mean bit-identical results.  Compare
two checkouts at the same BLAS thread count (the orbit solves' last bits
depend on it); ``python3 scripts/compare_trees.py REV`` runs this script and
``dump_cli_outputs.py`` on REV's source and on this checkout's, once with
``OPENBLAS_NUM_THREADS=1`` and once with it unset, and prints the differing
lines.
"""

from __future__ import annotations

import hashlib

import numpy as np

from auglobatto import (
    MaxIterationsError,
    Method,
    SingularKktError,
    assemble_solution,
    build_dual_D,
    costate_leading_coefficient,
    kkt_residuals,
    lobatto_nodes,
    nonlinear_ivp,
    orbit_raising,
    solve,
    transcribe,
)

SOLVES = [("orbit", orbit_raising, Method.NEW_LOBATTO, n) for n in (25, 35, 45)] + [
    ("ivp", lambda: nonlinear_ivp()[0], method, n)
    for method in Method
    for n in range(6, 31)
]


def digest(values) -> str:
    return hashlib.sha256(np.asarray(values, dtype=float).tobytes()).hexdigest()[:16]


def describe(name, factory, method, n) -> str:
    t = transcribe(factory(), lobatto_nodes(n), method)
    fields = [f"{name} {method.value} N={n}"]
    try:
        z, mult, report = solve(t)
    except (MaxIterationsError, SingularKktError) as exc:
        report = exc.report
        fields += [type(exc).__name__, f"iterations={report.iterations}", f"message={exc}"]
    else:
        fields += ["converged", f"iterations={report.iterations}", "message=", f"z={digest(z)}"]
        fields.append(f"multipliers={digest(mult)}")
    fields.append(f"residuals={digest(report.residuals)}")
    fields.append(f"step_history={digest(report.step_history)}")
    if report.converged and method is Method.NEW_LOBATTO:
        sol = assemble_solution(t, z, mult, report.final_kkt_norm)
        audit = kkt_residuals(t, sol, t.ns, t.diff, build_dual_D(t.ns, t.diff)).max_abs
        fields.append("audit=%.17g" % audit)
        if name == "orbit":
            coeff = np.abs(costate_leading_coefficient(sol.costates, t.ns))
            ratio = np.max(coeff / np.max(np.abs(sol.costates), axis=0))
            boundary = np.max(np.abs(t.constraints(z)[t.n_defect :]))
            fields += ["gate_ratio=%.17g" % ratio, "boundary=%.17g" % boundary]
    return " ".join(fields)


def main() -> None:
    for solve_args in SOLVES:
        print(describe(*solve_args), flush=True)


if __name__ == "__main__":
    main()
