"""Command-line front end.

Four subcommands: ``nodes`` and ``diffmat`` dump grids and matrices to
stdout, ``solve`` runs one benchmark to a CSV file, ``converge`` sweeps a
range of grid sizes and records error norms per method.  All output is CSV
with a header row, UTF-8 and LF line endings.  Numbers are printed with
``%.17g``, 17 significant digits, so files round-trip and diff cleanly.  No
field holds a comma, quote or line break, so none is quoted.

A usage error exits with code 2 and names the flag, e.g.
``auglobatto solve: error: argument --n: must be at least 3``.  ``solve``
and ``converge`` run the solver at its fixed KKT tolerance and iteration
budget.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import InitVar, dataclass
from typing import Optional

import numpy as np

from .discretization import (
    build_dual_D,
    build_new_lobatto_D,
    build_standard_lobatto_D,
    rank_and_condition,
    verify_definition,
)
from .nlpsolve import MaxIterationsError, SingularKktError, solve
from .ocp import nonlinear_ivp, orbit_raising
from .orthopoly import lobatto_nodes
from .transcribe import Method, assemble_solution, transcribe

# The two tables below call their factories and builders through this
# module's globals, so one patched here (as the benchmark's tracer does) is
# the one that runs.
# name -> (definition, analytic truth or None)
_PROBLEMS = {
    "nonlinear-ivp": lambda: nonlinear_ivp(),
    "orbit-raising": lambda: (orbit_raising(), None),
}
# kind -> (matrix on the n-point grid, order it is exact to, expected rank)
_MATRICES = {
    "new": lambda ns, n: (build_new_lobatto_D(ns), n, n),
    "standard": lambda ns, n: (build_standard_lobatto_D(ns), n - 1, n - 1),
    "dual": lambda ns, n: (build_dual_D(ns, build_new_lobatto_D(ns)), n - 2, n - 1),
}
_METHODS = [m.value for m in Method]


def _fmt(*values: float) -> str:
    """The values as comma-separated fields of 17 significant digits: enough
    to reproduce any 64-bit float exactly.  One ``%`` template formats them
    all; ``%.17g`` is the C conversion that ``format(x, ".17g")`` makes."""
    return ",".join(["%.17g"] * len(values)) % values


def _write_csv(stream, header, lines) -> None:
    """The header fields, then each line of already joined fields, LF-ended."""
    stream.write("\n".join([",".join(header), *lines]) + "\n")


@dataclass(frozen=True)
class ConvergenceRecord:
    """One sweep entry: errors vs the analytic solution on one grid.

    A converged solve carries all three errors, a failed one none; they are
    never filled with zeros or NaNs.  ``converged`` is read off the errors.
    An outcome passed as the last argument is checked against them and not
    stored.
    """

    n: int
    method: str
    e_x: Optional[float] = None
    e_u: Optional[float] = None
    e_lambda: Optional[float] = None
    expect_converged: InitVar[Optional[bool]] = None

    def __post_init__(self, expect_converged):
        errors = (self.e_x, self.e_u, self.e_lambda)
        if errors.count(None) not in (0, 3):
            raise ValueError("a record carries every error or none")
        if any(value is not None and value < 0 for value in errors):
            raise ValueError("error norms must be non-negative")
        if expect_converged not in (None, self.converged):
            raise ValueError(f"errors {errors} contradict converged={expect_converged}")

    @property
    def converged(self) -> bool:
        return self.e_x is not None


# -- subcommands -----------------------------------------------------------


def cmd_nodes(n: int, stream) -> int:
    ns = lobatto_nodes(n)
    rows = [
        (tau, _fmt(tau, weight) + ",false")
        for tau, weight in zip(ns.collocation.tolist(), ns.weights.tolist())
    ]
    rows.append((ns.exceptional, _fmt(ns.exceptional) + ",,true"))
    rows.sort(key=lambda row: row[0])
    _write_csv(stream, ["tau", "weight", "is_exceptional"], [line for _, line in rows])
    return 0


def cmd_diffmat(n: int, kind: str, check: bool, stream, err_stream) -> int:
    mat, order, expected_rank = _MATRICES[kind](lobatto_nodes(n), n)
    header = [f"c{i}" for i in range(mat.entries.shape[1])]
    _write_csv(stream, header, [_fmt(*row) for row in mat.entries.tolist()])

    if not check:
        return 0
    residual = verify_definition(mat, order)
    rank, cond = rank_and_condition(mat.entries)
    print(f"definition residual at order {order}: {residual:.3e}", file=err_stream)
    print(f"numerical rank: {rank} (expected {expected_rank})", file=err_stream)
    print(f"condition number: {cond:.3e}", file=err_stream)
    ok = residual <= 1e-9 and rank == expected_rank
    return 0 if ok else 1


def cmd_solve(problem: str, n: int, method: str, out_path: str) -> int:
    defn, _ = _PROBLEMS[problem]()
    transcript = transcribe(defn, lobatto_nodes(n), Method(method))
    try:
        z, mult, report = solve(transcript)
    except (MaxIterationsError, SingularKktError) as exc:
        print(f"solve failed for {problem} at n={n} ({method}): {exc}", file=sys.stderr)
        return 1

    sol = assemble_solution(transcript, z, mult, report.final_kkt_norm)
    n_x, n_u = transcript.n_x, transcript.n_u
    rows = []
    for i, time in enumerate(sol.times.tolist()):
        if i < transcript.n:
            samples = (*sol.states[i], *sol.controls[i], *sol.costates[i])
            rows.append((time, _fmt(time, *samples)))
        else:  # the augmentation node carries state samples only
            rows.append((time, _fmt(time, *sol.states[i]) + "," * (n_u + n_x)))
    rows.sort(key=lambda row: row[0])

    header = ["t"] + [
        f"{name}_{j + 1}" for name, size in (("x", n_x), ("u", n_u), ("lambda", n_x))
        for j in range(size)
    ]
    with open(out_path, "w", encoding="utf-8", newline="") as handle:
        _write_csv(handle, header, [line for _, line in rows])
    return 0


def run_convergence_sweep(problem: str, n_min: int, n_max: int, methods: list) -> list:
    """Solve every (n, method) pair and compare against the analytic truth.

    Failed solves become records without errors; the sweep itself never
    raises on solver trouble.
    """
    defn, truth = _PROBLEMS[problem]()
    if truth is None:
        raise ValueError(f"problem {problem!r} has no analytic solution to sweep against")
    records = []
    for n in range(n_min, n_max + 1):
        for method in methods:
            transcript = transcribe(defn, lobatto_nodes(n), Method(method))
            try:
                z, mult, report = solve(transcript)
            except (MaxIterationsError, SingularKktError):
                records.append(ConvergenceRecord(n, method))
                continue
            sol = assemble_solution(transcript, z, mult, report.final_kkt_norm)
            tc = transcript.collocation_times
            errors = [
                float(np.max(np.abs(sample - np.reshape(exact(tc), sample.shape))))
                for sample, exact in (
                    (sol.states[: transcript.n], truth.state_fn),
                    (sol.controls, truth.control_fn),
                    (sol.costates, truth.costate_fn),
                )
            ]
            records.append(ConvergenceRecord(n, method, *errors))
    return records


# -- argument parsing ------------------------------------------------------


def _grid_size(text: str) -> int:
    """Type of ``--n`` and ``--n-min``: an integer of at least 3."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 3:
        raise argparse.ArgumentTypeError("must be at least 3")
    return n


def _method_names(text: str) -> list:
    """Type of ``--methods``: comma-separated method names, blanks dropped,
    each named once."""
    names = [name.strip() for name in text.split(",") if name.strip()]
    if not names:
        raise argparse.ArgumentTypeError("must name at least one method")
    for k, name in enumerate(names):
        if name not in _METHODS:
            raise argparse.ArgumentTypeError(f"unknown method {name!r}")
        if name in names[:k]:
            raise argparse.ArgumentTypeError(f"names {name!r} twice")
    return names


def _out_path(text: str) -> str:
    """Type of ``--out``: a file that can be written, in a directory that
    exists.  Nothing is created here, so a failed solve leaves no file."""
    folder = os.path.dirname(text) or "."
    if not os.path.isdir(folder):
        raise argparse.ArgumentTypeError(f"no such directory: {folder!r}")
    target = text if os.path.exists(text) else folder
    if os.path.isdir(text) or not os.access(target, os.W_OK):
        raise argparse.ArgumentTypeError(f"cannot write {text!r}")
    return text


def _run_converge(args, error) -> int:
    if args.n_max < args.n_min:
        error("argument --n-max: must not be smaller than --n-min")
    records = run_convergence_sweep(args.problem, args.n_min, args.n_max, args.methods)
    lines = [
        f"{rec.n},{rec.method},{_fmt(rec.e_x, rec.e_u, rec.e_lambda)},true"
        if rec.converged
        else f"{rec.n},{rec.method},,,,false"
        for rec in records
    ]
    with open(args.out, "w", encoding="utf-8", newline="") as handle:
        _write_csv(handle, ["n", "method", "E_x", "E_u", "E_lambda", "converged"], lines)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="auglobatto",
        description="Augmented Lobatto collocation: grids, matrices, benchmark solves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_nodes = sub.add_parser("nodes", help="dump collocation nodes and weights")
    p_nodes.add_argument("--n", type=_grid_size, required=True, help="number of collocation nodes")
    p_nodes.set_defaults(run=lambda args: cmd_nodes(args.n, sys.stdout))

    p_diff = sub.add_parser("diffmat", help="dump a differentiation matrix")
    p_diff.add_argument("--n", type=_grid_size, required=True)
    p_diff.add_argument("--kind", choices=list(_MATRICES), default="new")
    p_diff.add_argument(
        "--check",
        action="store_true",
        help="verify the definition and report rank and conditioning on stderr",
    )
    p_diff.set_defaults(
        run=lambda args: cmd_diffmat(args.n, args.kind, args.check, sys.stdout, sys.stderr)
    )

    p_solve = sub.add_parser("solve", help="solve one benchmark problem")
    p_solve.add_argument("--problem", choices=list(_PROBLEMS), required=True)
    p_solve.add_argument("--n", type=_grid_size, required=True)
    p_solve.add_argument("--method", choices=_METHODS, default=Method.NEW_LOBATTO.value)
    p_solve.add_argument("--out", type=_out_path, required=True, help="output CSV path")
    p_solve.set_defaults(run=lambda args: cmd_solve(args.problem, args.n, args.method, args.out))

    p_conv = sub.add_parser("converge", help="error sweep against the analytic solution")
    # Only the IVP has an analytic truth to sweep against.
    p_conv.add_argument("--problem", choices=["nonlinear-ivp"], required=True)
    p_conv.add_argument("--n-min", type=_grid_size, required=True)
    p_conv.add_argument("--n-max", type=int, required=True)
    p_conv.add_argument(
        "--methods",
        type=_method_names,
        required=True,
        help="comma-separated subset of: " + ", ".join(_METHODS),
    )
    p_conv.add_argument("--out", type=_out_path, required=True, help="output CSV path")
    p_conv.set_defaults(run=lambda args: _run_converge(args, p_conv.error))
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
