"""Command-line front end.

Four subcommands: ``nodes`` and ``diffmat`` dump grids and matrices to
stdout, ``solve`` runs one benchmark to a CSV file, ``converge`` sweeps a
range of grid sizes and records error norms per method.  All output is CSV
with a header row, UTF-8, LF line endings, and numbers printed with 17
significant digits so files round-trip and diff cleanly.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import InitVar, dataclass
from typing import Optional

import numpy as np

from .discretization import (
    build_dual_D,
    build_new_lobatto_D,
    build_standard_lobatto_D,
    condition_number,
    numerical_rank,
    verify_definition,
)
from .nlpsolve import MaxIterationsError, SingularKktError, SolverOptions, solve
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


def _fmt(value: float) -> str:
    """17 significant digits: enough to reproduce any 64-bit float exactly."""
    return format(float(value), ".17g")


def _write_csv(stream, header, rows) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


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
    rows = [(tau, _fmt(weight), "false") for tau, weight in zip(ns.collocation, ns.weights)]
    rows.append((ns.exceptional, "", "true"))
    rows.sort(key=lambda row: row[0])
    header = ["tau", "weight", "is_exceptional"]
    _write_csv(stream, header, [(_fmt(tau), weight, flag) for tau, weight, flag in rows])
    return 0


def cmd_diffmat(n: int, kind: str, check: bool, stream, err_stream) -> int:
    mat, order, expected_rank = _MATRICES[kind](lobatto_nodes(n), n)
    header = [f"c{i}" for i in range(mat.entries.shape[1])]
    _write_csv(stream, header, ([_fmt(v) for v in row] for row in mat.entries))

    if not check:
        return 0
    residual = verify_definition(mat, order)
    rank = numerical_rank(mat.entries)
    cond = condition_number(mat.entries)
    print(f"definition residual at order {order}: {residual:.3e}", file=err_stream)
    print(f"numerical rank: {rank} (expected {expected_rank})", file=err_stream)
    print(f"condition number: {cond:.3e}", file=err_stream)
    ok = residual <= 1e-9 and rank == expected_rank
    return 0 if ok else 1


def cmd_solve(
    problem: str, n: int, method: str, out_path: str, opts: SolverOptions = SolverOptions()
) -> int:
    defn, _ = _PROBLEMS[problem]()
    transcript = transcribe(defn, lobatto_nodes(n), Method(method))
    try:
        z, mult, report = solve(transcript, opts)
    except (MaxIterationsError, SingularKktError) as exc:
        print(f"solve failed for {problem} at n={n} ({method}): {exc}", file=sys.stderr)
        return 1

    sol = assemble_solution(transcript, z, mult, report.final_kkt_norm)
    n_x, n_u = transcript.n_x, transcript.n_u
    rows = []
    for i, time in enumerate(sol.times):
        fields = [_fmt(v) for v in sol.states[i]]
        if i < transcript.n:
            fields += [_fmt(v) for v in (*sol.controls[i], *sol.costates[i])]
        else:  # the augmentation node carries state samples only
            fields += [""] * (n_u + n_x)
        rows.append((float(time), fields))
    rows.sort(key=lambda row: row[0])

    header = ["t"] + [
        f"{name}_{j + 1}" for name, size in (("x", n_x), ("u", n_u), ("lambda", n_x))
        for j in range(size)
    ]
    with open(out_path, "w", encoding="utf-8", newline="") as handle:
        _write_csv(handle, header, ([_fmt(time)] + fields for time, fields in rows))
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
    """Type of ``--methods``: comma-separated method names, blanks dropped."""
    names = [name.strip() for name in text.split(",") if name.strip()]
    if not names:
        raise argparse.ArgumentTypeError("must name at least one method")
    for name in names:
        if name not in _METHODS:
            raise argparse.ArgumentTypeError(f"unknown method {name!r}")
    return names


def _run_solve(args, error) -> int:
    try:
        opts = SolverOptions(kkt_tolerance=args.tol, max_iterations=args.max_iter)
    except ValueError as exc:
        error(str(exc))
    return cmd_solve(args.problem, args.n, args.method, args.out, opts)


def _run_converge(args, error) -> int:
    if args.n_max < args.n_min:
        error("--n-max must not be smaller than --n-min")
    records = run_convergence_sweep(args.problem, args.n_min, args.n_max, args.methods)
    rows = (
        [str(rec.n), rec.method]
        + ["" if e is None else _fmt(e) for e in (rec.e_x, rec.e_u, rec.e_lambda)]
        + ["true" if rec.converged else "false"]
        for rec in records
    )
    with open(args.out, "w", encoding="utf-8", newline="") as handle:
        _write_csv(handle, ["n", "method", "E_x", "E_u", "E_lambda", "converged"], rows)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="auglobatto",
        description="Augmented Lobatto collocation: grids, matrices, benchmark solves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_nodes = sub.add_parser("nodes", help="dump collocation nodes and weights")
    p_nodes.add_argument("--n", type=_grid_size, required=True, help="number of collocation nodes")
    p_nodes.set_defaults(run=lambda args, error: cmd_nodes(args.n, sys.stdout))

    p_diff = sub.add_parser("diffmat", help="dump a differentiation matrix")
    p_diff.add_argument("--n", type=_grid_size, required=True)
    p_diff.add_argument("--kind", choices=list(_MATRICES), default="new")
    p_diff.add_argument(
        "--check",
        action="store_true",
        help="verify the definition and report rank and conditioning on stderr",
    )
    p_diff.set_defaults(
        run=lambda args, error: cmd_diffmat(args.n, args.kind, args.check, sys.stdout, sys.stderr)
    )

    p_solve = sub.add_parser("solve", help="solve one benchmark problem")
    p_solve.add_argument("--problem", choices=list(_PROBLEMS), required=True)
    p_solve.add_argument("--n", type=_grid_size, required=True)
    p_solve.add_argument("--method", choices=_METHODS, default=Method.NEW_LOBATTO.value)
    p_solve.add_argument("--tol", type=float, default=SolverOptions.kkt_tolerance)
    p_solve.add_argument("--max-iter", type=int, default=SolverOptions.max_iterations)
    p_solve.add_argument("--out", required=True, help="output CSV path")
    p_solve.set_defaults(run=_run_solve)

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
    p_conv.add_argument("--out", required=True, help="output CSV path")
    p_conv.set_defaults(run=_run_converge)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    return args.run(args, parser.error)


if __name__ == "__main__":
    sys.exit(main())
