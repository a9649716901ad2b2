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
from .nlpsolve import (
    MaxIterationsError,
    SingularKktError,
    SolverOptions,
    solve,
)
from .ocp import nonlinear_ivp, orbit_raising
from .orthopoly import lobatto_nodes
from .transcribe import Method, assemble_solution, transcribe

def _fmt(value: float) -> str:
    """17 significant digits: enough to reproduce any 64-bit float exactly."""
    return format(float(value), ".17g")


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


def _load_problem(name: str):
    if name == "nonlinear-ivp":
        return nonlinear_ivp()
    if name == "orbit-raising":
        return orbit_raising(), None
    raise ValueError(f"unknown problem {name!r}")


def _bool_field(flag: bool) -> str:
    return "true" if flag else "false"


# -- subcommands -----------------------------------------------------------


def cmd_nodes(n: int, stream) -> int:
    ns = lobatto_nodes(n)
    rows = [(float(ns.collocation[k]), _fmt(ns.weights[k]), "false") for k in range(ns.n)]
    rows.append((float(ns.exceptional), "", "true"))
    rows.sort(key=lambda row: row[0])
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["tau", "weight", "is_exceptional"])
    for tau, weight, flag in rows:
        writer.writerow([_fmt(tau), weight, flag])
    return 0


def cmd_diffmat(n: int, kind: str, check: bool, stream, err_stream) -> int:
    ns = lobatto_nodes(n)
    if kind == "new":
        mat, order, expected_rank = build_new_lobatto_D(ns), n, n
    elif kind == "standard":
        mat, order, expected_rank = build_standard_lobatto_D(ns), n - 1, n - 1
    elif kind == "dual":
        mat = build_dual_D(ns, build_new_lobatto_D(ns))
        order, expected_rank = n - 2, n - 1
    else:
        raise ValueError(f"unknown matrix kind {kind!r}")

    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow([f"c{i}" for i in range(mat.entries.shape[1])])
    for row in mat.entries:
        writer.writerow([_fmt(v) for v in row])

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
    problem: str,
    n: int,
    method: str,
    out_path: str,
    opts: SolverOptions = SolverOptions(),
    err_stream=None,
) -> int:
    err_stream = err_stream if err_stream is not None else sys.stderr
    defn, _ = _load_problem(problem)
    transcript = transcribe(defn, lobatto_nodes(n), Method(method))
    try:
        z, mult, report = solve(transcript, opts)
    except (MaxIterationsError, SingularKktError) as exc:
        print(f"solve failed for {problem} at n={n} ({method}): {exc}", file=err_stream)
        return 1

    sol = assemble_solution(transcript, z, mult, report.final_kkt_norm)
    n_x, n_u = transcript.n_x, transcript.n_u
    rows = []
    for i, time in enumerate(sol.times):
        x_fields = [_fmt(v) for v in sol.states[i]]
        if i < transcript.n:
            u_fields = [_fmt(v) for v in sol.controls[i]]
            lam_fields = [_fmt(v) for v in sol.costates[i]]
        else:
            # The augmentation node carries state samples only.
            u_fields = [""] * n_u
            lam_fields = [""] * n_x
        rows.append((float(time), x_fields + u_fields + lam_fields))
    rows.sort(key=lambda row: row[0])

    header = (
        ["t"]
        + [f"x_{j + 1}" for j in range(n_x)]
        + [f"u_{j + 1}" for j in range(n_u)]
        + [f"lambda_{j + 1}" for j in range(n_x)]
    )
    with open(out_path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for time, fields in rows:
            writer.writerow([_fmt(time)] + fields)
    return 0


def run_convergence_sweep(
    problem: str, n_min: int, n_max: int, methods: list
) -> list:
    """Solve every (n, method) pair and compare against the analytic truth.

    Failed solves become records without errors; the sweep itself never
    raises on solver trouble.
    """
    defn, truth = _load_problem(problem)
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
            x_true = np.atleast_2d(np.asarray(truth.state_fn(tc), dtype=float).T).T
            u_true = np.atleast_2d(np.asarray(truth.control_fn(tc), dtype=float).T).T
            lam_true = np.atleast_2d(np.asarray(truth.costate_fn(tc), dtype=float).T).T
            records.append(
                ConvergenceRecord(
                    n,
                    method,
                    float(np.max(np.abs(sol.states[: transcript.n] - x_true))),
                    float(np.max(np.abs(sol.controls - u_true))),
                    float(np.max(np.abs(sol.costates - lam_true))),
                )
            )
    return records


def cmd_converge(problem: str, n_min: int, n_max: int, methods: list, out_path: str) -> int:
    records = run_convergence_sweep(problem, n_min, n_max, methods)
    with open(out_path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["n", "method", "E_x", "E_u", "E_lambda", "converged"])
        for rec in records:
            writer.writerow(
                [
                    str(rec.n),
                    rec.method,
                    "" if rec.e_x is None else _fmt(rec.e_x),
                    "" if rec.e_u is None else _fmt(rec.e_u),
                    "" if rec.e_lambda is None else _fmt(rec.e_lambda),
                    _bool_field(rec.converged),
                ]
            )
    return 0


# -- argument parsing ------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="auglobatto",
        description="Augmented Lobatto collocation: grids, matrices, benchmark solves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_nodes = sub.add_parser("nodes", help="dump collocation nodes and weights")
    p_nodes.add_argument("--n", type=int, required=True, help="number of collocation nodes")

    p_diff = sub.add_parser("diffmat", help="dump a differentiation matrix")
    p_diff.add_argument("--n", type=int, required=True)
    p_diff.add_argument("--kind", choices=["new", "standard", "dual"], default="new")
    p_diff.add_argument(
        "--check",
        action="store_true",
        help="verify the definition and report rank and conditioning on stderr",
    )

    p_solve = sub.add_parser("solve", help="solve one benchmark problem")
    p_solve.add_argument(
        "--problem", choices=["nonlinear-ivp", "orbit-raising"], required=True
    )
    p_solve.add_argument("--n", type=int, required=True)
    p_solve.add_argument("--method", choices=[m.value for m in Method], default="new-lobatto")
    p_solve.add_argument("--tol", type=float, default=1e-10)
    p_solve.add_argument("--max-iter", type=int, default=200)
    p_solve.add_argument("--out", required=True, help="output CSV path")

    p_conv = sub.add_parser("converge", help="error sweep against the analytic solution")
    p_conv.add_argument("--problem", choices=["nonlinear-ivp"], required=True)
    p_conv.add_argument("--n-min", type=int, required=True)
    p_conv.add_argument("--n-max", type=int, required=True)
    p_conv.add_argument(
        "--methods",
        required=True,
        help="comma-separated subset of: " + ", ".join(m.value for m in Method),
    )
    p_conv.add_argument("--out", required=True, help="output CSV path")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command == "nodes":
        if args.n < 3:
            parser.error("--n must be at least 3")
        return cmd_nodes(args.n, sys.stdout)

    if args.command == "diffmat":
        if args.n < 3:
            parser.error("--n must be at least 3")
        return cmd_diffmat(args.n, args.kind, args.check, sys.stdout, sys.stderr)

    if args.command == "solve":
        if args.n < 3:
            parser.error("--n must be at least 3")
        try:
            opts = SolverOptions(kkt_tolerance=args.tol, max_iterations=args.max_iter)
        except ValueError as exc:
            parser.error(str(exc))
        return cmd_solve(args.problem, args.n, args.method, args.out, opts)

    if args.command == "converge":
        if args.n_min < 3:
            parser.error("--n-min must be at least 3")
        if args.n_max < args.n_min:
            parser.error("--n-max must not be smaller than --n-min")
        methods = [m.strip() for m in args.methods.split(",") if m.strip()]
        if not methods:
            parser.error("--methods must name at least one method")
        for method in methods:
            if method not in {m.value for m in Method}:
                parser.error(f"unknown method {method!r}")
        return cmd_converge(args.problem, args.n_min, args.n_max, methods, args.out)

    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
