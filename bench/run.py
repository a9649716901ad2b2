"""Benchmark of the auglobatto pipeline, end to end and layer by layer.

    python3 bench/run.py --workload grids --seed 1 --seconds 40 --trace 0

Runs the workload's fixed op list in passes, one op after another from a
single client (a closed loop), until the next pass would overrun
``--seconds``; the seed only permutes the op order within each pass.  Every
op's output is checked against its correctness gate.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` alternates untraced and traced passes
and reports the per-layer metrics from the traced ones.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  The line before it holds the machine, sample counts,
reference comparison and gate details.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import glob
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_PATH = BENCH_DIR / "reference.json"

if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

from tracer import SOLVE, Tracer, patch_everywhere  # noqa: E402

# Setup samples: some before the first pass, one after every round, topped
# up at the end.  Machine speed drifts over seconds here, so samples spread
# over the run give a steadier median than a burst at the start.
SETUP_FIRST = 3
SETUP_MIN = 7
SETUP_CODE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import auglobatto
from auglobatto import ocp
ocp.orbit_raising()
ocp.nonlinear_ivp()
print(time.perf_counter() - start)
"""

# Criterion-7 and criterion-8 tolerances for the orbit solves.
ORBIT_LIMITS = {"boundary": 1e-8, "kkt_audit": 1e-7}
ORBIT_COEFF_LIMIT_N = 25
ORBIT_COEFF_LIMIT = 1e-6
# Criterion-5 tolerances for the augmented method at N=25.
IVP_GATE_N = 25
IVP_LIMITS = {"E_x": 1e-7, "E_u": 1e-6, "E_lambda": 1e-5}
# Criterion 5 also needs one converged square-method run whose costate
# error shows the rank loss.
SQUARE_MIN_E_LAMBDA = 1e-3


def load_package():
    """Import auglobatto from this checkout's src/; exit non-zero when it is absent."""
    init = SRC / "auglobatto" / "__init__.py"
    if not init.is_file():
        sys.exit(f"bench: {init} not found; run from the root of an auglobatto checkout")
    sys.path.insert(0, str(SRC))
    import auglobatto

    if Path(auglobatto.__file__).resolve() != init.resolve():
        sys.exit(f"bench: imported auglobatto from {auglobatto.__file__}, not {init}")
    import auglobatto.cli  # noqa: F401  (loads every layer module)


def _mod(name):
    """A package module, looked up at call time so that patches apply.

    ``auglobatto.transcribe`` is shadowed by the function of that name on the
    package, hence ``sys.modules``.
    """
    return sys.modules["auglobatto." + name]


def gate(measures, limits):
    """Names of the measures above their limit (NaN counts as above)."""
    return [
        f"{key}={measures[key]:.3e} > {limit:.0e}"
        for key, limit in limits.items()
        if not measures[key] <= limit
    ]


# -- ops ---------------------------------------------------------------------


@dataclass
class OpResult:
    failures: list  # gate failures; empty when the op passed
    solved: bool = True  # False when the op's solve did not converge
    bytes_out: int = 0
    info: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], OpResult]


def nodes_op(n):
    out = io.StringIO()
    code = _mod("cli").cmd_nodes(n, out)
    text = out.getvalue()
    failures = [] if code == 0 else [f"exit code {code}"]
    if text.count("\n") != n + 2:
        failures.append(f"{text.count(chr(10))} lines, expected {n + 2}")
    return OpResult(failures, bytes_out=len(text))


def diffmat_op(n, kind):
    out, err = io.StringIO(), io.StringIO()
    code = _mod("cli").cmd_diffmat(n, kind, True, out, err)
    failures = [] if code == 0 else [f"check exit code {code}: {err.getvalue()!r}"]
    return OpResult(failures, bytes_out=len(out.getvalue()) + len(err.getvalue()))


def orbit_measures(t, z, sol, audit):
    """Criterion-7/8 quantities of one solved orbit transcript."""
    measures = {
        "boundary": float(np.max(np.abs(t.constraints(z)[t.n_defect :]))),
        "kkt_audit": audit,
    }
    if t.n == ORBIT_COEFF_LIMIT_N:
        coeff = np.abs(_mod("transcribe").costate_leading_coefficient(sol.costates, t.ns))
        per_state_max = np.max(np.abs(sol.costates), axis=0)
        measures["leading_coeff_ratio"] = float(np.max(coeff / per_state_max))
    return measures


def orbit_limits(n):
    if n == ORBIT_COEFF_LIMIT_N:
        return {**ORBIT_LIMITS, "leading_coeff_ratio": ORBIT_COEFF_LIMIT}
    return ORBIT_LIMITS


def orbit_op(n):
    tr = _mod("transcribe")
    t = tr.transcribe(
        _mod("ocp").orbit_raising(), _mod("orthopoly").lobatto_nodes(n), tr.Method.NEW_LOBATTO
    )
    z, mult, report = _mod("nlpsolve").solve(t)
    sol = tr.assemble_solution(t, z, mult, report.final_kkt_norm)
    dual = _mod("discretization").build_dual_D(t.ns, t.diff)
    audit = tr.kkt_residuals(t, sol, t.ns, t.diff, dual).max_abs
    measures = orbit_measures(t, z, sol, audit)
    return OpResult(
        gate(measures, orbit_limits(n)), info={"r_f": float(sol.states[n - 1, 0]), **measures}
    )


def ivp_gate(n, method, record):
    if (n, method) != (IVP_GATE_N, "new-lobatto"):
        return []
    if not record.converged:
        return ["did not converge"]
    measures = {"E_x": record.e_x, "E_u": record.e_u, "E_lambda": record.e_lambda}
    return gate(measures, IVP_LIMITS)


def ivp_op(n, method):
    (record,) = _mod("cli").run_convergence_sweep("nonlinear-ivp", n, n, [method])
    return OpResult(
        ivp_gate(n, method, record),
        solved=record.converged,
        info={"method": method, "E_lambda": record.e_lambda},
    )


def square_costate_gate(results):
    """Criterion 5: some converged square-method run has E_lambda >= 1e-3.

    When none does, every square-method op fails: {op name: failure}."""
    square = [name for name, r in results.items() if r.info.get("method") == "standard-lobatto"]
    if any(
        results[name].solved and results[name].info["E_lambda"] >= SQUARE_MIN_E_LAMBDA
        for name in square
    ):
        return {}
    failure = f"no converged square-method run with E_lambda >= {SQUARE_MIN_E_LAMBDA:.0e}"
    return {name: failure for name in square}


@dataclass(frozen=True)
class Workload:
    ops: Callable[[], list]
    pass_gate: Callable[[dict], dict] = lambda results: {}


def _grids_ops():
    ops = []
    for n in range(3, 51):
        ops.append(Op(f"nodes:{n}", functools.partial(nodes_op, n)))
        for kind in ("new", "standard", "dual"):
            ops.append(Op(f"diffmat:{n}:{kind}", functools.partial(diffmat_op, n, kind)))
    return ops


def _orbit_ops(sizes):
    return [Op(f"orbit:{n}", functools.partial(orbit_op, n)) for n in sizes]


def _ivp_ops(augmented, square):
    return [
        Op(f"ivp:{method}:{n}", functools.partial(ivp_op, n, method))
        for method, sizes in (("new-lobatto", augmented), ("standard-lobatto", square))
        for n in sizes
    ]


# The "-full" workloads are the criterion-5 sweep and the orbit stall case
# as the acceptance tests run them.  One pass takes about a minute, so they
# are for one-off checks and reference making, not for repeated runs.
WORKLOADS = {
    "grids": Workload(_grids_ops),
    "orbit": Workload(functools.partial(_orbit_ops, (25, 45))),
    "ivp-sweep": Workload(
        functools.partial(_ivp_ops, range(6, 26), range(6, 14)), square_costate_gate
    ),
    "orbit-full": Workload(functools.partial(_orbit_ops, (25, 35, 45))),
    "ivp-sweep-full": Workload(
        functools.partial(_ivp_ops, range(6, 31), range(6, 31)), square_costate_gate
    ),
}


# -- solve capture -------------------------------------------------------------


@dataclass(frozen=True)
class SolveRecord:
    outcome: str  # converged, max_iterations or singular
    iterations: Optional[int]  # None for singular: that error carries no report
    z: Optional[np.ndarray]  # final iterate; only a converged solve returns one


class SolveLog:
    """Wraps ``solve`` in every namespace and records each call's outcome."""

    def __init__(self):
        self.records = []

    def wrap(self, solve):
        nlp = _mod("nlpsolve")

        @functools.wraps(solve)
        def wrapper(*args, **kwargs):
            try:
                z, mult, report = solve(*args, **kwargs)
            except nlp.MaxIterationsError as exc:
                self.records.append(SolveRecord("max_iterations", exc.report.iterations, None))
                raise
            except nlp.SingularKktError:
                self.records.append(SolveRecord("singular", None, None))
                raise
            self.records.append(SolveRecord("converged", report.iterations, z.copy()))
            return z, mult, report

        return wrapper

    def install(self):
        return patch_everywhere("auglobatto.nlpsolve", "solve", self.wrap)

    def take(self):
        records, self.records = self.records, []
        return records


# -- passes ------------------------------------------------------------------


@dataclass
class PassResult:
    wall_s: float
    op_s: dict  # op name -> seconds
    results: dict  # op name -> OpResult
    solves: dict  # op name -> [SolveRecord]

    def failed_ops(self):
        return sorted(name for name, r in self.results.items() if r.failures)


def run_pass(workload, ops, rng, log):
    order = list(ops)
    rng.shuffle(order)
    op_s, results, solves = {}, {}, {}
    log.take()
    start = time.perf_counter()
    for op in order:
        op_start = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # an op that raises is a failed op; keep measuring
            traceback.print_exc(file=sys.stderr)
            result = OpResult([f"raised {type(exc).__name__}: {exc}"], solved=False)
        op_s[op.name] = time.perf_counter() - op_start
        results[op.name] = result
        solves[op.name] = log.take()
    wall_s = time.perf_counter() - start
    for name, failure in workload.pass_gate(results).items():
        results[name].failures.append(failure)
    return PassResult(wall_s, op_s, results, solves)


def warm_up():
    """Load lazy numpy/BLAS state before timing: one tiny grid, one tiny solve."""
    diffmat_op(5, "new")
    ivp_op(6, "new-lobatto")


def run_passes(workload, seed, seconds, trace):
    """Untraced passes (alternating with traced ones when ``trace``) until the
    next round would end after ``seconds``; at least one round.  Returns the
    passes, the tracer and the setup samples taken between rounds."""
    ops = workload.ops()
    rng = random.Random(seed)
    log = SolveLog()
    undo = log.install()
    tracer = Tracer() if trace else None
    untraced, traced = [], []
    setup = [setup_sample() for _ in range(SETUP_FIRST)]
    try:
        warm_up()
        start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            untraced.append(run_pass(workload, ops, rng, log))
            if tracer is not None:
                with tracer:
                    traced.append(run_pass(workload, ops, rng, log))
            setup.append(setup_sample())
            now = time.perf_counter()
            if now - start + (now - round_start) > seconds:
                break
    finally:
        undo()
    setup += [setup_sample() for _ in range(SETUP_MIN - len(setup))]
    return untraced, traced, tracer, setup


# -- metrics -----------------------------------------------------------------


def setup_sample():
    """Seconds, in a fresh interpreter, from before ``import auglobatto``
    until both problem definitions are built."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return float(done.stdout)


def end_to_end_metrics(setup_samples, passes):
    op_times = [s for p in passes for s in p.op_s.values()]
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
        "op_p50_s": (statistics.median(op_times), "s"),
        "op_max_s": (statistics.median(max(p.op_s.values()) for p in passes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, untraced, traced, reference_check):
    """Per-pass averages over the traced passes, plus the tracing overhead."""
    k = len(traced)
    calls, busy, self_s = tracer.span_calls, tracer.busy, tracer.self_time
    records = [r for p in traced for recs in p.solves.values() for r in recs]
    iterations = sum(r.iterations for r in records if r.iterations is not None)
    inertia_tests = calls("nlpsolve.inertia")
    kkt_evals = tracer.calls_in_solve["transcribe.constraints"]
    all_passes = untraced + traced
    attempted = sum(len(p.results) for p in all_passes)
    not_ok = sum(
        1 for p in all_passes for r in p.results.values() if r.failures or not r.solved
    )
    counts = {
        "orthopoly.nodes.calls": calls("orthopoly.nodes"),
        "discretization.build.calls": calls("discretization.build"),
        "ocp.callbacks.calls": calls("ocp.callbacks"),
        "ocp.dynamics_jacobians.calls": tracer.calls[("ocp.callbacks", "dynamics_jacobians")],
        "transcribe.gradient.calls": calls("transcribe.gradient"),
        "transcribe.jacobian.calls": calls("transcribe.jacobian"),
        "transcribe.constraints.calls": calls("transcribe.constraints"),
        "nlpsolve.solve.calls": calls(SOLVE),
        "nlpsolve.iterations": iterations,
        "nlpsolve.inertia_tests": inertia_tests,
        "nlpsolve.kkt_evals": kkt_evals,
        "nlpsolve.max_iter_failures": tracer.raised[(SOLVE, "MaxIterationsError")],
        "nlpsolve.singular_failures": tracer.raised[(SOLVE, "SingularKktError")],
        "cli.bytes_out": sum(r.bytes_out for p in traced for r in p.results.values()),
    }
    seconds = {
        "orthopoly.nodes.busy_s": busy["orthopoly.nodes"],
        "discretization.build.busy_s": busy["discretization.build"],
        "discretization.check.busy_s": busy["discretization.check"],
        "ocp.callbacks.busy_s": busy["ocp.callbacks"],
        "transcribe.gradient.self_s": self_s["transcribe.gradient"],
        "transcribe.jacobian.self_s": self_s["transcribe.jacobian"],
        "transcribe.constraints.self_s": self_s["transcribe.constraints"],
        "transcribe.audit.busy_s": busy["transcribe.audit"],
        "nlpsolve.solve.busy_s": busy[SOLVE],
        "nlpsolve.solve.self_s": self_s[SOLVE],
        "nlpsolve.inertia_s": busy["nlpsolve.inertia"],
        "nlpsolve.linsolve_s": busy["nlpsolve.linsolve"],
        "nlpsolve.failed_busy_s": tracer.raised_busy[SOLVE],
        "cli.self_s": self_s["cli"],
    }
    metrics = {name: (value / k, "count") for name, value in counts.items()}
    metrics["cli.bytes_out"] = (counts["cli.bytes_out"] / k, "B")
    metrics.update({name: (value / k, "s") for name, value in seconds.items()})
    metrics.update(
        {
            "nlpsolve.iterations_per_kkt_eval": (_ratio(iterations, kkt_evals), "ratio"),
            "nlpsolve.iterations_per_inertia_test": (_ratio(iterations, inertia_tests), "ratio"),
            "nlpsolve.iterate_dev_max": (reference_check["iterate_dev_max"], "abs"),
            "nlpsolve.iteration_mismatches": (len(reference_check["mismatches"]), "count"),
            "fail_share": (_ratio(not_ok, attempted), "ratio"),
            "trace.overhead_s": (
                statistics.median(p.wall_s for p in traced)
                - statistics.median(p.wall_s for p in untraced),
                "s",
            ),
        }
    )
    return metrics


# -- reference -----------------------------------------------------------------


def load_reference():
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def check_reference(passes, reference):
    """Largest final-iterate deviation from the committed reference, and the
    ops whose outcome or iteration count differs from it."""
    dev_max = 0.0
    mismatches = {}
    for p in passes:
        for name, records in p.solves.items():
            for record in records:
                ref = reference.get(name)
                if ref is None:
                    mismatches[name] = "no reference"
                    continue
                if (record.outcome, record.iterations) != (ref["outcome"], ref["iterations"]):
                    mismatches[name] = (
                        f"reference {ref['outcome']}/{ref['iterations']}, "
                        f"got {record.outcome}/{record.iterations}"
                    )
                if record.z is not None and ref["z"] is not None and len(ref["z"]) == record.z.size:
                    dev_max = max(dev_max, float(np.max(np.abs(record.z - np.asarray(ref["z"])))))
    return {"iterate_dev_max": dev_max, "mismatches": mismatches}


# -- machine -------------------------------------------------------------------


def _blas_threads():
    """Threads OpenBLAS uses now, asked from the library numpy loaded."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_info():
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


# -- entry point ---------------------------------------------------------------


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = _parse_args(argv)
    load_package()
    workload = WORKLOADS[args.workload]
    untraced, traced, tracer, setup_samples = run_passes(
        workload, args.seed, args.seconds, args.trace
    )
    all_passes = untraced + traced
    reference_check = check_reference(all_passes, load_reference())
    if args.trace:
        metrics = layer_metrics(tracer, untraced, traced, reference_check)
    else:
        metrics = end_to_end_metrics(setup_samples, untraced)
    attempted = sum(len(p.results) for p in all_passes)
    failed_count = sum(len(p.failed_ops()) for p in all_passes)
    first_failures = {}
    for p in all_passes:
        for name in p.failed_ops():
            first_failures.setdefault(name, p.results[name].failures)
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "machine": machine_info(),
        "samples": {
            "setup_s": setup_samples,
            "untraced_pass_s": [p.wall_s for p in untraced],
            "traced_pass_s": [p.wall_s for p in traced],
            "ops_per_pass": len(untraced[0].results),
        },
        "failed_ops": first_failures,
        "unsolved_ops": sorted(
            name for name, r in untraced[0].results.items() if not r.solved
        ),
        "reference": reference_check,
        "orbit": {
            name: r.info for name, r in untraced[0].results.items() if name.startswith("orbit:")
        },
    }
    print(json.dumps(details, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": failed_count == 0,
                "attempted": attempted,
                "failed": failed_count,
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
