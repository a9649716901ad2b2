"""Tests of the benchmark itself: patching, counts, self time, gates, output.

    python3 -m pytest -q bench
"""

import dataclasses
import json
import math
import random
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from tracer import FUNCTION_SPANS, OCP_FACTORIES, Tracer, package_namespaces  # noqa: E402

run.load_package()
cli = sys.modules["auglobatto.cli"]
disc = sys.modules["auglobatto.discretization"]
nlp = sys.modules["auglobatto.nlpsolve"]
ocp = sys.modules["auglobatto.ocp"]
orth = sys.modules["auglobatto.orthopoly"]
# The package attribute ``transcribe`` is the function, not the submodule.
tr = sys.modules["auglobatto.transcribe"]


def _holders():
    """(namespace, name, original) for every package namespace holding a
    function the tracer wraps."""
    targets = [(m, n) for m, names in FUNCTION_SPANS.values() for n in names]
    targets += [("auglobatto.ocp", n) for n in OCP_FACTORIES]
    holders = []
    for module_name, name in targets:
        original = getattr(sys.modules[module_name], name)
        holders += [
            (module, name, original)
            for module in package_namespaces()
            if vars(module).get(name) is original
        ]
    return holders


def test_tracer_patches_every_namespace_and_restores():
    holders = _holders()
    held = {(module.__name__, name) for module, name, _ in holders}
    # Names imported into other modules, including the shadowed transcribe module.
    for expected in [
        ("auglobatto", "solve"),
        ("auglobatto.cli", "solve"),
        ("auglobatto.cli", "lobatto_nodes"),
        ("auglobatto.cli", "build_dual_D"),
        ("auglobatto.cli", "nonlinear_ivp"),
        ("auglobatto.transcribe", "build_new_lobatto_D"),
        ("auglobatto.transcribe", "build_standard_lobatto_D"),
    ]:
        assert expected in held
    eigvalsh = np.linalg.eigvalsh
    constraints = tr.Transcript.constraints
    with Tracer():
        for module, name, original in holders:
            current = getattr(module, name)
            assert current is not original and current.__wrapped__ is original
        assert np.linalg.eigvalsh.__wrapped__ is eigvalsh
        assert tr.Transcript.constraints.__wrapped__ is constraints
    for module, name, original in holders:
        assert getattr(module, name) is original
    assert np.linalg.eigvalsh is eigvalsh
    assert tr.Transcript.constraints is constraints


def test_counts_on_augmented_ivp_6_match_hand_derivation():
    n = 6
    with Tracer() as tracer:
        t = tr.transcribe(ocp.nonlinear_ivp()[0], orth.lobatto_nodes(n), tr.Method.NEW_LOBATTO)
        z, mult, report = nlp.solve(t)
    iters = report.iterations
    n_z = t.n_z
    assert n_z == 2 * n + 1
    # Line-search trials: alpha = 2^-k takes k + 1 trial KKT vectors.
    trials = sum(round(-math.log2(alpha)) + 1 for _, _, alpha in report.step_history)
    # One KKT vector per loop pass (iters steps plus the converged check) and per trial.
    kkt_vectors = iters + 1 + trials
    # Gradient and Jacobian: the lstsq start, every KKT vector, and the
    # Hessian's base point plus one bump per unknown in every step; the
    # step also takes one more Jacobian for the KKT matrix.
    gradients = 1 + kkt_vectors + iters * (n_z + 1)
    jacobians = gradients + iters
    calls = tracer.calls
    assert tracer.span_calls("transcribe.constraints") == kkt_vectors
    assert tracer.calls_in_solve["transcribe.constraints"] == kkt_vectors
    assert tracer.span_calls("transcribe.gradient") == gradients
    assert tracer.span_calls("transcribe.jacobian") == jacobians
    # One KKT solve per accepted step, one lstsq for the starting multipliers.
    # Inertia tests: one per step plus one per regularization bump; the report
    # does not record the bumps, so only the lower bound is derivable.
    assert calls[("nlpsolve.linsolve", "solve")] == iters
    assert tracer.span_calls("nlpsolve.inertia") >= iters
    assert calls[("nlpsolve.linsolve", "lstsq")] == 1
    # Node-wise callbacks, plus one of each in the transcript's shape check.
    assert calls[("ocp.callbacks", "dynamics_jacobians")] == n * jacobians + 1
    assert calls[("ocp.callbacks", "dynamics")] == n * kkt_vectors + 1
    assert calls[("ocp.callbacks", "running_cost_gradients")] == n * gradients
    assert calls[("ocp.callbacks", "boundary_initial_jacobian")] == jacobians
    assert calls[("ocp.callbacks", "initial_guess")] == (n + 1) + n + 1
    assert tracer.span_calls(run.SOLVE) == 1
    assert tracer.span_calls("orthopoly.nodes") == 1
    assert tracer.span_calls("discretization.build") == 1


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_nested_fake():
    clock = FakeClock()
    tracer = Tracer(clock)

    def advance(seconds):
        clock.now += seconds

    leaf = tracer.wrap("leaf", lambda: advance(2.0), name="leaf")
    linalg = tracer.wrap("linalg", lambda: advance(5.0), name="linalg", attributed=True)

    def body():
        advance(1.0)
        leaf()
        advance(3.0)
        leaf()
        linalg()

    outer = tracer.wrap("outer", body)

    def recurse(depth):
        advance(1.0)
        if depth:
            nested(depth - 1)

    nested = tracer.wrap("nested", recurse)

    def fail():
        advance(7.0)
        raise ValueError("boom")

    failing = tracer.wrap("outer", fail)

    outer()
    nested(2)
    try:
        failing()
    except ValueError:
        pass
    # The attributed call's 5 s stay in outer's self time.
    assert tracer.busy["outer"] == 13.0 + 7.0
    assert tracer.self_time["outer"] == 9.0 + 7.0
    assert tracer.busy["leaf"] == tracer.self_time["leaf"] == 4.0
    assert tracer.busy["linalg"] == 5.0
    assert tracer.span_calls("leaf") == 2
    # Nested calls of one span count their time once in busy.
    assert tracer.busy["nested"] == tracer.self_time["nested"] == 3.0
    assert tracer.span_calls("nested") == 3
    assert tracer.raised[("outer", "ValueError")] == 1
    assert tracer.raised_busy["outer"] == 7.0


def test_solve_only_span_ignores_calls_outside_a_solve():
    tracer = Tracer()
    inner = tracer.wrap("nlpsolve.inertia", lambda: None, solve_only=True, attributed=True)
    inner()
    assert tracer.span_calls("nlpsolve.inertia") == 0
    tracer.wrap(run.SOLVE, inner)()
    assert tracer.span_calls("nlpsolve.inertia") == 1


def test_corrupted_orbit_solution_trips_its_gate():
    n = 25
    t = tr.transcribe(ocp.orbit_raising(), orth.lobatto_nodes(n), tr.Method.NEW_LOBATTO)
    z, mult, report = nlp.solve(t)
    sol = tr.assemble_solution(t, z, mult, report.final_kkt_norm)
    audit = tr.kkt_residuals(t, sol, t.ns, t.diff, disc.build_dual_D(t.ns, t.diff)).max_abs
    assert run.gate(run.orbit_measures(t, z, sol, audit), run.orbit_limits(n)) == []

    bad_z = z.copy()
    bad_z[0] += 1e-4  # breaks the initial boundary condition
    assert run.gate(run.orbit_measures(t, bad_z, sol, audit), run.orbit_limits(n))

    p_top, _ = orth.legendre_eval(n - 1, t.ns.collocation)
    wobbly = dataclasses.replace(sol, costates=sol.costates + 1e-3 * p_top[:, None])
    failures = run.gate(run.orbit_measures(t, z, wobbly, audit), run.orbit_limits(n))
    assert [f.split("=")[0] for f in failures] == ["leading_coeff_ratio"]

    bad_audit = tr.kkt_residuals(t, wobbly, t.ns, t.diff, disc.build_dual_D(t.ns, t.diff))
    assert run.gate(run.orbit_measures(t, z, sol, bad_audit.max_abs), run.orbit_limits(n))


def test_corrupted_ivp_record_trips_its_gate():
    good = cli.ConvergenceRecord(25, "new-lobatto", 1e-9, 1e-8, 1e-7, True)
    assert run.ivp_gate(25, "new-lobatto", good) == []
    bad = cli.ConvergenceRecord(25, "new-lobatto", 1e-5, 1e-8, 1e-7, True)
    assert run.ivp_gate(25, "new-lobatto", bad) == ["E_x=1.000e-05 > 1e-07"]
    lost = cli.ConvergenceRecord(25, "new-lobatto", None, None, None, False)
    assert run.ivp_gate(25, "new-lobatto", lost) == ["did not converge"]
    # Square runs below the costate-error floor fail together.
    results = {
        "ivp:standard-lobatto:9": run.OpResult([], True, info={"method": "standard-lobatto", "E_lambda": 1e-6}),
        "ivp:standard-lobatto:7": run.OpResult([], False, info={"method": "standard-lobatto", "E_lambda": None}),
    }
    assert sorted(run.square_costate_gate(results)) == sorted(results)
    results["ivp:standard-lobatto:9"].info["E_lambda"] = 0.5
    assert run.square_costate_gate(results) == {}


def test_failed_definition_check_trips_the_grids_gate(monkeypatch):
    assert run.diffmat_op(8, "dual").failures == []
    monkeypatch.setattr(cli, "verify_definition", lambda D, order: 1.0)
    assert run.diffmat_op(8, "dual").failures


def test_raising_op_counts_as_failed():
    def explode():
        raise RuntimeError("no")

    workload = run.Workload(lambda: [run.Op("boom", explode)])
    log = run.SolveLog()
    result = run.run_pass(workload, workload.ops(), random.Random(0), log)
    assert result.failed_ops() == ["boom"]
    assert not result.results["boom"].solved


def test_output_names_every_declared_metric(capsys):
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        run.main(["--workload", "grids", "--seed", "3", "--seconds", "0.1", "--trace", str(trace)])
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        assert result["correct"] and result["failed"] == 0
        assert {m["name"]: m["unit"] for m in declared[section]} == {
            name: m["unit"] for name, m in result["metrics"].items()
        }
