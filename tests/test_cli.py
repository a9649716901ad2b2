import csv
import io

import numpy as np
import pytest

from auglobatto import cli
from auglobatto.discretization import (
    build_dual_D,
    build_new_lobatto_D,
    build_standard_lobatto_D,
    condition_number,
    numerical_rank,
)
from auglobatto.orthopoly import lobatto_nodes

# Closed forms for the five-point grid (n=4): interior collocation nodes at
# +-1/sqrt(5), weights 1/6 and 5/6, augmentation node exactly zero.
NODES_N4_CSV = """\
tau,weight,is_exceptional
-1,0.16666666666666666,false
-0.44721359549995793,0.83333333333333337,false
0,,true
0.44721359549995793,0.83333333333333337,false
1,0.16666666666666666,false
"""

# Four-point Gauss-Legendre abscissa nearest zero: the n=5 augmentation node.
P4_SMALL_ROOT = 0.3399810435848563

LAMBDA_STAR_AT_0 = -0.011924945852769531718
X_STAR_AT_2 = 0.0089637968028578800764


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


# -- nodes -----------------------------------------------------------------


def test_nodes_n4_exact_output(capsys):
    code, out, _ = run(capsys, "nodes", "--n", "4")
    assert code == 0
    assert out == NODES_N4_CSV


def test_nodes_n5_exceptional_row(capsys):
    _, out, _ = run(capsys, "nodes", "--n", "5")
    header, rows = parse(out)
    assert header == ["tau", "weight", "is_exceptional"]
    assert len(rows) == 6
    marked = [r for r in rows if r[2] == "true"]
    assert len(marked) == 1
    assert marked[0][1] == ""
    assert abs(float(marked[0][0]) - P4_SMALL_ROOT) < 1e-13


@pytest.mark.parametrize("n", [3, 4, 5, 12])
def test_nodes_weights_sum_to_two(capsys, n):
    _, out, _ = run(capsys, "nodes", "--n", str(n))
    _, rows = parse(out)
    total = sum(float(r[1]) for r in rows if r[1] != "")
    assert abs(total - 2.0) < 1e-13
    taus = [float(r[0]) for r in rows]
    assert taus == sorted(taus)


def test_nodes_rejects_small_n(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["nodes", "--n", "2"])
    assert err.value.code == 2


CONVERGE = ["converge", "--problem", "nonlinear-ivp", "--out", "never.csv"]


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["diffmat", "--n", "2"], "--n"),
        (["solve", "--problem", "nonlinear-ivp", "--n", "2", "--out", "never.csv"], "--n"),
        (CONVERGE + ["--n-min", "2", "--n-max", "8", "--methods", "new-lobatto"], "--n-min"),
        (CONVERGE + ["--n-min", "8", "--n-max", "7", "--methods", "new-lobatto"], "--n-max"),
        (CONVERGE + ["--n-min", "6", "--n-max", "8", "--methods", ","], "--methods"),
        (CONVERGE + ["--n-min", "6", "--n-max", "8", "--methods", "new-lobatto,bogus"], "--methods"),
        (
            CONVERGE + ["--n-min", "3", "--n-max", "5", "--methods", "new-lobatto,new-lobatto"],
            "--methods",
        ),
        (
            ["solve", "--problem", "nonlinear-ivp", "--n", "6", "--out", "missing/never.csv"],
            "--out",
        ),
        (
            CONVERGE[:-1]
            + ["missing/never.csv", "--n-min", "6", "--n-max", "8", "--methods", "new-lobatto"],
            "--out",
        ),
    ],
    ids=[
        "diffmat-n",
        "solve-n",
        "n-min",
        "n-max-below-n-min",
        "no-method",
        "unknown-method",
        "repeated-method",
        "solve-out",
        "converge-out",
    ],
)
def test_usage_error_exits_2_and_names_the_flag(argv, flag, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    assert err.value.code == 2
    assert f"auglobatto {argv[0]}: error: argument {flag}: " in capsys.readouterr().err
    assert not (tmp_path / "never.csv").exists()


def csv_module_recipe(header, rows):
    """The CSV as the csv module writes it, each number as format(v, ".17g")."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(
        [v if isinstance(v, str) else format(float(v), ".17g") for v in row] for row in rows
    )
    return out.getvalue()


@pytest.mark.parametrize("kind", ["nodes", "new", "standard", "dual"])
def test_tables_match_the_csv_module_byte_for_byte(kind):
    builders = {
        "new": build_new_lobatto_D,
        "standard": build_standard_lobatto_D,
        "dual": lambda ns: build_dual_D(ns, build_new_lobatto_D(ns)),
    }
    for n in range(3, 51):
        ns = lobatto_nodes(n)
        out = io.StringIO()
        if kind == "nodes":
            rows = [(tau, w, "false") for tau, w in zip(ns.collocation, ns.weights)]
            rows = sorted(rows + [(ns.exceptional, "", "true")], key=lambda row: row[0])
            expected = csv_module_recipe(["tau", "weight", "is_exceptional"], rows)
            assert cli.cmd_nodes(n, out) == 0
        else:
            entries = builders[kind](ns).entries
            expected = csv_module_recipe([f"c{i}" for i in range(entries.shape[1])], entries)
            assert cli.cmd_diffmat(n, kind, False, out, io.StringIO()) == 0
        assert out.getvalue() == expected, n


def test_fmt_is_format_17g_on_edge_values():
    values = [
        -0.0,
        5e-324,
        1.7976931348623157e308,
        float("nan"),
        float("inf"),
        float("-inf"),
        1.0,
        np.float64(0.1),
    ]
    assert cli._fmt(*values) == ",".join(format(float(v), ".17g") for v in values)
    assert cli._fmt(*np.array(values).tolist()) == cli._fmt(*values)
    for value in values:
        assert cli._fmt(value) == format(float(value), ".17g")


def test_nodes_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "nodes", "--n", "17")
    _, second, _ = run(capsys, "nodes", "--n", "17")
    assert first == second


# -- diffmat ---------------------------------------------------------------


@pytest.mark.parametrize(
    "kind,rows,cols", [("new", 6, 7), ("standard", 6, 6), ("dual", 6, 6)]
)
def test_diffmat_shapes(capsys, kind, rows, cols):
    code, out, _ = run(capsys, "diffmat", "--n", "6", "--kind", kind)
    assert code == 0
    header, body = parse(out)
    assert header == [f"c{i}" for i in range(cols)]
    assert len(body) == rows
    assert all(len(r) == cols for r in body)


@pytest.mark.parametrize("kind", ["new", "standard", "dual"])
def test_diffmat_check_passes(capsys, kind):
    code, _, err = run(capsys, "diffmat", "--n", "10", "--kind", kind, "--check")
    assert code == 0
    assert "definition residual" in err
    assert "numerical rank" in err
    assert "condition number" in err


@pytest.mark.parametrize("kind", ["new", "standard", "dual"])
def test_diffmat_check_takes_one_svd(kind, monkeypatch):
    svd = np.linalg.svd
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    err = io.StringIO()
    assert cli.cmd_diffmat(10, kind, True, io.StringIO(), err) == 0
    assert len(calls) == 1
    monkeypatch.undo()

    mat, _, expected_rank = cli._MATRICES[kind](lobatto_nodes(10), 10)
    lines = err.getvalue().splitlines()
    assert lines[1] == f"numerical rank: {numerical_rank(mat.entries)} (expected {expected_rank})"
    assert lines[2] == f"condition number: {condition_number(mat.entries):.3e}"


def test_dual_check_passes_up_to_n80():
    # The dual matrix's definition residual is sensitive to node accuracy:
    # nodes 9e-16 off the roots put it at 1.1e-9..1.9e-9 for N=62, 66-72
    # and 76-80, past the 1e-9 bound.
    failed = [
        n
        for n in range(51, 81)
        if cli.cmd_diffmat(n, "dual", True, io.StringIO(), io.StringIO()) != 0
    ]
    assert failed == []


def test_diffmat_values_round_trip(capsys):
    _, out, _ = run(capsys, "diffmat", "--n", "8")
    _, body = parse(out)
    dumped = np.array([[float(v) for v in row] for row in body])
    np.testing.assert_array_equal(dumped, build_new_lobatto_D(lobatto_nodes(8)).entries)


# -- solve -----------------------------------------------------------------


@pytest.fixture(scope="module")
def ivp_solve_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("solve") / "ivp25.csv"
    code = cli.main(
        ["solve", "--problem", "nonlinear-ivp", "--n", "25", "--out", str(path)]
    )
    assert code == 0
    return path.read_text(encoding="utf-8")


def test_solve_ivp_row_count_and_header(ivp_solve_csv):
    header, rows = parse(ivp_solve_csv)
    assert header == ["t", "x_1", "u_1", "lambda_1"]
    assert len(rows) == 26


def test_solve_ivp_endpoint_costates(ivp_solve_csv):
    _, rows = parse(ivp_solve_csv)
    first, last = rows[0], rows[-1]
    assert float(first[0]) == 0.0
    assert abs(float(first[1]) - 1.0) < 1e-10
    assert abs(float(first[3]) - LAMBDA_STAR_AT_0) < 1e-6
    assert float(last[0]) == 2.0
    assert abs(float(last[1]) - X_STAR_AT_2) < 1e-10
    assert abs(float(last[3]) - (-1.0)) < 1e-6


def test_solve_ivp_exceptional_row_has_states_only(ivp_solve_csv):
    _, rows = parse(ivp_solve_csv)
    partial = [r for r in rows if r[2] == "" or r[3] == ""]
    assert len(partial) == 1
    row = partial[0]
    assert row[2] == "" and row[3] == ""
    assert row[1] != ""
    assert 0.0 < float(row[0]) < 2.0
    times = [float(r[0]) for r in rows]
    assert times == sorted(times)


@pytest.mark.parametrize(
    "problem,n,method",
    [
        ("nonlinear-ivp", 10, "new-lobatto"),
        ("nonlinear-ivp", 12, "standard-lobatto"),
        ("orbit-raising", 25, "new-lobatto"),
    ],
)
def test_solve_values_round_trip(problem, n, method, tmp_path):
    from auglobatto.nlpsolve import solve
    from auglobatto.orthopoly import lobatto_nodes
    from auglobatto.transcribe import Method, assemble_solution, transcribe

    path = tmp_path / "sol.csv"
    argv = ["solve", "--problem", problem, "--n", str(n), "--method", method]
    assert cli.main(argv + ["--out", str(path)]) == 0
    header, body = parse(path.read_text(encoding="utf-8"))

    loaded = cli.nonlinear_ivp()[0] if problem == "nonlinear-ivp" else cli.orbit_raising()
    t = transcribe(loaded, lobatto_nodes(n), Method(method))
    z, mult, report = solve(t)
    sol = assemble_solution(t, z, mult, report.final_kkt_norm)
    order = np.argsort(sol.times, kind="stable")
    assert len(header) == 1 + 2 * t.n_x + t.n_u
    assert [float(row[0]) for row in body] == list(sol.times[order])
    x_cols, u_cols = slice(1, 1 + t.n_x), slice(1 + t.n_x, 1 + t.n_x + t.n_u)
    lam_cols = slice(1 + t.n_x + t.n_u, None)
    for row, i in zip(body, order):
        assert [float(v) for v in row[x_cols]] == list(sol.states[i])
        if i < t.n:
            assert [float(v) for v in row[u_cols]] == list(sol.controls[i])
            assert [float(v) for v in row[lam_cols]] == list(sol.costates[i])
        else:
            assert row[u_cols] + row[lam_cols] == [""] * (t.n_u + t.n_x)
    assert len(body) == len(sol.times) == t.n + (method == "new-lobatto")


def test_solve_is_deterministic(tmp_path):
    args = ["solve", "--problem", "nonlinear-ivp", "--n", "10", "--out"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(args + [str(a)]) == 0
    assert cli.main(args + [str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert b"\r" not in a.read_bytes()


def test_solve_standard_method_has_no_partial_rows(tmp_path):
    path = tmp_path / "std.csv"
    code = cli.main(
        [
            "solve",
            "--problem",
            "nonlinear-ivp",
            "--n",
            "12",
            "--method",
            "standard-lobatto",
            "--out",
            str(path),
        ]
    )
    assert code == 0
    _, rows = parse(path.read_text(encoding="utf-8"))
    assert len(rows) == 12
    assert all(all(field != "" for field in row) for row in rows)


def test_solve_failure_exits_nonzero(tmp_path, capsys):
    path = tmp_path / "fail.csv"
    code = cli.main(
        [
            "solve",
            "--problem",
            "nonlinear-ivp",
            "--method",
            "standard-lobatto",
            "--n",
            "11",
            "--out",
            str(path),
        ]
    )
    err = capsys.readouterr().err
    assert code == 1
    assert "solve failed" in err
    assert not path.exists()


def test_stalled_solve_exits_nonzero_and_names_the_stall(tmp_path, capsys):
    path = tmp_path / "stall.csv"
    code, _, err = run(
        capsys,
        "solve",
        "--problem",
        "nonlinear-ivp",
        "--method",
        "standard-lobatto",
        "--n",
        "17",
        "--out",
        str(path),
    )
    assert code == 1
    assert "solve failed" in err
    assert "stalled at iteration" in err
    assert "gradient residual within" in err
    assert "constraint residual stuck" in err
    assert not path.exists()


def test_singular_solve_exits_nonzero_and_names_the_failed_searches(tmp_path, capsys):
    path = tmp_path / "singular.csv"
    code, _, err = run(
        capsys,
        "solve",
        "--problem",
        "nonlinear-ivp",
        "--method",
        "standard-lobatto",
        "--n",
        "11",
        "--out",
        str(path),
    )
    assert code == 1
    assert "solve failed" in err
    assert "no step length helped at 8 regularizations" in err
    assert not path.exists()


def test_solve_rejects_unknown_problem():
    with pytest.raises(SystemExit) as err:
        cli.main(["solve", "--problem", "no-such", "--n", "10", "--out", "x.csv"])
    assert err.value.code == 2


# -- converge --------------------------------------------------------------


def test_converge_sweep_structure(tmp_path):
    path = tmp_path / "sweep.csv"
    code = cli.main(
        [
            "converge",
            "--problem",
            "nonlinear-ivp",
            "--n-min",
            "6",
            "--n-max",
            "8",
            "--methods",
            "new-lobatto,standard-lobatto",
            "--out",
            str(path),
        ]
    )
    assert code == 0
    header, rows = parse(path.read_text(encoding="utf-8"))
    assert header == ["n", "method", "E_x", "E_u", "E_lambda", "converged"]
    assert [(r[0], r[1]) for r in rows] == [
        ("6", "new-lobatto"),
        ("6", "standard-lobatto"),
        ("7", "new-lobatto"),
        ("7", "standard-lobatto"),
        ("8", "new-lobatto"),
        ("8", "standard-lobatto"),
    ]
    for row in rows:
        if row[5] == "true":
            assert all(field != "" for field in row[2:5])
            assert all(float(field) >= 0.0 for field in row[2:5])
        else:
            assert row[5] == "false"
            assert row[2:5] == ["", "", ""]
    new_rows = {int(r[0]): r for r in rows if r[1] == "new-lobatto"}
    assert all(new_rows[n][5] == "true" for n in (6, 7, 8))
    assert float(new_rows[8][2]) < float(new_rows[6][2])


def test_converge_fields_are_the_sweep_records(tmp_path):
    path = tmp_path / "sweep.csv"
    methods = ["new-lobatto", "standard-lobatto"]
    argv = ["converge", "--problem", "nonlinear-ivp", "--n-min", "9", "--n-max", "11"]
    assert cli.main(argv + ["--methods", " , ".join(methods), "--out", str(path)]) == 0
    _, rows = parse(path.read_text(encoding="utf-8"))
    records = cli.run_convergence_sweep("nonlinear-ivp", 9, 11, methods)
    assert not all(rec.converged for rec in records)  # square N=11 fails
    assert rows == [
        [str(rec.n), rec.method]
        + ["" if e is None else cli._fmt(e) for e in (rec.e_x, rec.e_u, rec.e_lambda)]
        + [str(rec.converged).lower()]
        for rec in records
    ]


def test_main_calls_the_functions_patched_into_the_module(tmp_path, monkeypatch, capsys):
    # The benchmark's tracer swaps these names in the module's namespace;
    # every subcommand must call through them.
    calls = []

    def spy(name):
        original = getattr(cli, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, name, wrapper)

    for name in (
        "nonlinear_ivp",
        "orbit_raising",
        "lobatto_nodes",
        "solve",
        "build_new_lobatto_D",
        "build_standard_lobatto_D",
        "build_dual_D",
    ):
        spy(name)

    def ran(argv):
        del calls[:]
        assert cli.main(argv) == 0
        return calls

    out = str(tmp_path / "out.csv")
    assert ran(["nodes", "--n", "5"]) == ["lobatto_nodes"]
    assert ran(["diffmat", "--n", "5", "--kind", "standard"]) == [
        "lobatto_nodes",
        "build_standard_lobatto_D",
    ]
    assert ran(["diffmat", "--n", "5", "--kind", "dual"]) == [
        "lobatto_nodes",
        "build_new_lobatto_D",
        "build_dual_D",
    ]
    assert ran(["solve", "--problem", "orbit-raising", "--n", "25", "--out", out]) == [
        "orbit_raising",
        "lobatto_nodes",
        "solve",
    ]
    argv = ["converge", "--problem", "nonlinear-ivp", "--n-min", "6", "--n-max", "6"]
    assert ran(argv + ["--methods", "new-lobatto", "--out", out]) == [
        "nonlinear_ivp",
        "lobatto_nodes",
        "solve",
    ]
    capsys.readouterr()


def test_converge_rejects_problem_without_truth():
    with pytest.raises(SystemExit) as err:
        cli.main(
            [
                "converge",
                "--problem",
                "orbit-raising",
                "--n-min",
                "6",
                "--n-max",
                "8",
                "--methods",
                "new-lobatto",
                "--out",
                "x.csv",
            ]
        )
    assert err.value.code == 2


def test_converge_rejects_unknown_method(tmp_path):
    with pytest.raises(SystemExit) as err:
        cli.main(
            [
                "converge",
                "--problem",
                "nonlinear-ivp",
                "--n-min",
                "6",
                "--n-max",
                "7",
                "--methods",
                "new-lobatto,bogus",
                "--out",
                str(tmp_path / "x.csv"),
            ]
        )
    assert err.value.code == 2


def test_convergence_record_rejects_bad_data():
    # (e_x, e_u, e_lambda), converged: a negative error, errors only partly
    # filled (with and without an outcome passed), and an outcome passed
    # that contradicts complete errors.
    for errors, converged in [
        ((-1.0, 0.0, 0.0), None),
        ((0.0, 0.0, -1.0), True),
        ((None, 1.0, None), None),
        ((None, None, 1.0), False),
        ((1.0, None, 1.0), True),
        ((1.0, 1.0, 1.0), False),
        ((None, None, None), True),
    ]:
        with pytest.raises(ValueError):
            cli.ConvergenceRecord(10, "new-lobatto", *errors, converged)
    # The outcome is read off the errors, and cannot be set.
    solved = cli.ConvergenceRecord(10, "new-lobatto", 1.0, 0.0, 0.0)
    failed = cli.ConvergenceRecord(10, "new-lobatto")
    assert solved.converged and not failed.converged
    assert cli.ConvergenceRecord(10, "new-lobatto", 1.0, 0.0, 0.0, True) == solved
    with pytest.raises(AttributeError):
        solved.converged = False
