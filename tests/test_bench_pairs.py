"""The summary that scripts/bench_pairs.py prints of a set of benchmark pairs."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "wall_s", "better": "lower", "bound": 0.25},
    {"name": "rate", "better": "higher", "bound": 0.1},
]


def runs(walls, rates, failed=0):
    metrics = [{"wall_s": {"value": w}, "rate": {"value": r}} for w, r in zip(walls, rates)]
    return [{"metrics": m, "failed": failed, "attempted": 10} for m in metrics]


def test_report_prints_medians_quartiles_changes_and_wins(capsys):
    ok = bench_pairs.report(
        "w",
        {
            "rev": runs([1.0, 1.02, 0.98], [10, 10, 10]),
            "checkout": runs([1.2, 1.0, 1.22], [9.2, 10.1, 9.3]),
        },
        METRICS,
    )
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "== w: 3 pair(s)"
    # Medians 1.0 -> 1.2 (+20%, inside 25%); lower in the second pair only.
    assert lines[1].startswith("wall_s       rev 1 [0.98, 1.02]  checkout 1.2 [1, 1.22]  +20.0%")
    assert lines[1].endswith("better in 1/3")
    # Medians 10 -> 9.3 (-7%, inside the 10% bound); higher in one pair.
    assert lines[2].endswith("-7.0%  better in 1/3")
    assert lines[3:] == ["rev failed ops: 0 of 30", "checkout failed ops: 0 of 30"]
    assert ok


def test_report_flags_a_spread_wider_than_the_bound(capsys):
    # REV's quartiles [0.7, 1.4] span 70% of its median, past the 25% bound.
    rev = runs([1.0, 1.4, 0.7], [10, 10, 10])
    wider = {"rev": rev, "checkout": runs([1.0, 1.3, 0.8], [10] * 3)}
    assert not bench_pairs.report("w", wider, METRICS)
    assert capsys.readouterr().out.splitlines()[1].endswith("+0.0%  better in 1/3  UNRESOLVED")
    # Better in every pair is not enough while runs of the two sides overlap.
    faster = {"rev": rev, "checkout": runs([0.9, 1.3, 0.6], [10] * 3)}
    assert not bench_pairs.report("w", faster, METRICS)
    assert capsys.readouterr().out.splitlines()[1].endswith("better in 3/3  UNRESOLVED")
    # Every checkout run below every REV run resolves it however wide the spread.
    apart = {"rev": rev, "checkout": runs([0.6, 0.5, 0.65], [10] * 3)}
    assert bench_pairs.report("w", apart, METRICS)
    assert capsys.readouterr().out.splitlines()[1].endswith("-40.0%  better in 3/3")


def test_report_flags_a_bound_and_a_failed_op(capsys):
    slower = {"rev": runs([1.0], [10]), "checkout": runs([1.3], [10])}
    assert not bench_pairs.report("w", slower, METRICS)
    assert capsys.readouterr().out.splitlines()[1].endswith("+30.0%  better in 0/1  OVER BOUND")
    failing = {"rev": runs([1.0], [10]), "checkout": runs([1.0], [10], failed=1)}
    assert not bench_pairs.report("w", failing, METRICS)
    assert "checkout failed ops: 1 of 10" in capsys.readouterr().out


@pytest.mark.parametrize(
    "args, message",
    [
        (["--pairs", "0"], "--pairs must be at least 1"),
        (["--pairs", "-3"], "--pairs must be at least 1"),
        (["--workloads", "orbit,nope"], "--workloads: not in BENCHMARK.json: nope"),
    ],
    ids=["zero-pairs", "negative-pairs", "unknown-workload"],
)
def test_bad_arguments_are_usage_errors_before_any_tree(args, message, monkeypatch, capsys):
    def no_trees(*_):
        raise AssertionError("built a tree")

    monkeypatch.setattr(bench_pairs, "make_trees", no_trees)
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["HEAD", *args])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
