import re
from pathlib import Path

import numpy as np
from test_ocp import check_jacobians

README = Path(__file__).resolve().parents[1] / "README.md"


def run_defining_a_problem_example():
    section = README.read_text(encoding="utf-8").split("## Defining a problem", 1)[1]
    (code,) = re.findall(r"```python\n(.*?)```", section.split("\n## ", 1)[0], re.S)
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    return namespace


def test_defining_a_problem_example_converges():
    assert run_defining_a_problem_example()["report"].converged


def test_defining_a_problem_example_derivatives_match_central_differences():
    check_jacobians(run_defining_a_problem_example()["problem"], np.random.default_rng(5))
