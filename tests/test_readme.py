import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_defining_a_problem_example_converges():
    section = README.read_text(encoding="utf-8").split("## Defining a problem", 1)[1]
    (code,) = re.findall(r"```python\n(.*?)```", section.split("\n## ", 1)[0], re.S)
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    assert namespace["report"].converged
