"""The package's exported names, and the names the benchmark's tracer wraps."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import auglobatto

ROOT = Path(__file__).resolve().parents[1]


def _load(relative_path):
    """Import a file outside the package (a script or the tracer) as a module."""
    path = ROOT / relative_path
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


EXPORTS = [
    "AnalyticTruth",
    "DiffMatrix",
    "MaxIterationsError",
    "Method",
    "NodeSet",
    "OcpDefinition",
    "SingularKktError",
    "Solution",
    "Transcript",
    "assemble_solution",
    "build_basis",
    "build_dual_D",
    "build_new_lobatto_D",
    "build_standard_lobatto_D",
    "condition_number",
    "costate_leading_coefficient",
    "extract_costates",
    "kkt_residuals",
    "legendre_eval",
    "lobatto_eval",
    "lobatto_nodes",
    "nonlinear_ivp",
    "numerical_rank",
    "orbit_raising",
    "runge_bound",
    "solve",
    "transcribe",
    "verify_definition",
]


def test_exports_are_pinned_and_resolve():
    assert sorted(auglobatto.__all__) == EXPORTS
    for name in EXPORTS:
        assert getattr(auglobatto, name) is not None


def test_every_name_the_tracer_wraps_exists():
    # The tracer looks these up by name only in a traced benchmark run; a
    # name that goes from the package must fail here first.
    tracer = _load("bench/tracer.py")
    for module_name, names in tracer.FUNCTION_SPANS.values():
        module = importlib.import_module(module_name)
        for name in names:
            assert callable(getattr(module, name, None)), f"{module_name}.{name}"
    ocp = importlib.import_module("auglobatto.ocp")
    for name in tracer.OCP_FACTORIES:
        assert callable(getattr(ocp, name, None)), f"auglobatto.ocp.{name}"
    # Methods are patched on the class itself, so they must be defined there.
    transcript_attrs = vars(auglobatto.Transcript)
    for name in tracer.METHOD_SPANS.values():
        assert callable(transcript_attrs.get(name)), f"Transcript.{name}"


SAMPLE = '''"""Module docstring,
over two lines."""

import os  # a comment on a code line


# a comment line
class Thing:
    """Class docstring."""

    def method(self):
        """Function docstring."""
        text = """a string
        that is code"""
        return text
'''


def test_count_code_lines_skips_docstrings_comments_and_blanks():
    count = _load("scripts/count_code_lines.py")
    # import, class, def, the two lines of ``text`` and the return.
    assert count.count_code_lines(SAMPLE) == 6


def test_count_code_lines_reads_the_export_list():
    count = _load("scripts/count_code_lines.py")
    init = (ROOT / "src" / "auglobatto" / "__init__.py").read_text(encoding="utf-8")
    assert count.export_count(init) == len(EXPORTS)
    with pytest.raises(ValueError):
        count.export_count("x = 1\n")
