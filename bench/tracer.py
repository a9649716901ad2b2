"""Layer spans for the benchmark, recorded from outside the package.

The tracer wraps the public functions of each ``auglobatto`` layer and
swaps the wrappers into every namespace that holds them.  Package modules
import each other's functions by name (``cli`` and ``transcribe`` hold
their own references to the builders and the solver), so patching only the
defining module would miss those calls.  Nothing in the package changes;
``uninstall`` puts every original back.

Per span name the tracer records calls, busy time (wall time with nested
calls of the same span name counted once), self time (busy time minus the
time of traced child calls), and the busy time of calls that raised.
``numpy.linalg`` calls are recorded only inside a solve, and their time
stays part of the solver's self time: they are the solver's own work.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
from collections import Counter, defaultdict

import numpy as np

SOLVE = "nlpsolve.solve"

# span name -> (module, public function names); the tracer wraps each one.
FUNCTION_SPANS = {
    "orthopoly.nodes": ("auglobatto.orthopoly", ("lobatto_nodes",)),
    "discretization.build": (
        "auglobatto.discretization",
        ("build_new_lobatto_D", "build_standard_lobatto_D", "build_dual_D"),
    ),
    "discretization.check": (
        "auglobatto.discretization",
        ("verify_definition", "numerical_rank", "condition_number"),
    ),
    "transcribe.audit": (
        "auglobatto.transcribe",
        ("assemble_solution", "kkt_residuals", "costate_leading_coefficient"),
    ),
    SOLVE: ("auglobatto.nlpsolve", ("solve",)),
    "cli": ("auglobatto.cli", ("cmd_nodes", "cmd_diffmat", "run_convergence_sweep")),
}

# Transcript methods, patched on the class.
METHOD_SPANS = {
    "transcribe.gradient": "objective_gradient",
    "transcribe.jacobian": "jacobian",
    "transcribe.constraints": "constraints",
}

# numpy.linalg functions the solver calls; recorded inside a solve only.
LINALG_SPANS = {
    "nlpsolve.inertia": ("eigvalsh",),
    "nlpsolve.linsolve": ("solve", "lstsq"),
}

# Problem factories; every callable field of the definitions they return
# gets an "ocp.callbacks" span.
OCP_FACTORIES = ("orbit_raising", "nonlinear_ivp")


def package_namespaces():
    """The package and every loaded submodule, as module objects."""
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "auglobatto" or name.startswith("auglobatto."))
    ]


def patch_everywhere(module_name, attr, make_wrapper):
    """Replace ``module_name.attr`` by ``make_wrapper(original)`` in every
    package namespace that holds the same object.  Returns an undo callable."""
    original = getattr(sys.modules[module_name], attr)
    wrapper = make_wrapper(original)
    patched = []
    for module in package_namespaces():
        if vars(module).get(attr) is original:
            setattr(module, attr, wrapper)
            patched.append(module)

    def undo():
        for module in patched:
            setattr(module, attr, original)

    return undo


class Tracer:
    """Span accounting for wrapped calls; ``clock`` is injectable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = Counter()  # (span, function name) -> calls
        self.calls_in_solve = Counter()  # span -> calls made inside a solve
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.raised_busy = defaultdict(float)
        self.raised = Counter()  # (span, exception type name) -> calls
        self._active = Counter()  # span -> open calls
        self._stack = []  # child-time accumulators of the open spans
        self._undo = []

    def span_calls(self, span):
        return sum(n for (name, _), n in self.calls.items() if name == span)

    def wrap(self, span, fn, name=None, solve_only=False, attributed=False):
        """Return ``fn`` wrapped in a span.

        ``solve_only``: record only while a solve is open, else call through.
        ``attributed``: the call's time stays in its parent's self time.
        """
        key = (span, name or fn.__name__)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if solve_only and not self._active[SOLVE]:
                return fn(*args, **kwargs)
            outermost = not self._active[span]
            self._active[span] += 1
            self._stack.append(0.0)
            raised = False
            start = self.clock()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                raised = True
                self.raised[(span, type(exc).__name__)] += 1
                raise
            finally:
                elapsed = self.clock() - start
                children = self._stack.pop()
                self._active[span] -= 1
                self.calls[key] += 1
                if self._active[SOLVE]:
                    self.calls_in_solve[span] += 1
                if outermost:
                    self.busy[span] += elapsed
                    if raised:
                        self.raised_busy[span] += elapsed
                self.self_time[span] += elapsed - children
                if self._stack and not attributed:
                    self._stack[-1] += elapsed

        return wrapper

    def wrap_definition(self, defn):
        """Copy of an ``OcpDefinition`` with every callable field wrapped."""
        wrapped = {
            f.name: self.wrap("ocp.callbacks", getattr(defn, f.name), name=f.name)
            for f in dataclasses.fields(defn)
            if callable(getattr(defn, f.name))
        }
        return dataclasses.replace(defn, **wrapped)

    def _wrap_factory(self, factory):
        @functools.wraps(factory)
        def wrapper(*args, **kwargs):
            result = factory(*args, **kwargs)
            if isinstance(result, tuple):
                return (self.wrap_definition(result[0]),) + result[1:]
            return self.wrap_definition(result)

        return wrapper

    def install(self):
        """Wrap every layer's public functions; the package must be imported."""
        for span, (module_name, names) in FUNCTION_SPANS.items():
            for name in names:
                self._undo.append(
                    patch_everywhere(module_name, name, functools.partial(self.wrap, span))
                )
        for name in OCP_FACTORIES:
            self._undo.append(patch_everywhere("auglobatto.ocp", name, self._wrap_factory))
        transcript_cls = sys.modules["auglobatto.transcribe"].Transcript
        for span, name in METHOD_SPANS.items():
            original = vars(transcript_cls)[name]
            setattr(transcript_cls, name, self.wrap(span, original))
            self._undo.append(functools.partial(setattr, transcript_cls, name, original))
        for span, names in LINALG_SPANS.items():
            for name in names:
                original = getattr(np.linalg, name)
                setattr(
                    np.linalg,
                    name,
                    self.wrap(span, original, solve_only=True, attributed=True),
                )
                self._undo.append(functools.partial(setattr, np.linalg, name, original))
        return self

    def uninstall(self):
        while self._undo:
            self._undo.pop()()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc_info):
        self.uninstall()
