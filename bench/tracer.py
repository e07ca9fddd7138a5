"""Per-layer spans recorded from outside the package.

The tracer replaces public functions of gcorr's modules with timing
wrappers.  A caller finds a function through the attribute of the module
it imported the name into (`from .correspondence import validate` makes
`gcorr.cli.validate` its own binding), so every module attribute bound to
the original function object is wrapped.  A target that no longer exists
is reported missing, and its metrics are left out rather than read as 0.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter
from typing import Callable, Optional

# (defining module, function) -> layer label; metric names are
# "<label>_s" (cumulative), "<label>_self_s" and "<label>_calls".
TARGETS: dict[tuple[str, str], str] = {
    ("io_json", "parse_instance"): "io_json.parse_instance",
    ("io_json", "serialize_instance"): "io_json.serialize_instance",
    ("correspondence", "validate"): "correspondence.validate",
    ("correspondence", "make_correspondence"): "correspondence.make_correspondence",
    ("groupoids", "fibre_product"): "groupoids.fibre_product",
    ("groupoids", "transformation_groupoid"): "groupoids.transformation_groupoid",
    ("groupoids", "orbit_space"): "groupoids.orbit_space",
    ("groupoids", "check_proper"): "groupoids.check_proper",
    ("groupoids", "groupoid_violations"): "groupoids.groupoid_violations",
    ("groupoids", "bispace_violations"): "groupoids.bispace_violations",
    ("measures", "make_haar"): "measures.make_haar",
    ("measures", "check_haar"): "measures.check_haar",
    ("measures", "quotient_family"): "measures.quotient_family",
    ("measures", "default_cutoff"): "measures.cutoff",
    ("measures", "cutoff_from_profile"): "measures.cutoff",
    ("measures", "cutoff_residual"): "measures.cutoff",
    ("cohomology", "check_cocycle"): "cohomology.check_cocycle",
    ("cohomology", "invariant_probability_family"): "cohomology.invariant_probability_family",
    ("cohomology", "decompose_multiplicative"): "cohomology.decompose_multiplicative",
    ("cohomology", "coboundary_residual"): "cohomology.coboundary_residual",
    ("composition", "compose"): "composition.compose",
    ("composition", "build_z_bispace"): "composition.build_z_bispace",
    ("composition", "build_m"): "composition.build_m",
    ("composition", "build_middle_groupoid"): "composition.build_middle_groupoid",
    ("composition", "lambda_pi_rep_independence"): "composition.lambda_pi_rep_independence",
    ("composition", "build_delta_z"): "composition.build_delta_z",
    ("composition", "_z_invariance_residuals"): "composition.z_invariance_residuals",
    ("composition", "build_b"): "composition.build_b",
    ("composition", "build_mu"): "composition.build_mu",
    ("composition", "build_omega_bispace"): "composition.build_omega_bispace",
    ("composition", "build_delta12"): "composition.build_delta12",
    ("cstar", "verify_theorem"): "cstar.verify_theorem",
    ("cstar", "tensor_basis_gram"): "cstar.tensor_basis_gram",
    ("cstar", "image_basis_gram"): "cstar.image_basis_gram",
    ("cstar", "lambda_prime"): "cstar.lambda_prime",
    ("cstar", "left_action"): "cstar.left_action",
    ("cstar", "inner_product"): "cstar.inner_product",
    ("cstar", "tensor_inner_product"): "cstar.tensor_inner_product",
    ("cstar", "representation_matrices"): "cstar.representation_matrices",
    ("cli", "main"): "cli.main",
}

PACKAGE = "gcorr"

# A binding whose callers form a layer of their own: the validate that
# `compose` runs on its result, as against the CLI's input checks.
BINDING_LABELS: dict[tuple[str, str], str] = {
    ("composition", "validate"): "correspondence.validate_composite",
}


class Tracer:
    """Wraps the targets of one gcorr import and sums spans per op."""

    def __init__(self):
        self.stack: list[list[float]] = []  # [child seconds] of each open span
        self.active: Counter = Counter()  # label -> open spans of it
        self.op: dict[str, list] = {}  # label -> [cumulative s, self s, calls]
        self.observers: dict[str, Callable] = {}
        self.installed: list[tuple[object, str, object]] = []
        self.labels: set[str] = set()

    def _wrap(self, fn, label: str):
        stack, active, op, observers = self.stack, self.active, self.op, self.observers

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            active[label] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                active[label] -= 1
                if stack:
                    stack[-1][0] += dt
                acc = op.setdefault(label, [0.0, 0.0, 0])
                if not active[label]:  # recursion counts once in the cumulative time
                    acc[0] += dt
                acc[1] += dt - frame[0]
                acc[2] += 1
            observe = observers.get(label)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every target; returns a warning for each one that is gone."""
        modules = {
            name[len(PACKAGE) + 1:]: mod
            for name, mod in sys.modules.items()
            if name.startswith(PACKAGE + ".") and mod is not None
        }
        warnings = []
        for (mod_name, fn_name), label in TARGETS.items():
            original = getattr(modules.get(mod_name), fn_name, None)
            if not callable(original):
                warnings.append(
                    f"trace target {PACKAGE}.{mod_name}.{fn_name} is gone; "
                    f"metrics of {label} are absent"
                )
                continue
            self.labels.add(label)
            for binder, mod in modules.items():
                if getattr(mod, fn_name, None) is original:
                    bound = BINDING_LABELS.get((binder, fn_name), label)
                    self.labels.add(bound)
                    setattr(mod, fn_name, self._wrap(original, bound))
                    self.installed.append((mod, fn_name, original))
        return warnings

    def uninstall(self) -> None:
        for mod, name, original in reversed(self.installed):
            setattr(mod, name, original)
        self.installed.clear()

    def take_op(self) -> dict[str, list]:
        """The per-label sums since the last call, then reset."""
        out = {label: list(acc) for label, acc in self.op.items()}
        self.op.clear()
        return out


def layer_metrics(op: dict[str, list], labels: set[str]) -> dict[str, Optional[float]]:
    """Metric name -> value for one op.  A label that was never called has
    no time metrics (None), but an exact call count of 0."""
    out: dict[str, Optional[float]] = {}
    for label in labels:
        cum, self_s, calls = op.get(label, (0.0, 0.0, 0))
        out[f"{label}_s"] = cum if calls else None
        out[f"{label}_self_s"] = self_s if calls else None
        out[f"{label}_calls"] = calls
    return out
