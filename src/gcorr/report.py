"""Pass/fail reporting shared by validation, composition and the CLI.

`Report.check` is the pass rule for a residual: 0 on exact data, at most
`tol` on float data; a NaN residual fails.  Every residual line of
`compose` and `validate` uses it, except `lambda_pi_rep_independence`
(exact equality on any data) and the cocycle lines (`check_cocycle` at
`rel_tol`), which record the verdict of a rule of their own via
`Report.add`.  The groupoid, Haar and bispace axioms have no line: the
checked constructors certify them where the structure is built.

Four tolerance rules still fork outside `Report.check`, each for a reason:

* `decompose_multiplicative`'s split guard (0 on exact data, 1e-9 on
  float data) is a stage guard of the cohomology layer, which takes no
  `tol`: it raises before any line exists.  `compose` records the same
  residual as `b_ratio_relation` under `Report.check`; there it runs on
  G₂⋉Y.
* `invariant_probability_family`'s orbit-constancy of the fibre mass h
  (0 on exact data, an absolute 1e-12 on float data) guards the Haar
  input, whose fibre masses on valid data are sums of the same weights,
  equal up to rounding; it raises, and in `compose` it too runs on G₂⋉Y.
* `push_measure_down`, the stand-alone push-down, raises on a cutoff that
  is not normalized and on a failed disintegration, judging each at 0
  only when every value it reads is exact; it has no report to write to.
* `is_symmetric` compares |m∘λ − m∘λ⁻¹|, a difference of measures rather
  than a relative deviation, so on float data it scales `tol` by the
  largest weight; its verdict is a `build_mu` stage error, not a line.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: Optional[float] = None
    witness: Optional[str] = None

    def render(self) -> str:
        status = "ok" if self.passed else "FAIL"
        parts = [f"[{status}] {self.name}"]
        if self.residual is not None:
            parts.append(f"residual={self.residual:.3g}")
        if self.witness and not self.passed:
            parts.append(f"witness={self.witness}")
        return "  ".join(parts)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "residual": self.residual,
            "witness": self.witness,
        }


@dataclass
class Report:
    title: str
    checks: list[CheckResult] = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    def add(self, name: str, passed: bool, residual=None, witness=None) -> CheckResult:
        res = CheckResult(name, bool(passed), None if residual is None else float(residual), witness)
        self.checks.append(res)
        return res

    def check(self, name: str, residual, exact: bool, tol: float, witness=None) -> CheckResult:
        """Record a residual under the pass rule: 0 on exact data, `tol` on float."""
        return self.add(name, residual <= (0.0 if exact else tol), residual, witness)

    def extend(self, other: "Report") -> None:
        self.checks.extend(other.checks)
        self.notes.update(other.notes)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def render(self) -> str:
        lines = [f"== {self.title} =="]
        lines += [c.render() for c in self.checks]
        for key, val in self.notes.items():
            lines.append(f"note: {key} = {val}")
        lines.append(f"=> {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "title": self.title,
            "passed": self.passed,
            "checks": [c.to_json() for c in self.checks],
            "notes": {k: str(v) for k, v in self.notes.items()},
        }
