"""Pass/fail reporting shared by validation, composition, the certificate
and the CLI, and the one pass rule that all of them judge by.

`passes(residual, exact, tol)` is that rule: a residual passes at 0 on
exact data and at most `tol` on float data, and a NaN residual fails.
Every checker returns (worst residual, witness) under the contract that
`util.worst_of` states, and reduces through it (the basis sweeps of
`cstar` keep their own loops, which also carry ρ).  Its caller decides
the verdict here: `Report.check` for every residual line of `validate`,
`compose` and the certificate, and `passes` itself where a verdict is
taken outside a report line:

* `make_haar` (left invariance of the Haar weights) and
  `invariant_probability_family` (orbit-constancy of the fibre mass),
  exact on any data: the weights of a left invariant family repeat
  exactly along every arrow, and the fibres of one orbit carry the same
  multiset of weights, which `ksum` sums exactly or correctly rounded;
* `decompose_multiplicative`, at `DEFAULT_TOL`, since the cohomology
  layer takes no `tol`;
* the symmetry of `is_symmetric`, read by `build_mu` and
  `push_measure_down`, and `push_measure_down`'s cutoff and
  disintegration guards, at the caller's `tol`;
* `GramReport`'s isometry, intertwining and positivity verdicts, float
  on any data, positivity at its own bound `POSITIVITY_TOL`.

`lambda_pi_rep_independence` is judged exact on any data: both sides are
sums of the same weights.  The groupoid, Haar and bispace axioms have no
line: the checked constructors certify them where the structure is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

DEFAULT_TOL = 1e-9  # the float tolerance of every check that is not given one


def passes(residual: float, exact: bool, tol: float = DEFAULT_TOL) -> bool:
    """The pass rule: `residual` is at most 0 on exact data and at most
    `tol` on float data; NaN fails."""
    return residual <= (0.0 if exact else tol)


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
        """Record a residual under `passes`."""
        return self.add(name, passes(residual, exact, tol), residual, witness)

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
