"""Verdict oracles that do not use gcorr's own checks.

Every check here reads the JSON files with the standard library and does
its arithmetic in `Fraction`s (exact values) or floats compared to a
relative 1e-9 (inexact values), as the interchange format marks them.
Each check returns a list of problems; an empty list is a pass.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from fractions import Fraction

REL_TOL = 1e-9


def num(raw):
    """An interchange scalar: strings and JSON integers exact, JSON floats not."""
    if isinstance(raw, str):
        return Fraction(raw)
    if isinstance(raw, int) and not isinstance(raw, bool):
        return Fraction(raw)
    return float(raw)


def close(a, b) -> bool:
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a == b
    fa, fb = float(a), float(b)
    return abs(fa - fb) <= REL_TOL * max(abs(fa), abs(fb))


def _corr(doc: dict) -> dict:
    return doc["correspondences"][0]


def z_points(x_doc: dict, y_doc: dict) -> int:
    """|Z|: pairs (x, y) whose right and left momenta name the same unit."""
    s_x = Counter(_corr(x_doc)["space"]["right_momentum"].values())
    r_y = Counter(_corr(y_doc)["space"]["left_momentum"].values())
    return sum(k * r_y[u] for u, k in s_x.items())


def composite_span(x_doc: dict, y_doc: dict) -> Counter:
    """The composite of two weighted spans of plain sets, as the multiset
    {(f(x), l(v), λ₁(x)·λ₂(v)) : g(x) = k(v)}."""
    cx, cy = _corr(x_doc), _corr(y_doc)
    by_mid: dict[str, list[str]] = {}
    for v, k in cy["space"]["left_momentum"].items():
        by_mid.setdefault(k, []).append(v)
    out: Counter = Counter()
    for x, g in cx["space"]["right_momentum"].items():
        for v in by_mid.get(g, ()):
            out[(cx["space"]["left_momentum"][x], cy["space"]["right_momentum"][v],
                 num(cx["family"][x]) * num(cy["family"][v]))] += 1
    return out


def composite_problems(out_doc: dict) -> list[str]:
    """Δ₁₂(η,ω)·w(η)·μ(η·ω) = w(η⁻¹)·μ(ω) on every left-action pair, and
    μ(ω·γ) = μ(ω) on every right-action pair, recomputed from OUT.json."""
    corr = _corr(out_doc)
    g1 = out_doc["groupoids"][corr["left"]]
    w = {a: num(v) for a, v in g1["haar"].items()}
    inv = g1["inv"]
    mu = {p: num(v) for p, v in corr["family"].items()}
    delta = {(a, p): num(v) for a, p, v in corr["adjoining"]}
    problems = []
    for p, m in mu.items():
        if not (m > 0 and math.isfinite(m)):
            problems.append(f"μ({p}) = {m} is not a positive finite weight")
    for a, p, q in corr["space"]["left_action"]:
        if (a, p) not in delta:
            problems.append(f"Δ₁₂ missing at ({a}, {p})")
            continue
        lhs = delta[(a, p)] * w[a] * mu[q]
        rhs = w[inv[a]] * mu[p]
        if not close(lhs, rhs):
            problems.append(f"Δ₁₂ identity fails at ({a}, {p}): {lhs} != {rhs}")
    for p, c, q in corr["space"]["right_action"]:
        if not close(mu[q], mu[p]):
            problems.append(f"μ not right invariant at ({p}, {c}): {mu[q]} != {mu[p]}")
    return problems[:5]


def ladder_problems(out_doc: dict, n: int) -> list[str]:
    """|Ω| = n and G₁ acts transitively on Ω."""
    corr = _corr(out_doc)
    points = corr["space"]["points"]
    problems = [] if len(points) == n else [f"|Ω| = {len(points)}, expected {n}"]
    edges: dict[str, set[str]] = {}
    for _, p, q in corr["space"]["left_action"]:
        edges.setdefault(p, set()).add(q)
    seen, todo = set(points[:1]), list(points[:1])
    while todo:
        for q in edges.get(todo.pop(), ()):
            if q not in seen:
                seen.add(q)
                todo.append(q)
    if len(seen) != len(points):
        problems.append(f"G₁ reaches {len(seen)} of {len(points)} points of Ω from {points[0]}")
    return problems


def span_problems(out_doc: dict, expected: Counter) -> list[str]:
    corr = _corr(out_doc)
    sp = corr["space"]
    got = Counter(
        (sp["left_momentum"][p], sp["right_momentum"][p], num(corr["family"][p]))
        for p in sp["points"]
    )
    if got == expected:
        return []
    missing = expected - got
    extra = got - expected
    return [f"composite span differs: {sum(missing.values())} expected entries missing "
            f"(e.g. {next(iter(missing), None)}), {sum(extra.values())} unexpected"]


def load(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
