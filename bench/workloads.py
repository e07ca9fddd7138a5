"""Instance sets of the benchmark workloads, written as gcorr JSON files.

The ladder and span instances are written straight from their definitions,
without calling gcorr, so their bytes do not depend on the package's
internals.  The random-mix pairs come from `gcorr.randgen.random_pair`
and `gcorr.io_json.serialize_instance`, so that workload follows the
package's own generator.  Every set is a pure function of its seed, and
its sizes do not depend on the seed: the seed reorders, relabels weights
or picks the tampered entry, so that the cost of a set is the same for
every seed.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

HEADER = {"format": "gcorr", "version": 1}

WORKLOADS = ("ladder-deep", "spans-wide", "random-mix")

# Sizes of the timed workloads, and the tiny ones the oracle self-test uses.
# The ladder and the spans are sized so that no single call runs much past
# a second: the host's speed swings within a longer call (see README.md).
FULL = {
    "ladder-deep": {"n": 10, "trials": 200},
    "spans-wide": {"n_x": 100, "n_y": 100, "n_mid": 20, "n_outer": 10, "trials": 50},
    "random-mix": {"pairs": 40, "trials": 20},
}
TINY = {
    "ladder-deep": {"n": 4, "trials": 20},
    "spans-wide": {"n_x": 20, "n_y": 20, "n_mid": 4, "n_outer": 2, "trials": 5},
    "random-mix": {"pairs": 4, "trials": 5},
}
MIX_CAPS = {"max_x": 28, "max_y": 28, "max_mid": 16, "max_outer": 8}
# Pair i of the random-mix set is tampered when i % TAMPER_EVERY ==
# TAMPER_EVERY - 1.
TAMPER_EVERY = 4


@dataclass
class Case:
    """One pair of instance files and what the oracles expect of it."""

    name: str
    x: Path
    y: Path
    out: Path
    trials: int
    tampered: bool = False
    ladder_n: Optional[int] = None  # ladder-deep: |Ω| must be n, G₁ transitive on Ω
    spans: bool = False  # spans-wide: OUT.json must be the composite span
    # filled in from the written files by `expectations`
    z_points: int = -1
    span_multiset: Optional[Counter] = None


def scalar(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _write(path: Path, groupoids: dict, corr: dict) -> None:
    doc = dict(HEADER, groupoids=groupoids, correspondences=[corr])
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# groupoid and correspondence documents


def cyclic_doc(n: int) -> dict:
    """Z/n on the unit "*" with counting Haar weights."""
    g = [f"g{k}" for k in range(n)]
    return {
        "units": ["*"],
        "arrows": g,
        "src": {a: "*" for a in g},
        "dst": {a: "*" for a in g},
        "comp": [[g[a], g[b], g[(a + b) % n]] for a in range(n) for b in range(n)],
        "inv": {g[a]: g[-a % n] for a in range(n)},
        "unit_arrows": {"*": "g0"},
        "haar": {a: "1" for a in g},
    }


def units_doc(units: list[str]) -> dict:
    """The groupoid of a plain set: one identity arrow per unit, counting Haar."""
    e = {u: f"e.{u}" for u in units}
    return {
        "units": list(units),
        "arrows": [e[u] for u in units],
        "src": {e[u]: u for u in units},
        "dst": {e[u]: u for u in units},
        "comp": [[e[u], e[u], e[u]] for u in units],
        "inv": {e[u]: e[u] for u in units},
        "unit_arrows": {u: e[u] for u in units},
        "haar": {e[u]: "1" for u in units},
    }


def corr_doc(left, right, points, lmom, rmom, laction, raction, family) -> dict:
    """A correspondence whose left Haar system is counting.

    The adjoining cocycle is the Radon-Nikodym quotient
    Δ(γ, p) = λ(p) / λ(γ·p) of the family under the left action.
    """
    adjoining = [[a, p, scalar(family[p] / family[q])] for a, p, q in laction]
    return {
        "name": "corr",
        "left": left,
        "right": right,
        "space": {
            "points": points,
            "left_momentum": lmom,
            "right_momentum": rmom,
            "left_action": [list(t) for t in laction],
            "right_action": [list(t) for t in raction],
        },
        "family": {p: scalar(family[p]) for p in points},
        "adjoining": adjoining,
    }


# ---------------------------------------------------------------------------
# workloads


def ladder_files(directory: Path, n: int, seed: int, trials: int) -> list[Case]:
    """The ladder at n: the regular Z/n bimodule of Z/n, then Z/n acting on
    itself over the one-point groupoid with family weights 1..n.

    The seed permutes which point carries which weight and the order in
    which points are listed; the sizes do not depend on it.
    """
    rng = random.Random(seed)
    g = [f"g{k}" for k in range(n)]
    groupoids = {"Z": cyclic_doc(n), "P": units_doc(["pt"])}

    xs = [f"x{k}" for k in range(n)]
    x_order = rng.sample(xs, n)
    one = {p: Fraction(1) for p in xs}
    x = corr_doc(
        "Z", "Z", x_order,
        {p: "*" for p in xs}, {p: "*" for p in xs},
        [(g[a], xs[p], xs[(a + p) % n]) for a in range(n) for p in range(n)],
        [(xs[p], g[b], xs[(p + b) % n]) for p in range(n) for b in range(n)],
        one,
    )
    ys = [f"y{k}" for k in range(n)]
    y_order = rng.sample(ys, n)
    weights = rng.sample(range(1, n + 1), n)
    y = corr_doc(
        "Z", "P", y_order,
        {p: "*" for p in ys}, {p: "pt" for p in ys},
        [(g[a], ys[p], ys[(a + p) % n]) for a in range(n) for p in range(n)],
        [(p, "e.pt", p) for p in ys],
        {ys[k]: Fraction(weights[k]) for k in range(n)},
    )
    case = Case(f"ladder{n}", directory / f"ladder{n}.x.json", directory / f"ladder{n}.y.json",
                directory / f"ladder{n}.out.json", trials, ladder_n=n)
    _write(case.x, {"Z": groupoids["Z"]}, x)
    _write(case.y, groupoids, y)
    return [case]


def spans_files(directory: Path, n_x: int, n_y: int, n_mid: int, n_outer: int, seed: int, trials: int) -> list[Case]:
    """Weighted spans of plain sets, outer <- X -> middle <- Y -> outer.

    Point k of a leg of n points lies over middle unit k mod n_mid and
    outer unit k·n_outer div n, with weight p/q, p = 1 + k mod 9 and
    q = 1 + (k div 9) mod 9.  The seed permutes which point is point k
    and the labels of the units, so |Z| = |Ω| = n_x·n_y/n_mid, and the
    cost of the set, are the same for every seed.
    """
    rng = random.Random(seed)
    g1 = [f"a{k}" for k in range(n_outer)]
    g2 = [f"m{k}" for k in range(n_mid)]
    g3 = [f"c{k}" for k in range(n_outer)]
    docs = {"A": units_doc(g1), "M": units_doc(g2), "C": units_doc(g3)}
    middle = rng.sample(g2, n_mid)  # one labelling, shared by both legs

    def leg(prefix, n_pts, outer_units, left, right, middle_on_left):
        pts = rng.sample([f"{prefix}{k}" for k in range(n_pts)], n_pts)
        outer_order = rng.sample(outer_units, n_outer)
        mid = {p: middle[k % n_mid] for k, p in enumerate(pts)}
        outer = {p: outer_order[k * n_outer // n_pts] for k, p in enumerate(pts)}
        lmom, rmom = (mid, outer) if middle_on_left else (outer, mid)
        lam = {p: Fraction(1 + k % 9, 1 + k // 9 % 9) for k, p in enumerate(pts)}
        return corr_doc(
            left, right, pts, lmom, rmom,
            [(f"e.{lmom[p]}", p, p) for p in pts],
            [(p, f"e.{rmom[p]}", p) for p in pts],
            lam,
        )

    x = leg("x", n_x, g1, "A", "M", middle_on_left=False)
    y = leg("v", n_y, g3, "M", "C", middle_on_left=True)
    case = Case("spans", directory / "spans.x.json", directory / "spans.y.json",
                directory / "spans.out.json", trials, spans=True)
    _write(case.x, {"A": docs["A"], "M": docs["M"]}, x)
    _write(case.y, {"M": docs["M"], "C": docs["C"]}, y)
    return [case]


def tamper(doc: dict, rng: random.Random) -> None:
    """Double one adjoining value at an identity arrow; it must be 1."""
    corr = doc["correspondences"][0]
    identities = set(doc["groupoids"][corr["left"]]["unit_arrows"].values())
    at_identity = [entry for entry in corr["adjoining"] if entry[0] in identities]
    entry = rng.choice(at_identity)
    raw = entry[2]
    entry[2] = scalar(2 * Fraction(raw)) if isinstance(raw, str) else 2 * raw


def shuffle_space(doc: dict, rng: random.Random) -> None:
    """Reorder the points and the action and adjoining tables of the space.

    The correspondence is unchanged; gcorr numbers the points in the order
    the file lists them, so its internal order is the seeded one.
    """
    corr = doc["correspondences"][0]
    for table in (corr["space"]["points"], corr["space"]["left_action"],
                  corr["space"]["right_action"], corr["adjoining"]):
        rng.shuffle(table)


def mix_files(directory: Path, pairs: int, seed: int, trials: int) -> list[Case]:
    """Pairs random_pair(0) .. random_pair(pairs - 1), the second leg of
    every TAMPER_EVERY-th one tampered.

    Random pairs differ in cost by a factor of 100, so a set drawn afresh
    for each seed would vary in cost with the seed.  The seed instead
    reorders every space (`shuffle_space`) and picks the tampered entry.
    """
    from gcorr import io_json
    from gcorr.randgen import random_pair

    rng = random.Random(seed)
    cases = []
    for i in range(pairs):
        corr_x, corr_y = random_pair(i, **MIX_CAPS)
        case = Case(f"mix{i}", directory / f"mix{i}.x.json", directory / f"mix{i}.y.json",
                    directory / f"mix{i}.out.json", trials,
                    tampered=i % TAMPER_EVERY == TAMPER_EVERY - 1)
        for path, name, corr in ((case.x, "x", corr_x), (case.y, "y", corr_y)):
            doc = json.loads(io_json.serialize_instance([(name, corr)]))
            shuffle_space(doc, rng)
            if case.tampered and name == "y":
                tamper(doc, rng)
            path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        cases.append(case)
    return cases


def build(workload: str, directory: Path, seed: int, sizes: dict) -> list[Case]:
    """Write the instance set of `workload` into `directory`."""
    directory.mkdir(parents=True, exist_ok=True)
    if workload == "ladder-deep":
        return ladder_files(directory, sizes["n"], seed, sizes["trials"])
    if workload == "spans-wide":
        return spans_files(directory, sizes["n_x"], sizes["n_y"], sizes["n_mid"], sizes["n_outer"], seed, sizes["trials"])
    if workload == "random-mix":
        return mix_files(directory, sizes["pairs"], seed, sizes["trials"])
    raise ValueError(f"unknown workload {workload!r}")
