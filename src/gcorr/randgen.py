"""Deterministic instance generation.

Random instances are driven by SplitMix64 so that a seed reproduces the
same bytes on any platform (and is easy to reimplement elsewhere):

    state <- (state + 0x9E3779B97F4A7C15) mod 2^64
    z <- state; z <- (z XOR z>>30) * 0xBF58476D1CE4E5B9 mod 2^64
    z <- (z XOR z>>27) * 0x94D049BB133111EB mod 2^64
    output z XOR z>>31

`random()` is the top 53 bits over 2^53; `randint(a, b)` is
a + next() mod (b - a + 1).

Random groupoids are disjoint unions of transformation groupoids of finite
group actions on coset spaces; Haar systems carry random positive rational
weights; measure families are made right-invariant by orbit averaging.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .correspondence import Correspondence, make_correspondence
from .groupoids import (
    Bispace,
    FiniteGroupoid,
    GSpaceAction,
    cyclic_group,
    disjoint_union,
    make_action,
    make_bispace,
    orbit_space,
    symmetric_group,
    transformation_groupoid,
)
from .measures import HaarSystem, MeasureFamily, haar_from_unit_weights
from .util import ksum

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def random(self) -> float:
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def randint(self, a: int, b: int) -> int:
        """Uniform-ish integer in [a, b] (modulo reduction; the tiny bias
        is irrelevant here and keeps the generator trivially portable)."""
        return a + self.next_u64() % (b - a + 1)

    def choice(self, seq):
        return seq[self.randint(0, len(seq) - 1)]

    def fraction(self, lo: int = 1, hi: int = 9) -> Fraction:
        return Fraction(self.randint(lo, hi), self.randint(lo, hi))

    def cnum(self) -> complex:
        return complex(2 * self.random() - 1, 2 * self.random() - 1)

    # below this many draws the numpy call overhead outweighs the loop
    BLOCK_MIN = 8

    def cnum_array(self, n: int) -> np.ndarray:
        """`[self.cnum() for _ in range(n)]` as a complex array, drawn as one
        uint64 block.

        The 2n states are state + k·γ (k = 1..2n, wrapping mod 2^64), mixed
        elementwise; uint64 array arithmetic wraps exactly like the masks of
        `next_u64`.  Real and imaginary parts are stored separately, since
        `re + 1j*im` could turn a signed zero around.
        """
        if n < max(self.BLOCK_MIN, 1):
            return np.array([self.cnum() for _ in range(n)], dtype=np.complex128)
        k = np.arange(1, 2 * n + 1, dtype=np.uint64)
        z = np.uint64(self.state) + k * np.uint64(_GAMMA)
        self.state = (self.state + 2 * n * _GAMMA) & _MASK
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
        u = 2 * ((z >> np.uint64(11)).astype(np.float64) * 2.0 ** -53) - 1
        out = np.empty(n, dtype=np.complex128)
        out.real = u[0::2]
        out.imag = u[1::2]
        return out

    def cnums(self, n: int) -> list[complex]:
        """`[self.cnum() for _ in range(n)]`, through `cnum_array`."""
        return self.cnum_array(n).tolist()


# ---------------------------------------------------------------------------
# groups, actions, groupoids


def random_group(rng: SplitMix64, max_order: int = 6) -> FiniteGroupoid:
    n = rng.randint(1, max_order)
    if n >= 6 and rng.randint(0, 1):
        return symmetric_group(3)
    return cyclic_group(n)


def _closure(g: FiniteGroupoid, seeds: set[int]) -> list[int]:
    """Close `seeds`, loops at one unit with its identity, under composition and inverses."""
    closed = set(seeds)
    frontier = list(seeds)
    while frontier:
        a = frontier.pop()
        for b in list(closed):
            for c in (g.comp[(a, b)], g.comp[(b, a)], g.inv[a]):
                if c not in closed:
                    closed.add(c)
                    frontier.append(c)
    return sorted(closed)


def random_subgroup(rng: SplitMix64, g: FiniteGroupoid) -> list[int]:
    """Close a random generator set; returns arrow indices."""
    seeds = {g.unit_arrow[0]}
    for _ in range(rng.randint(0, 2)):
        seeds.add(rng.randint(0, g.n_arrows - 1))
    return _closure(g, seeds)


def coset_action(g: FiniteGroupoid, subgroup: Sequence[int], tag: str) -> GSpaceAction:
    """Right translation of a one-unit groupoid on the cosets K\\g."""
    cosets: list[tuple[int, ...]] = []
    seen: dict[int, int] = {}
    for a in range(g.n_arrows):
        if a in seen:
            continue
        members = tuple(sorted(g.comp[(k, a)] for k in subgroup))
        for mbr in members:
            seen[mbr] = len(cosets)
        cosets.append(members)
    ids = tuple(f"{tag}c{i}" for i in range(len(cosets)))
    table = {
        (p, a): seen[g.comp[(cosets[p][0], a)]]
        for p in range(len(cosets))
        for a in range(g.n_arrows)
    }
    return make_action("right", g, ids, (0,) * len(cosets), table)


def random_groupoid(rng: SplitMix64, max_arrows: int = 24, max_order: int = 6) -> FiniteGroupoid:
    """Disjoint union of transformation groupoids of group coset actions."""
    parts: list[FiniteGroupoid] = []
    budget = max_arrows
    n_parts = rng.randint(1, max(1, min(6, max_arrows // 8)))
    for i in range(n_parts):
        for _ in range(8):  # retry until a piece fits the budget
            grp = random_group(rng, max_order)
            act = coset_action(grp, random_subgroup(rng, grp), f"p{i}")
            if act.n_points * grp.n_arrows <= max(budget, 1):
                tg, _ = transformation_groupoid(act)
                parts.append(tg)
                budget -= tg.n_arrows
                break
    if not parts:
        parts = [cyclic_group(1)]
    if len(parts) > 1:
        return disjoint_union(*parts)
    # a stored composition table: the generated groupoid is an input, and
    # validation reads its composition once per composable triple
    return replace(parts[0], comp=dict(parts[0].comp))


def random_haar(rng: SplitMix64, g: FiniteGroupoid) -> HaarSystem:
    return haar_from_unit_weights(g, tuple(rng.fraction() for _ in range(g.n_units)))


# ---------------------------------------------------------------------------
# bispaces and correspondence pairs


def _isotropy_subgroup(rng: SplitMix64, g: FiniteGroupoid, u: int) -> list[int]:
    """Closure of a random subset of the arrows u -> u."""
    iso = [a for a in g.fibre_src[u] if g.dst[a] == u]
    seeds = {g.unit_arrow[u]}
    for _ in range(rng.randint(1, 2)):
        seeds.add(rng.choice(iso))
    return _closure(g, seeds)


@dataclass
class _Piece:
    """One building block of a random bispace.

    Points are pairs of coset classes: arrows out of a left anchor unit
    (modulo right composition with a left isotropy subgroup) times arrows
    into a right anchor unit (modulo left composition with a right one).
    Nontrivial subgroups make the actions on the piece non-free, which
    exercises the weight-aggregation paths downstream.
    """

    ids: tuple[str, ...]
    pts: list[tuple[int, int]]  # class representative pairs
    lmom: tuple[int, ...]
    rmom: tuple[int, ...]
    lrep: dict[int, int]  # arrow out of u -> its class representative
    rrep: dict[int, int]  # arrow into v -> its class representative


def _classes(fibre, combine, sub):
    reps: dict[int, int] = {}
    for a in fibre:
        if a not in reps:
            members = sorted(combine(a, k) for k in sub)
            for m in members:
                reps[m] = members[0]
    return sorted(set(reps.values())), reps


def _fibre_piece(
    g_left: FiniteGroupoid,
    g_right: FiniteGroupoid,
    u: int,
    v: int,
    tag: str,
    lsub: Optional[Sequence[int]] = None,
    rsub: Optional[Sequence[int]] = None,
) -> _Piece:
    lcls, lrep = _classes(
        g_left.fibre_src[u],
        lambda a, k: g_left.comp[(a, k)],
        lsub or [g_left.unit_arrow[u]],
    )
    rcls, rrep = _classes(
        g_right.fibre_dst[v],
        lambda b, k: g_right.comp[(k, b)],
        rsub or [g_right.unit_arrow[v]],
    )
    pts = [(a, b) for a in lcls for b in rcls]
    ids = tuple(f"{tag}({g_left.arrow_ids[a]}|{g_right.arrow_ids[b]})" for a, b in pts)
    lmom = tuple(g_left.dst[a] for a, _ in pts)
    rmom = tuple(g_right.src[b] for _, b in pts)
    return _Piece(ids, pts, lmom, rmom, lrep, rrep)


def _assemble_bispace(
    g_left: FiniteGroupoid, g_right: FiniteGroupoid, pieces: list[_Piece]
) -> Bispace:
    ids: list[str] = []
    pts: list[tuple[int, int]] = []
    piece_of: list[int] = []
    lmoms: list[int] = []
    rmoms: list[int] = []
    for pc, piece in enumerate(pieces):
        ids += list(piece.ids)
        pts += piece.pts
        piece_of += [pc] * len(piece.pts)
        lmoms += list(piece.lmom)
        rmoms += list(piece.rmom)
    index = {(piece_of[k], pts[k][0], pts[k][1]): k for k in range(len(pts))}
    left_table = {}
    right_table = {}
    for k, (a, b) in enumerate(pts):
        piece = pieces[piece_of[k]]
        for c in g_left.fibre_src[lmoms[k]]:
            left_table[(c, k)] = index[(piece_of[k], piece.lrep[g_left.comp[(c, a)]], b)]
        for c in g_right.fibre_dst[rmoms[k]]:
            right_table[(k, c)] = index[(piece_of[k], a, piece.rrep[g_right.comp[(b, c)]])]
    return make_bispace(
        make_action("left", g_left, tuple(ids), tuple(lmoms), left_table),
        make_action("right", g_right, tuple(ids), tuple(rmoms), right_table),
    )


def _random_piece(
    rng: SplitMix64, g_left: FiniteGroupoid, g_right: FiniteGroupoid, u: int, v: int, tag: str
) -> _Piece:
    # half of the pieces quotient a leg by a random isotropy subgroup
    lsub = _isotropy_subgroup(rng, g_left, u) if rng.randint(0, 1) else None
    rsub = _isotropy_subgroup(rng, g_right, v) if rng.randint(0, 1) else None
    return _fibre_piece(g_left, g_right, u, v, tag, lsub, rsub)


def random_bispace(
    rng: SplitMix64,
    g_left: FiniteGroupoid,
    g_right: FiniteGroupoid,
    max_points: int,
    right_anchor_units: Optional[Sequence[int]] = None,
) -> tuple[Bispace, list[int]]:
    """A union of two-sided coset pieces; returns the bispace and the right
    anchor units used (so a partner space can be made to meet it)."""
    pieces: list[_Piece] = []
    anchors: list[int] = []
    total = 0
    for i in range(rng.randint(1, 3)):
        u = rng.randint(0, g_left.n_units - 1)
        if right_anchor_units:
            v = rng.choice(list(right_anchor_units))
        else:
            v = rng.randint(0, g_right.n_units - 1)
        piece = _random_piece(rng, g_left, g_right, u, v, f"{i}.")
        if not piece.pts or total + len(piece.pts) > max_points:
            continue
        anchors.append(v)
        pieces.append(piece)
        total += len(piece.pts)
    if not pieces:  # guarantee at least one piece
        v = right_anchor_units[0] if right_anchor_units else 0
        pieces = [_fibre_piece(g_left, g_right, 0, v, "0.")]
        anchors = [v]
    return _assemble_bispace(g_left, g_right, pieces), anchors


def orbit_averaged_family(
    rng: SplitMix64, space: Bispace, base: FiniteGroupoid
) -> MeasureFamily:
    """Random positive rational weights, averaged over right orbits so the
    family is right-invariant by construction."""
    raw = [rng.fraction() for _ in range(space.n_points)]
    orbits = orbit_space(space.right)
    weight = [Fraction(0)] * space.n_points
    for o in range(orbits.n_orbits):
        members = orbits.members[o]
        avg = ksum(raw[p] for p in members) / len(members)
        for p in members:
            weight[p] = avg
    return MeasureFamily(space.point_ids, base.unit_ids, space.right.momentum, tuple(weight))


def random_correspondence(
    rng: SplitMix64,
    left_haar: HaarSystem,
    right_haar: HaarSystem,
    max_points: int,
    right_anchor_units: Optional[Sequence[int]] = None,
    check: bool = True,
) -> tuple[Correspondence, list[int]]:
    space, anchors = random_bispace(
        rng, left_haar.groupoid, right_haar.groupoid, max_points, right_anchor_units
    )
    fam = orbit_averaged_family(rng, space, right_haar.groupoid)
    return make_correspondence(left_haar, right_haar, space, fam, check=check), anchors


def random_pair(
    seed: int,
    max_x: int = 16,
    max_y: int = 16,
    max_mid: int = 8,
    max_outer: int = 8,
    max_z: int = 400,
    check: bool = True,
) -> tuple[Correspondence, Correspondence]:
    """A seeded chainable pair of correspondences with nonempty composite."""
    for attempt in range(64):
        rng = SplitMix64((seed << 8) + attempt)
        g2 = random_groupoid(rng, max_mid)
        chi2 = random_haar(rng, g2)
        g1 = random_groupoid(rng, max_outer)
        chi1 = random_haar(rng, g1)
        g3 = random_groupoid(rng, max_outer)
        chi3 = random_haar(rng, g3)
        corr_x, anchors = random_correspondence(rng, chi1, chi2, max_x, check=check)
        # anchor Y's left side on units whose orbits meet the image of s_X
        seeds = sorted({corr_x.space.right.momentum[p] for p in range(corr_x.space.n_points)})
        y_space = _anchored_left_bispace(rng, g2, g3, max_y, seeds)
        fam_y = orbit_averaged_family(rng, y_space, g3)
        corr_y = make_correspondence(chi2, chi3, y_space, fam_y, check=check)
        n_z = sum(
            1
            for x in range(corr_x.space.n_points)
            for y in range(corr_y.space.n_points)
            if corr_x.space.right.momentum[x] == corr_y.space.left.momentum[y]
        )
        if 0 < n_z <= max_z:
            return corr_x, corr_y
    raise RuntimeError(f"could not build a pair for seed {seed}")


def _anchored_left_bispace(
    rng: SplitMix64,
    g_left: FiniteGroupoid,
    g_right: FiniteGroupoid,
    max_points: int,
    anchor_units: Sequence[int],
) -> Bispace:
    """Like random_bispace but anchoring the *left* pieces on given units:
    the piece out of u has left momenta covering the whole orbit of u, so
    anchoring on a unit met by the partner guarantees a nonempty fibre
    product."""
    pieces: list[_Piece] = []
    total = 0
    for i in range(rng.randint(1, 3)):
        u = rng.choice(list(anchor_units))
        v = rng.randint(0, g_right.n_units - 1)
        piece = _random_piece(rng, g_left, g_right, u, v, f"{i}.")
        if not piece.pts or total + len(piece.pts) > max_points:
            continue
        pieces.append(piece)
        total += len(piece.pts)
    if not pieces:
        pieces = [_fibre_piece(g_left, g_right, anchor_units[0], 0, "0.")]
    return _assemble_bispace(g_left, g_right, pieces)
