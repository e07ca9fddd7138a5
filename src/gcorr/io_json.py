"""Versioned JSON interchange for groupoids and correspondences.

Weights travel as strings ("3/4" or "0.25") when exact and as JSON numbers
when inexact; parsing is the mirror image, so a file round-trips to
canonical form byte-identically.  All structural problems (a missing field,
a container of the wrong JSON type, an entry of the wrong arity) and all
referential integrity problems, a key of an id-keyed table that names no
id among them, raise ParseError with a path into the document; so does an
object that lists a key twice.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Optional

from .correspondence import Correspondence, make_correspondence
from .groupoids import (
    GSpaceAction,
    GroupoidAxiomError,
    make_action,
    make_bispace,
    transformation_groupoid,
)
from .measures import HaarSystem, MeasureFamily, make_haar
from .util import GcorrError, format_scalar, parse_scalar, positive

FORMAT = "gcorr"
VERSION = 1


class ParseError(GcorrError):
    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


@dataclass
class InstanceData:
    groupoids: dict[str, HaarSystem]
    correspondences: list[tuple[str, Correspondence]] = field(default_factory=list)


_KINDS = {dict: "an object", list: "a list", str: "a string"}
_NOT_ARROW, _NOT_UNIT, _NOT_POINT = "not an arrow of the groupoid", "not a unit of the groupoid", "not a point of the space"


def _expect(value, kind: type, path: str):
    """`value` if it has the JSON type `kind`, else a ParseError at `path`."""
    if not isinstance(value, kind):
        raise ParseError(path, f"expected {_KINDS[kind]}, got {json.dumps(value)[:40]}")
    return value


def _need(obj: dict, key: str, path: str, kind: type = object):
    if key not in obj:
        raise ParseError(path, f"missing field {key!r}")
    return _expect(obj[key], kind, f"{path}.{key}")


def _ids(value, path: str) -> list[str]:
    """A list of string ids."""
    for k, item in enumerate(_expect(value, list, path)):
        if type(item) is not str:
            _expect(item, str, f"{path}[{k}]")
    return value


def _id_map(value, path: str) -> dict[str, str]:
    """An object mapping ids to ids."""
    for key, item in _expect(value, dict, path).items():
        if type(item) is not str:
            _expect(item, str, f"{path}.{key}")
    return value


def known_keys(doc: dict, ids, path: str, message: str) -> None:
    """A ParseError at `path.key`, with `message`, for the first key of
    `doc` outside the distinct `ids`.  Called once every id has been read
    from `doc`, so only a `doc` with more keys than ids has one."""
    if len(doc) > len(ids):
        raise ParseError(f"{path}.{next(key for key in doc if key not in ids)}", message)


def _triples(value, path: str, n_ids: int = 3) -> list[list]:
    """A list of entries of arity 3 whose first `n_ids` fields are ids."""
    for k, entry in enumerate(_expect(value, list, path)):
        if not isinstance(entry, list) or len(entry) != 3:
            raise ParseError(f"{path}[{k}]", "expected a triple")
        for item in entry[:n_ids]:
            if type(item) is not str:
                _ids(entry[:n_ids], f"{path}[{k}]")
    return value


def _scalar(raw, scalars: dict):
    """`parse_scalar(raw)`, with each string parsed once per `scalars`,
    the cache of one document."""
    if type(raw) is not str:
        return parse_scalar(raw)
    w = scalars.get(raw)
    if w is None:
        w = scalars[raw] = parse_scalar(raw)
    return w


def positive_weights(doc: dict, ids, path: str, missing: str, scalars: Optional[dict] = None) -> tuple:
    """The weights `doc[i]` for `i` in `ids`, each positive and finite,
    each distinct string parsed once per `scalars` (a fresh cache if None).

    An absent id is a ParseError at `path` with the message `missing`
    formatted with the id; a bad weight is one at `path.i`.
    """
    scalars = {} if scalars is None else scalars
    weights = []
    for i in ids:
        if i not in doc:
            raise ParseError(path, missing.format(i))
        try:
            w = _scalar(doc[i], scalars)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"{path}.{i}", str(exc)) from exc
        if not positive(w):
            raise ParseError(f"{path}.{i}", f"weight must be positive, got {w}")
        weights.append(w)
    return tuple(weights)


def _parse_groupoid(doc, path: str, scalars: dict) -> HaarSystem:
    _expect(doc, dict, path)
    arrows = _ids(_need(doc, "arrows", path), f"{path}.arrows")
    comp = _triples(_need(doc, "comp", path), f"{path}.comp")
    unit_arrows = doc.get("unit_arrows")
    try:
        from .groupoids import build_groupoid

        g = build_groupoid(
            _ids(_need(doc, "units", path), f"{path}.units"),
            arrows,
            _id_map(_need(doc, "src", path), f"{path}.src"),
            _id_map(_need(doc, "dst", path), f"{path}.dst"),
            [tuple(entry) for entry in comp],
            _id_map(_need(doc, "inv", path), f"{path}.inv"),
            None if unit_arrows is None else _id_map(unit_arrows, f"{path}.unit_arrows"),
        )
    except GroupoidAxiomError as exc:
        raise ParseError(path, str(exc)) from exc
    for table in ("src", "dst", "inv"):
        known_keys(doc[table], g._arrow_lookup, f"{path}.{table}", _NOT_ARROW)
    if unit_arrows is not None:
        known_keys(unit_arrows, g._unit_lookup, f"{path}.unit_arrows", _NOT_UNIT)
    haar_doc = _need(doc, "haar", path, dict)
    weights = positive_weights(haar_doc, arrows, f"{path}.haar", "missing weight for arrow {!r}", scalars)
    known_keys(haar_doc, g._arrow_lookup, f"{path}.haar", _NOT_ARROW)
    try:
        return make_haar(g, weights)
    except GcorrError as exc:
        raise ParseError(f"{path}.haar", str(exc)) from exc


def _bad_entry(entries: list, path: str, n_ids: int, k: int, message: str) -> ParseError:
    """The error of entry k, the first bad entry of a table read in one
    loop: the `_triples` error of the first malformed entry if the table
    has one, so that a table is judged as `_triples` then the reader would
    judge it; otherwise `message` at entry k."""
    _triples(entries, path, n_ids)
    return ParseError(f"{path}[{k}]", message)


def _parse_action(side, haar, points, p_idx, space_doc, space_path) -> GSpaceAction:
    """The `side` action of the space document at `space_path`: its
    `{side}_momentum` and `{side}_action` tables."""
    g = haar.groupoid
    momentum_doc = _need(space_doc, f"{side}_momentum", space_path, dict)
    table_doc = _need(space_doc, f"{side}_action", space_path)
    path, momentum_path = f"{space_path}.{side}_action", f"{space_path}.{side}_momentum"
    units = g._unit_lookup
    try:
        momentum = tuple(units[momentum_doc[p]] for p in points)
    except (KeyError, TypeError):  # a point with no unit, or an unknown or unhashable one
        p = next(p for p in points if not isinstance(momentum_doc.get(p), str) or momentum_doc[p] not in units)
        raise ParseError(f"{momentum_path}.{p}", f"unknown unit {momentum_doc.get(p)!r}") from None
    known_keys(momentum_doc, p_idx, momentum_path, _NOT_POINT)
    arrows, left, table = g._arrow_lookup, side == "left", {}
    entries = _expect(table_doc, list, path)
    for k, entry in enumerate(entries):
        try:
            if type(entry) is not list:
                raise TypeError
            if left:
                a, p, q = entry
                table[(arrows[a], p_idx[p])] = p_idx[q]
            else:
                p, a, q = entry
                table[(p_idx[p], arrows[a])] = p_idx[q]
        except (KeyError, TypeError, ValueError):  # an unknown, unhashable or missing id
            raise _bad_entry(entries, path, 3, k, f"unknown id in {entry}") from None
    try:
        return make_action(side, g, tuple(points), momentum, table)
    except GroupoidAxiomError as exc:
        raise ParseError(path, str(exc)) from exc


def _parse_correspondence(idx, doc, groupoids, path, scalars: dict) -> tuple[str, Correspondence]:
    _expect(doc, dict, path)
    name = _expect(doc.get("name", f"corr{idx}"), str, f"{path}.name")
    left_name = _need(doc, "left", path, str)
    right_name = _need(doc, "right", path, str)
    for gname in (left_name, right_name):
        if gname not in groupoids:
            raise ParseError(path, f"unknown groupoid {gname!r}")
    left_haar = groupoids[left_name]
    right_haar = groupoids[right_name]
    space_doc = _need(doc, "space", path, dict)
    points = _ids(_need(space_doc, "points", f"{path}.space"), f"{path}.space.points")
    p_idx = {p: i for i, p in enumerate(points)}
    if len(p_idx) != len(points):
        raise ParseError(f"{path}.space.points", "duplicate point ids")
    left = _parse_action("left", left_haar, points, p_idx, space_doc, f"{path}.space")
    right = _parse_action("right", right_haar, points, p_idx, space_doc, f"{path}.space")
    try:
        space = make_bispace(left, right)
    except GroupoidAxiomError as exc:
        raise ParseError(f"{path}.space", str(exc)) from exc

    fam_doc = _need(doc, "family", path, dict)
    weights = positive_weights(fam_doc, points, f"{path}.family", "missing weight for point {!r}", scalars)
    known_keys(fam_doc, p_idx, f"{path}.family", _NOT_POINT)
    try:
        family = MeasureFamily(tuple(points), right_haar.groupoid.unit_ids, right.momentum, weights)
    except ValueError as exc:
        raise ParseError(f"{path}.family", str(exc)) from exc

    adjoining = left_tg = None
    if "adjoining" in doc:
        left_tg = transformation_groupoid(space.left)
        tg_idx = left_tg[1]
        values = [None] * len(tg_idx)
        arrows, adj_path = left_haar.groupoid._arrow_lookup, f"{path}.adjoining"
        entries = _expect(doc["adjoining"], list, adj_path)
        for k, entry in enumerate(entries):
            try:
                if type(entry) is not list:
                    raise TypeError
                a, p, raw = entry
                t = tg_idx.get((arrows[a], p_idx[p]))
            except (KeyError, TypeError, ValueError):  # an unknown, unhashable or missing id
                raise _bad_entry(entries, adj_path, 2, k, f"unknown id in {entry}") from None
            if t is None:
                raise _bad_entry(entries, adj_path, 2, k, "pair is not composable")
            try:
                values[t] = _scalar(raw, scalars)
            except (ValueError, ZeroDivisionError) as exc:
                raise _bad_entry(entries, adj_path, 2, k, str(exc)) from exc
        if any(v is None for v in values):
            raise ParseError(f"{path}.adjoining", "cocycle values missing for some pairs")
        adjoining = tuple(values)

    try:
        corr = make_correspondence(left_haar, right_haar, space, family, adjoining, check=False, left_tg=left_tg)
    except GcorrError as exc:
        raise ParseError(path, str(exc)) from exc
    return name, corr


class _Repeats(dict):
    """A JSON object that lists `key` more than once."""

    key: str


def _repeated_key(doc, source: str) -> Optional[str]:
    """The path of the first repeated key in `doc`, in document order."""
    todo = [(source, doc)]
    while todo:
        path, value = todo.pop()
        if type(value) is _Repeats:
            return f"{path}.{value.key}"
        if isinstance(value, dict):
            todo += reversed([(f"{path}.{key}", item) for key, item in value.items()])
        elif isinstance(value, list):
            todo += reversed([(f"{path}[{k}]", item) for k, item in enumerate(value)])
    return None


def load_json(text: str, source: str):
    """The JSON value of `text`.  A syntax error is a ParseError at
    `source:line:column`, a value nested past the interpreter's recursion
    limit one at `source`, and an object that lists a key twice one at the
    path of that key, so a document means one thing or nothing."""
    repeats = []

    def pairs_hook(pairs: list) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            seen: set = set()
            obj = _Repeats(obj)
            obj.key = next(key for key, _ in pairs if key in seen or seen.add(key))
            repeats.append(obj)
        return obj

    try:
        doc = json.loads(text, object_pairs_hook=pairs_hook)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{source}:{exc.lineno}:{exc.colno}", exc.msg) from exc
    except RecursionError:
        raise ParseError(source, "nested too deeply") from None
    if repeats:
        raise ParseError(_repeated_key(doc, source), "repeated key")
    return doc


def _same_groupoid(doc, parsed_doc: dict) -> bool:
    """Whether `doc` is JSON-equal to `parsed_doc`, a groupoid document
    that parsed.  Python's `==` equates 1, 1.0 and true, which parse
    differently, but every leaf of a parsed document is a string except
    its Haar weights, so only their types are compared beyond `==`."""
    if doc != parsed_doc:
        return False
    haar = parsed_doc["haar"]
    return all(type(w) is type(haar[a]) for a, w in doc["haar"].items())


def parse_instance(text: str, source: str = "<instance>", seen: Optional[list] = None) -> InstanceData:
    """The groupoids and correspondences of an instance file.

    `seen` holds (document, Haar system) pairs of the groupoids parsed so
    far in one call, this file's and an earlier file's; a groupoid whose
    document is JSON-equal to one of them, whatever its name, is that Haar
    system, neither parsed nor swept again.  Each groupoid parsed here is
    added to it.  Each distinct weight string of the file is parsed once.
    """
    doc = load_json(text, source)
    if not isinstance(doc, dict) or doc.get("format") != FORMAT:
        raise ParseError(source, f"not a {FORMAT} instance file")
    if doc.get("version") != VERSION or isinstance(doc.get("version"), bool):
        raise ParseError(source, f"unsupported version {doc.get('version')!r}")
    seen = [] if seen is None else seen
    scalars: dict = {}
    groupoids = {}
    for name, gdoc in sorted(_need(doc, "groupoids", source, dict).items()):
        haar = next((h for parsed_doc, h in seen if _same_groupoid(gdoc, parsed_doc)), None)
        if haar is None:
            haar = _parse_groupoid(gdoc, f"{source}.groupoids.{name}", scalars)
            seen.append((gdoc, haar))
        groupoids[name] = haar
    data = InstanceData(groupoids)
    corr_docs = _expect(doc.get("correspondences", []), list, f"{source}.correspondences")
    for i, cdoc in enumerate(corr_docs):
        data.correspondences.append(
            _parse_correspondence(i, cdoc, groupoids, f"{source}.correspondences[{i}]", scalars)
        )
    return data


# ---------------------------------------------------------------------------
# serialization


def _groupoid_doc(haar: HaarSystem) -> dict:
    g = haar.groupoid
    return {
        "units": list(g.unit_ids),
        "arrows": list(g.arrow_ids),
        "src": {g.arrow_ids[a]: g.unit_ids[g.src[a]] for a in range(g.n_arrows)},
        "dst": {g.arrow_ids[a]: g.unit_ids[g.dst[a]] for a in range(g.n_arrows)},
        "comp": sorted(
            [g.arrow_ids[a], g.arrow_ids[b], g.arrow_ids[c]]
            for (a, b), c in g.comp.items()
        ),
        "inv": {g.arrow_ids[a]: g.arrow_ids[g.inv[a]] for a in range(g.n_arrows)},
        "unit_arrows": {g.unit_ids[u]: g.arrow_ids[g.unit_arrow[u]] for u in range(g.n_units)},
        "haar": {g.arrow_ids[a]: format_scalar(haar.w(a)) for a in range(g.n_arrows)},
    }


def _action_doc(act: GSpaceAction) -> tuple[dict, list]:
    g = act.groupoid
    momentum = {act.point_ids[p]: g.unit_ids[act.momentum[p]] for p in range(act.n_points)}
    if act.side == "left":
        table = sorted(
            [g.arrow_ids[a], act.point_ids[p], act.point_ids[q]]
            for (a, p), q in act.table.items()
        )
    else:
        table = sorted(
            [act.point_ids[p], g.arrow_ids[a], act.point_ids[q]]
            for (p, a), q in act.table.items()
        )
    return momentum, table


def serialize_instance(correspondences: list[tuple[str, Correspondence]]) -> str:
    """Canonical JSON text for a list of named correspondences.

    Shared groupoids are registered once (matched structurally), so a
    chainable pair shows its middle groupoid a single time.
    """
    registry: list[tuple[str, HaarSystem]] = []

    def register(haar: HaarSystem) -> str:
        for name, known in registry:
            if known == haar:
                return name
        name = f"G{len(registry)}"
        registry.append((name, haar))
        return name

    corr_docs = []
    for name, corr in correspondences:
        left_name = register(corr.left_haar)
        right_name = register(corr.right_haar)
        lmom, ltab = _action_doc(corr.space.left)
        rmom, rtab = _action_doc(corr.space.right)
        g = corr.left
        adjoining = sorted(
            [g.arrow_ids[a], corr.space.point_ids[p], format_scalar(corr.adjoining.value[k])]
            for (a, p), k in corr.left_tg_index.items()
        )
        corr_docs.append(
            {
                "name": name,
                "left": left_name,
                "right": right_name,
                "space": {
                    "points": list(corr.space.point_ids),
                    "left_momentum": lmom,
                    "right_momentum": rmom,
                    "left_action": ltab,
                    "right_action": rtab,
                },
                "family": {
                    corr.space.point_ids[p]: format_scalar(corr.family.weight[p])
                    for p in range(corr.space.n_points)
                },
                "adjoining": adjoining,
            }
        )
    doc = {
        "format": FORMAT,
        "version": VERSION,
        "groupoids": {name: _groupoid_doc(h) for name, h in registry},
        "correspondences": corr_docs,
    }
    return canonical_json(doc) + "\n"


def canonical_json(obj) -> str:
    """What `json.dumps` writes for `obj` with a 2-space indent and sorted
    keys, byte for byte.

    With an indent, `json` leaves its C encoder for a pure-Python generator
    that yields one token at a time; this writer escapes strings with the C
    `encode_basestring_ascii` and joins each container's items into one
    string instead.  Lists and tuples are written alike, dict keys must be
    strings, and every other leaf goes to `json.dumps` itself.
    """
    return _canonical(obj, "\n")


def _canonical(value, newline: str) -> str:
    if type(value) is str:
        return _encode_str(value)
    inner = newline + "  "
    if isinstance(value, dict):
        items = [_encode_str(key) + ": " + _canonical(item, inner) for key, item in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + newline + "}" if items else "{}"
    if isinstance(value, (list, tuple)):
        items = [_canonical(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]" if items else "[]"
    return json.dumps(value)
