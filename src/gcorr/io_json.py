"""Versioned JSON interchange for groupoids and correspondences.

Weights travel as strings ("3/4" or "0.25") when exact and as JSON numbers
when inexact; parsing is the mirror image, so a file round-trips to
canonical form byte-identically.  All structural problems (a missing field,
a container of the wrong JSON type, an entry of the wrong arity) and all
referential integrity problems, a key of an id-keyed table that names no
id among them, raise ParseError with a path into the document; so does an
object that lists a key twice.

An instance file is written by `serialize_instance` straight from the
integer tables, with the bytes of `json.dumps(indent=2, sort_keys=True)`
and no document built in between.  A table row whose key, (a, b) in
`comp`, (a, p) in `left_action` and `adjoining` or (p, a) in
`right_action`, repeats an earlier row's key is a ParseError at its
entry, naming the earlier one, as a repeated object key is.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

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
    if len({(entry[0], entry[1]) for entry in comp}) < len(comp):
        raise _repeated_row(comp, f"{path}.comp", 3)
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


def _repeated_row(entries: list, path: str, n_ids: int) -> ParseError:
    """The error of the first entry whose key, its first two ids, repeats
    an earlier entry's, naming that earlier entry, as `_bad_entry` reports
    it.  Every entry before it is a well-formed row."""
    first: dict = {}
    for k, entry in enumerate(entries):
        j = first.setdefault((entry[0], entry[1]), k)
        if j != k:
            return _bad_entry(entries, path, n_ids, k, f"repeats the key of entry {j}")


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
    if len(table) < len(entries):
        raise _repeated_row(entries, path, 3)
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
            if values[t] is not None:
                raise _repeated_row(entries, adj_path, 2)
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


def _container(open_: str, items: list[str], close: str, depth: int) -> str:
    """A JSON container of the rendered `items`, each on its own line at
    `depth` spaces, as `json.dumps(indent=2)` lays it out."""
    if not items:
        return open_ + close
    inner = "\n" + " " * depth
    return open_ + inner + ("," + inner).join(items) + "\n" + " " * (depth - 2) + close


class _Ids(NamedTuple):
    """The ids of one table, each JSON-encoded once (`text`); their
    indices in `sort_keys` order (`order`); each index's place there."""

    text: list[str]
    order: list[int]
    rank: list[int]


def _ids_of(ids: Sequence[str]) -> _Ids:
    order = sorted(range(len(ids)), key=ids.__getitem__)
    rank = [0] * len(ids)
    for r, i in enumerate(order):
        rank[i] = r
    return _Ids([_encode_str(i) for i in ids], order, rank)


def _keyed(keys: _Ids, values: Sequence[str], depth: int) -> str:
    """The object {id i of `keys`: values[i]}."""
    return _container("{", [keys.text[i] + ": " + values[i] for i in keys.order], "}", depth)


def _rows(table: Mapping, first: _Ids, second: _Ids, third: Sequence[str], depth: int) -> str:
    """The entries (i, j) -> k of `table` as rows [first id i, second id
    j, third[k]], in the order `sorted` gives the rows of raw ids: (i, j)
    is unique, so its two ranks decide."""
    r1, r2, n2 = first.rank, second.rank, len(second.rank)
    keyed = sorted([(r1[i] * n2 + r2[j], i, j, k) for (i, j), k in table.items()])
    t1, t2, item = first.text, second.text, "\n" + " " * (depth + 2)
    template = f"[{item}%s,{item}%s,{item}%s\n{' ' * depth}]"
    return _container("[", [template % (t1[i], t2[j], third[k]) for _, i, j, k in keyed], "]", depth)


def _groupoid_text(haar: HaarSystem, u: _Ids, a: _Ids, weights: Callable) -> str:
    """The groupoid of `haar` with its weights, given the `_Ids` of its
    units `u` and of its arrows `a`."""
    g = haar.groupoid
    return _container("{", [
        '"arrows": ' + _container("[", a.text, "]", 8),
        '"comp": ' + _rows(g.comp, a, a, a.text, 8),
        '"dst": ' + _keyed(a, [u.text[v] for v in g.dst], 8),
        '"haar": ' + _keyed(a, weights(haar.family.weight), 8),
        '"inv": ' + _keyed(a, [a.text[b] for b in g.inv], 8),
        '"src": ' + _keyed(a, [u.text[v] for v in g.src], 8),
        '"unit_arrows": ' + _keyed(u, [a.text[b] for b in g.unit_arrow], 8),
        '"units": ' + _container("[", u.text, "]", 8),
    ], "}", 6)


def _correspondence_text(corr: Correspondence, names: tuple[str, str, str], units: dict, arrows: dict,
                         weights: Callable) -> str:
    """The correspondence `corr`, named and with its groupoids named by
    `names`, given the `_Ids` of the groupoids by name."""
    name, left, right = names
    space = corr.space
    points = _ids_of(space.point_ids)
    space_text = _container("{", [
        '"left_action": ' + _rows(space.left.table, arrows[left], points, points.text, 10),
        '"left_momentum": ' + _keyed(points, [units[left].text[u] for u in space.left.momentum], 10),
        '"points": ' + _container("[", points.text, "]", 10),
        '"right_action": ' + _rows(space.right.table, points, arrows[right], points.text, 10),
        '"right_momentum": ' + _keyed(points, [units[right].text[u] for u in space.right.momentum], 10),
    ], "}", 8)
    return _container("{", [
        '"adjoining": ' + _rows(corr.left_tg_index, arrows[left], points, weights(corr.adjoining.value), 8),
        '"family": ' + _keyed(points, weights(corr.family.weight), 8),
        '"left": ' + _encode_str(left),
        '"name": ' + _encode_str(name),
        '"right": ' + _encode_str(right),
        '"space": ' + space_text,
    ], "}", 6)


def serialize_instance(correspondences: list[tuple[str, Correspondence]]) -> str:
    """Canonical JSON text for a list of named correspondences.

    Shared groupoids are registered once (matched structurally), so a
    chainable pair shows its middle groupoid a single time.  The text is
    rendered straight from the integer tables, with one template per row,
    each id encoded once and each distinct weight formatted once; it is
    byte for byte `json.dumps(doc, indent=2, sort_keys=True) + "\\n"` of
    the nested document of those tables (`tests/conftest.instance_doc`).
    """
    registry: list[tuple[str, HaarSystem]] = []

    def register(haar: HaarSystem) -> str:
        for name, known in registry:
            if known == haar:
                return name
        name = f"G{len(registry)}"
        registry.append((name, haar))
        return name

    formatted: dict = {}

    def weights(values: Sequence) -> list[str]:
        # 1, 1.0 and Fraction(1) hash alike but 1.0 is written 1.0, so the
        # key holds the type; a Fraction is keyed by its integer ratio,
        # which hashes faster than the Fraction itself
        out = []
        for w in values:
            key = (type(w), w.as_integer_ratio() if type(w) is Fraction else w)
            text = formatted.get(key)
            if text is None:
                text = formatted[key] = json.dumps(format_scalar(w))
            out.append(text)
        return out

    names = [(name, register(corr.left_haar), register(corr.right_haar)) for name, corr in correspondences]
    units = {name: _ids_of(h.groupoid.unit_ids) for name, h in registry}
    arrows = {name: _ids_of(h.groupoid.arrow_ids) for name, h in registry}
    corr_texts = [
        _correspondence_text(corr, named, units, arrows, weights) for named, (_, corr) in zip(names, correspondences)
    ]
    groupoid_texts = [
        _encode_str(name) + ": " + _groupoid_text(haar, units[name], arrows[name], weights)
        for name, haar in sorted(registry, key=lambda entry: entry[0])
    ]
    return _container("{", [
        '"correspondences": ' + _container("[", corr_texts, "]", 4),
        '"format": ' + _encode_str(FORMAT),
        '"groupoids": ' + _container("{", groupoid_texts, "}", 4),
        '"version": ' + json.dumps(VERSION),
    ], "}", 2) + "\n"
