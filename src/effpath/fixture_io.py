"""Fixture files: JSON documents describing objects and morphisms, with
structure codes written either as raw naturals or as s-expressions over the
machine basis (lambda sugar is compiled away by bracket abstraction).

The serialized form is canonical: parse -> serialize -> parse is the
identity, and identical inputs always produce identical bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import pca
from .core import SynthesisFailed, make_object, synthesize_morphism
from .eff1 import inflate, make_object1

FORMAT_VERSION = 1


class FixtureError(Exception):
    """Malformed fixture input; the message carries position information."""


# --- s-expression code literals ---------------------------------------------

_CONSTANTS = {
    "K": pca.K, "S": pca.S, "PAIR": pca.PAIR, "FST": pca.FST_C,
    "SND": pca.SND_C, "SUCC": pca.SUCC_C, "IFEQ": pca.IFEQ,
    "DIVERGE": pca.DIVERGE_C, "ID": pca.ID,
}


def _tokenize(text: str):
    """Yield (token, line, column) triples."""
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line, col = line + 1, 1
            i += 1
        elif c.isspace():
            col += 1
            i += 1
        elif c in "()":
            yield c, line, col
            col += 1
            i += 1
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in "()":
                j += 1
            yield text[i:j], line, col
            col += j - i
            i = j


def _parse_sexp(text: str):
    toks = list(_tokenize(text))
    pos = 0

    def atom(tok, line, col):
        if tok.isdigit():
            return int(tok)
        return tok

    def parse():
        nonlocal pos
        if pos >= len(toks):
            raise FixtureError("unexpected end of expression")
        tok, line, col = toks[pos]
        pos += 1
        if tok == "(":
            items = []
            while True:
                if pos >= len(toks):
                    raise FixtureError(
                        f"unclosed '(' at line {line}, column {col}")
                if toks[pos][0] == ")":
                    pos += 1
                    return items
                items.append(parse())
        if tok == ")":
            raise FixtureError(f"unmatched ')' at line {line}, column {col}")
        return atom(tok, line, col)

    out = parse()
    if pos != len(toks):
        tok, line, col = toks[pos]
        raise FixtureError(
            f"trailing input {tok!r} at line {line}, column {col}")
    return out


def _to_term(node, bound):
    if isinstance(node, int):
        return node
    if isinstance(node, str):
        if node in bound:
            return pca.Var(node)
        if node in _CONSTANTS:
            return _CONSTANTS[node]
        raise FixtureError(f"unknown symbol {node!r}")
    if not node:
        raise FixtureError("empty application ()")
    head = node[0]
    if head == "lambda":
        if len(node) != 3 or not isinstance(node[1], list) \
                or not all(isinstance(v, str) for v in node[1]):
            raise FixtureError("lambda wants (lambda (vars...) body)")
        body = _to_term(node[2], bound | set(node[1]))
        for v in reversed(node[1]):
            body = pca.Lam(v, body)
        return body
    if head == "table":
        entries = {}
        for e in node[1:]:
            if not (isinstance(e, list) and len(e) == 2
                    and all(isinstance(x, int) for x in e)):
                raise FixtureError("table wants (table (key value)...)")
            entries[e[0]] = e[1]
        return pca.tabulate(entries)
    if head == "tuple":
        parts = [_to_term(x, bound) for x in node[1:]]
        if not parts or not all(isinstance(p, (int, pca.Table))
                                     for p in parts):
            raise FixtureError("tuple wants one or more closed arguments")
        return pca.tuple_encode(*parts)
    if head == "const":
        if len(node) != 2 or not isinstance(node[1], int):
            raise FixtureError("const wants (const n)")
        return pca.const_code(node[1])
    return pca.app(_to_term(head, bound),
                   *[_to_term(x, bound) for x in node[1:]])


def compile_code(literal) -> int:
    """A code literal: a raw natural or an s-expression string."""
    if isinstance(literal, int):
        if literal < 0:
            raise FixtureError(f"negative code literal {literal}")
        return literal
    if not isinstance(literal, str):
        raise FixtureError(f"bad code literal {literal!r}")
    try:
        return pca.compile_term(_to_term(_parse_sexp(literal), set()))
    except pca.UnboundVariable as e:
        raise FixtureError(f"unbound variable {e} in {literal!r}") from e
    except (pca.Diverges, pca.FuelExhausted) as e:
        raise FixtureError(
            f"code literal {literal!r} does not normalize") from e


# --- the document model ------------------------------------------------------

@dataclass
class FixtureFile:
    version: int
    spec: dict                     # the canonical JSON-shaped document
    objects: dict = field(default_factory=dict)    # name -> EffObject
    morphisms: dict = field(default_factory=dict)  # name -> EffMorphism
    objects1: dict = field(default_factory=dict)   # name -> Eff1Object
    morphisms1: dict = field(default_factory=dict)
    expectations: dict = field(default_factory=dict)  # name -> dict

    def resolve(self, name: str):
        for pool in (self.morphisms1, self.objects1, self.morphisms,
                     self.objects):
            if name in pool:
                return pool[name]
        raise FixtureError(f"unknown fixture name {name!r}")


def _hom_key(a: str, b: str) -> str:
    return f"{a} {b}"


def _split_key(key: str, parts: int, where: str):
    bits = key.split(" ")
    if len(bits) != parts:
        raise FixtureError(f"bad {where} key {key!r}: want {parts} fields")
    return bits


def _shaped(value, kind: type, what: str):
    """value, when it is a JSON object (kind dict) or array (kind list);
    else a FixtureError."""
    if not isinstance(value, kind):
        shape = "object" if kind is dict else "array"
        raise FixtureError(f"{what} must be a JSON {shape}")
    return value


def _level(doc: dict, where: str) -> int:
    level = doc.get("level", 0)
    if level not in (0, 1):
        raise FixtureError(f"{where}: level must be 0 or 1")
    return int(level)


def _canon_object(name: str, doc: dict) -> dict:
    _shaped(doc, dict, f"object {name!r}")
    cells = doc.get("cells")
    if not isinstance(cells, list) \
            or not all(isinstance(c, str) and " " not in c for c in cells):
        raise FixtureError(
            f"object {name!r}: cells must be space-free strings")
    realizer = _shaped(doc.get("realizer", {}), dict,
                       f"object {name!r} realizer")
    hom = _shaped(doc.get("hom", {}), dict, f"object {name!r} hom")
    out = {
        "cells": list(cells),
        "realizer": {c: compile_code(realizer.get(c, 0)) for c in cells},
        "hom": {},
        "level": _level(doc, f"object {name!r}"),
    }
    for key, vals in sorted(hom.items()):
        a, b = _split_key(key, 2, f"object {name!r} hom")
        if a not in cells or b not in cells:
            raise FixtureError(f"object {name!r}: hom key {key!r} "
                               "names an unknown cell")
        _shaped(vals, list, f"object {name!r} hom {key!r}")
        out["hom"][_hom_key(a, b)] = sorted(compile_code(v) for v in vals)
    if "hom2" in doc:
        out["hom2"] = {}
        hom2 = _shaped(doc["hom2"], dict, f"object {name!r} hom2")
        for key, vals in sorted(hom2.items()):
            a, b, p, q = _split_key(key, 4, f"object {name!r} hom2")
            if a not in cells or b not in cells \
                    or not (p.isdigit() and q.isdigit()):
                raise FixtureError(f"object {name!r}: hom2 key {key!r} "
                                   "wants two cells and two 1-cells")
            _shaped(vals, list, f"object {name!r} hom2 {key!r}")
            out["hom2"][key] = sorted(compile_code(v) for v in vals)
    return _annotated(out, doc, f"object {name!r}")


def _canon_morphism(name: str, doc: dict) -> dict:
    _shaped(doc, dict, f"morphism {name!r}")
    for fld in ("dom", "cod"):
        if not isinstance(doc.get(fld), str):
            raise FixtureError(f"morphism {name!r}: missing {fld}")
    zm = _shaped(doc.get("zero_map", {}), dict,
                 f"morphism {name!r} zero_map")
    out = {
        "dom": doc["dom"],
        "cod": doc["cod"],
        "zero_map": dict(sorted(zm.items())),
        "level": _level(doc, f"morphism {name!r}"),
    }
    return _annotated(out, doc, f"morphism {name!r}")


def _annotated(out: dict, doc: dict, where: str) -> dict:
    """out with the document's expectations and note, if it has them."""
    if "expect" in doc:
        out["expect"] = dict(sorted(
            _shaped(doc["expect"], dict, f"{where} expect").items()))
    if "note" in doc:
        out["note"] = str(doc["note"])
    return out


def _build_object(name: str, spec: dict):
    hom = {tuple(k.split(" ")): frozenset(v)
           for k, v in spec["hom"].items()}
    if spec["level"] == 0:
        return make_object(spec["cells"], spec["realizer"], hom, name=name)
    if "hom2" in spec:
        hom2 = {}
        for k, v in spec["hom2"].items():
            a, b, p, q = k.split(" ")
            hom2[(a, b, int(p), int(q))] = frozenset(v)
        return make_object1(spec["cells"], spec["realizer"], hom,
                            hom2, name=name)
    base = make_object(spec["cells"], spec["realizer"], hom, name=name)
    return inflate(base, name=name)


def parse_fixture_text(text: str, source: str = "<string>") -> FixtureFile:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise FixtureError(
            f"{source}: line {e.lineno}, column {e.colno}: {e.msg}") from e
    if not isinstance(doc, dict):
        raise FixtureError(f"{source}: top level must be an object")
    version = doc.get("format")
    if version != FORMAT_VERSION:
        raise FixtureError(f"{source}: unsupported format {version!r}")
    spec = {"format": FORMAT_VERSION, "objects": {}, "morphisms": {}}
    ff = FixtureFile(version=FORMAT_VERSION, spec=spec)
    try:
        for name, odoc in sorted(
                _shaped(doc.get("objects", {}), dict, "objects").items()):
            spec["objects"][name] = _canon_object(name, odoc)
        for name, mdoc in sorted(
                _shaped(doc.get("morphisms", {}), dict, "morphisms").items()):
            spec["morphisms"][name] = _canon_morphism(name, mdoc)
    except FixtureError as e:
        raise FixtureError(f"{source}: {e}") from e
    for name, ospec in spec["objects"].items():
        try:
            obj = _build_object(name, ospec)
        except SynthesisFailed as e:
            raise FixtureError(f"{source}: object {name!r}: no uniform "
                               f"structure code ({e})") from e
        (ff.objects if ospec["level"] == 0 else ff.objects1)[name] = obj
        if "expect" in ospec:
            ff.expectations[name] = ospec["expect"]
    for name, mspec in spec["morphisms"].items():
        level = mspec["level"]
        pool = ff.objects if level == 0 else ff.objects1
        for fld in ("dom", "cod"):
            if mspec[fld] not in pool:
                raise FixtureError(f"{source}: morphism {name!r}: "
                                   f"unknown {fld} {mspec[fld]!r}")
        with pca.fuel_limit(pca.DEFAULT_FUEL):  # an input, not a verdict
            m = synthesize_morphism(pool[mspec["dom"]], pool[mspec["cod"]],
                                    dict(mspec["zero_map"]), name=name)
        if m is None:
            raise FixtureError(f"{source}: morphism {name!r}: "
                               "the zero map is not trackable")
        (ff.morphisms if level == 0 else ff.morphisms1)[name] = m
        if "expect" in mspec:
            ff.expectations[name] = mspec["expect"]
    return ff


def parse_fixture_file(path: str) -> FixtureFile:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise FixtureError(f"{path}: cannot read: {e}") from e
    return parse_fixture_text(text, source=path)


def serialize_fixture_file(ff: FixtureFile) -> str:
    return json.dumps(ff.spec, indent=2, sort_keys=True) + "\n"
