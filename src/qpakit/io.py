"""JSON interchange for automaton specs and DFA inputs.

The automaton document is flat JSON: alphabets and state sets as arrays,
the table as an array of transition objects whose ``push`` field is the
concatenation of the pushed stack symbols ("" for the empty word) and
whose ``amp`` field is an amplitude literal.  Unknown fields are
rejected so that typos fail loudly.  Serialization is deterministic and
survives a parse round trip byte for byte.
"""
from __future__ import annotations

import json
from pathlib import Path

from .model import (
    Alphabets,
    DfaSpec,
    Direction,
    KIND_GENERAL,
    KINDS,
    ParseError,
    QpaSpec,
    StructureError,
    SymbolError,
    format_amplitude,
    quote,
    quote_all,
    spec_from_rows,
    validate_structure,
)


_QPA_FIELDS = {
    "kind", "states", "input_alphabet", "stack_alphabet", "initial",
    "accepting", "rejecting", "direction", "transitions", "name",
}
_TRANSITION_FIELDS = {"from", "input", "stack_top", "to", "dir", "push", "amp"}
_DFA_FIELDS = {"states", "alphabet", "initial", "finals", "transitions"}
_DIRECTIONS = {d.value: d for d in Direction}


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ParseError(msg)


def _str_list(doc: dict, field: str) -> list[str]:
    v = doc.get(field)
    _require(isinstance(v, list) and all(isinstance(x, str) for x in v), f"{field!r} must be a list of strings")
    return v


def tokenize_push(text: str, stack_symbols: frozenset[str]) -> tuple[str, ...]:
    """Split a concatenated push string into at most two stack symbols.

    Every segmentation into one or two declared symbols is tried; the
    string is rejected unless exactly one segmentation exists.
    """
    if text == "":
        return ()
    options: list[tuple[str, ...]] = []
    if text in stack_symbols:
        options.append((text,))
    for cut in range(1, len(text)):
        a, b = text[:cut], text[cut:]
        if a in stack_symbols and b in stack_symbols:
            options.append((a, b))
    if not options:
        raise ParseError(f"push word {quote(text)} is not a sequence of declared stack symbols")
    if len(options) > 1:
        raise ParseError(f"push word {quote(text)} is ambiguous: {quote_all(options, quote_all)}")
    return options[0]


def tokenize_word(alphabets: Alphabets, word: str) -> tuple[str, ...]:
    """Split an input word into alphabet symbols, longest match first.

    At each position the longest symbol is taken after which the rest of
    the word still splits into symbols, so a greedy choice never strands
    a word that has a split (``abc`` over {a, ab, bc} is ``a·bc``).  A
    backward pass marks the positions from which the rest splits; the
    work is linear in the word length.
    """
    sigma = alphabets.sigma
    lengths = sorted({len(s) for s in sigma}, reverse=True)
    n = len(word)
    # cut[i]: length of the symbol taken at i, 0 if word[i:] has no split;
    # the zeros past n stand for positions beyond the end of the word
    cut = [0] * n + [-1] + [0] * max(lengths, default=0)
    for i in range(n - 1, -1, -1):
        for k in lengths:
            if cut[i + k] and word[i:i + k] in sigma:
                cut[i] = k
                break
    if not cut[0]:
        reached = {0}
        for i in range(n):
            if i in reached:
                reached.update(i + k for k in lengths if word[i:i + k] in sigma)
        pos = max(reached)
        raise SymbolError(f"word {quote(word, pos)} contains no declared symbol at position {pos}")
    out: list[str] = []
    i = 0
    while i < n:
        out.append(word[i:i + cut[i]])
        i += cut[i]
    return tuple(out)


def _checked_rows(items: list, stack_symbols: frozenset[str]):
    """The transition objects as builder rows, each checked when the builder reaches it; a check formats
    its message only when it fails, and each distinct push word is split once."""
    pushes: dict[str, tuple[str, ...]] = {}
    for i, item in enumerate(items):
        if not isinstance(item, dict):
            raise ParseError(f"transition {i} must be an object")
        if item.keys() != _TRANSITION_FIELDS:
            unknown = set(item) - _TRANSITION_FIELDS
            _require(not unknown, f"transition {i}: unknown fields {quote_all(sorted(unknown))}")
            missing = _TRANSITION_FIELDS - set(item)
            _require(not missing, f"transition {i}: missing fields {sorted(missing)}")
        try:
            "".join(item.values())      # the cheapest check that every field is a string
        except TypeError:
            f = min(f for f in _TRANSITION_FIELDS if not isinstance(item[f], str))
            raise ParseError(f"transition {i}: {f!r} must be a string") from None
        d = _DIRECTIONS.get(item["dir"])
        if d is None:
            raise ParseError(f"transition {i}: bad dir {quote(item['dir'])}")
        omega = pushes.get(item["push"])
        if omega is None:
            try:
                omega = pushes[item["push"]] = tokenize_push(item["push"], stack_symbols)
            except ParseError as exc:
                raise ParseError(f"transition {i}: {exc}") from exc
        yield item["from"], item["input"], item["stack_top"], item["to"], d, omega, item["amp"]


def qpa_from_dict(doc: dict, validate: bool = True) -> QpaSpec:
    _require(isinstance(doc, dict), "document must be a JSON object")
    unknown = set(doc) - _QPA_FIELDS
    _require(not unknown, f"unknown fields {quote_all(sorted(unknown))}")
    for f in ("kind", "states", "input_alphabet", "stack_alphabet", "initial",
              "accepting", "rejecting", "transitions"):
        _require(f in doc, f"missing field {f!r}")

    kind = doc["kind"]
    _require(kind in KINDS, f"unknown kind {quote(kind)}")
    states = _str_list(doc, "states")
    _require(len(states) == len(set(states)), "duplicate state names")
    sigma = _str_list(doc, "input_alphabet")
    t = _str_list(doc, "stack_alphabet")
    _require(len(sigma) == len(set(sigma)), "duplicate input symbols")
    _require(len(t) == len(set(t)), "duplicate stack symbols")
    try:
        alphabets = Alphabets(sigma=frozenset(sigma), t=frozenset(t))
    except SymbolError as exc:
        raise ParseError(str(exc)) from exc

    _require(isinstance(doc["initial"], str), "'initial' must be a string")
    _require(isinstance(doc.get("name", ""), str), "'name' must be a string")
    accepting = _str_list(doc, "accepting")
    rejecting = _str_list(doc, "rejecting")

    direction = None
    if kind != KIND_GENERAL:
        _require("direction" in doc, f"kind {quote(kind)} requires a 'direction' map")
    if "direction" in doc:
        raw = doc["direction"]
        _require(isinstance(raw, dict), "'direction' must be an object")
        direction = {}
        for q, d in raw.items():
            _require(d in ("stay", "advance"), f"direction for {quote(q)} must be 'stay' or 'advance'")
            direction[q] = _DIRECTIONS[d]

    _require(isinstance(doc["transitions"], list), "'transitions' must be a list")
    spec = spec_from_rows(_checked_rows(doc["transitions"], alphabets.delta_alpha), alphabets, states,
                          doc["initial"], accepting, rejecting, kind, direction, doc.get("name", ""))
    if validate:
        violations = validate_structure(spec)
        if violations:
            raise StructureError(violations)
    return spec


def qpa_to_dict(spec: QpaSpec) -> dict:
    doc: dict = {"kind": spec.kind}
    if spec.name:
        doc["name"] = spec.name
    doc["states"] = sorted(spec.states)
    doc["input_alphabet"] = list(spec.alphabets.sigma_sorted())
    doc["stack_alphabet"] = list(spec.alphabets.t_sorted())
    doc["initial"] = spec.q0
    doc["accepting"] = sorted(spec.q_accept)
    doc["rejecting"] = sorted(spec.q_reject)
    if spec.direction_fn is not None:
        doc["direction"] = {q: spec.direction_fn[q].value for q in sorted(spec.direction_fn)}
    doc["transitions"] = [
        {
            "from": k.q1,
            "input": k.sigma,
            "stack_top": k.tau,
            "to": k.q,
            "dir": k.d.value,
            "push": "".join(k.omega),
            "amp": spec.amp_literals.get(k, format_amplitude(spec.delta[k])),
        }
        for k in spec.sorted_keys()
    ]
    return doc


def qpa_dumps(spec: QpaSpec) -> str:
    return json.dumps(qpa_to_dict(spec), indent=2) + "\n"


def read_text(path: str | Path) -> str:
    """An input file's text: UTF-8, with a leading byte-order mark dropped (RFC 8259 allows one)."""
    try:
        return Path(path).read_bytes().decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: invalid UTF-8 at byte {exc.start}") from None


def _json_loads(text: str):
    """``json.loads``, with every way the text can fail to parse a ParseError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None


def qpa_loads(text: str, validate: bool = True) -> QpaSpec:
    return qpa_from_dict(_json_loads(text), validate=validate)


def load_qpa(path: str | Path, validate: bool = True) -> QpaSpec:
    return qpa_loads(read_text(path), validate=validate)


def save_qpa(spec: QpaSpec, path: str | Path) -> None:
    Path(path).write_text(qpa_dumps(spec), encoding="utf-8")


# --- DFA documents ----------------------------------------------------------

def dfa_from_dict(doc: dict) -> DfaSpec:
    _require(isinstance(doc, dict), "document must be a JSON object")
    unknown = set(doc) - _DFA_FIELDS
    _require(not unknown, f"unknown fields {quote_all(sorted(unknown))}")
    for f in _DFA_FIELDS:
        _require(f in doc, f"missing field {f!r}")
    states = _str_list(doc, "states")
    alphabet = _str_list(doc, "alphabet")
    finals = _str_list(doc, "finals")
    _require(isinstance(doc["initial"], str), "'initial' must be a string")
    trans: dict[tuple[str, str], str] = {}
    _require(isinstance(doc["transitions"], list), "'transitions' must be a list")
    for i, item in enumerate(doc["transitions"]):
        _require(isinstance(item, dict), f"transition {i} must be an object")
        unknown = set(item) - {"from", "input", "to"}
        _require(not unknown, f"transition {i}: unknown fields {quote_all(sorted(unknown))}")
        for f in ("from", "input", "to"):
            _require(isinstance(item.get(f), str), f"transition {i}: missing field {f!r}")
        key = (item["from"], item["input"])
        _require(key not in trans, f"transition {i}: duplicate for {quote_all(key)}")
        trans[key] = item["to"]
    dfa = DfaSpec(
        states=frozenset(states),
        sigma=frozenset(alphabet),
        q0=doc["initial"],
        finals=frozenset(finals),
        trans=trans,
    )
    dfa.validate()
    return dfa


def dfa_to_dict(dfa: DfaSpec) -> dict:
    return {
        "states": sorted(dfa.states),
        "alphabet": sorted(dfa.sigma),
        "initial": dfa.q0,
        "finals": sorted(dfa.finals),
        "transitions": [
            {"from": q, "input": a, "to": dfa.trans[(q, a)]}
            for q, a in sorted(dfa.trans)
        ],
    }


def load_dfa(path: str | Path) -> DfaSpec:
    return dfa_from_dict(_json_loads(read_text(path)))


def save_dfa(dfa: DfaSpec, path: str | Path) -> None:
    Path(path).write_text(json.dumps(dfa_to_dict(dfa), indent=2) + "\n", encoding="utf-8")
