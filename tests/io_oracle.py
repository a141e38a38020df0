"""Reference loader: the structure check and JSON loader before the compiled table.

``qpa_from_dict``, ``validate_structure``, ``qpa_to_dict``/``qpa_dumps``
and ``by_source`` are the package's code from before names were interned
into a compiled table, unchanged except that they sort the table with
``sorted(spec.delta)``, which is what ``QpaSpec.sorted_keys`` did then, so
nothing here reads the compiled table, and that document text in a message
goes through ``model.quote`` as in the package.  Tests load the same
document with both loaders and require the same exception and message, or
equal specs.
"""
from __future__ import annotations

import json

from qpakit.io import (
    ParseError,
    _QPA_FIELDS,
    _TRANSITION_FIELDS,
    _require,
    _str_list,
    tokenize_push,
)
from qpakit.model import (
    DEFAULT_TOL,
    KIND_GENERAL,
    KIND_REVERSIBLE,
    KINDS,
    STACK_BASE,
    Alphabets,
    Direction,
    QpaSpec,
    StructureError,
    StructureViolation,
    SymbolError,
    TransitionKey,
    format_amplitude,
    parse_amplitude,
    quote,
    quote_all,
)


def sorted_keys(spec: QpaSpec) -> list[TransitionKey]:
    return sorted(spec.delta)


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
            direction[q] = Direction(d)

    delta: dict[TransitionKey, complex] = {}
    literals: dict[TransitionKey, str] = {}
    seen: set[TransitionKey] = set()
    raw_trans = doc["transitions"]
    _require(isinstance(raw_trans, list), "'transitions' must be a list")
    for i, item in enumerate(raw_trans):
        _require(isinstance(item, dict), f"transition {i} must be an object")
        unknown = set(item) - _TRANSITION_FIELDS
        _require(not unknown, f"transition {i}: unknown fields {quote_all(sorted(unknown))}")
        missing = _TRANSITION_FIELDS - set(item)
        _require(not missing, f"transition {i}: missing fields {sorted(missing)}")
        try:
            "".join(item.values())      # the cheapest check that every field is a string
        except TypeError:
            f = min(f for f in _TRANSITION_FIELDS if not isinstance(item[f], str))
            raise ParseError(f"transition {i}: {f!r} must be a string") from None
        _require(item["dir"] in ("stay", "advance"), f"transition {i}: bad dir {quote(item['dir'])}")
        try:
            omega = tokenize_push(item["push"], alphabets.delta_alpha)
        except ParseError as exc:
            raise ParseError(f"transition {i}: {exc}") from exc
        try:
            amp = parse_amplitude(item["amp"])
        except ValueError as exc:
            raise ParseError(f"transition {i}: {exc}") from exc
        key = TransitionKey(
            q1=item["from"], sigma=item["input"], tau=item["stack_top"],
            q=item["to"], d=Direction(item["dir"]), omega=omega,
        )
        _require(key not in seen, f"transition {i}: duplicate key")
        seen.add(key)
        if amp == 0:
            continue
        delta[key] = amp
        literals[key] = item["amp"]

    spec = QpaSpec(
        alphabets=alphabets,
        states=frozenset(states),
        q0=doc["initial"],
        q_accept=frozenset(accepting),
        q_reject=frozenset(rejecting),
        delta=delta,
        kind=kind,
        direction_fn=direction,
        amp_literals=literals,
        name=doc.get("name", ""),
    )
    if validate:
        violations = validate_structure(spec)
        if violations:
            raise StructureError(violations)
    return spec


def validate_structure(spec: QpaSpec, tol: float = DEFAULT_TOL) -> list[StructureViolation]:
    """Check every structural restriction on the table; violations are data.

    An empty result means the spec is structurally sound (it says nothing
    about well-formedness, which is a property of the amplitudes).
    """
    out: list[StructureViolation] = []
    al = spec.alphabets

    if spec.kind not in KINDS:
        out.append(StructureViolation("kind-unknown", f"unknown kind {quote(spec.kind)}"))
    if spec.q0 not in spec.states:
        out.append(StructureViolation("initial-unknown", f"initial state {quote(spec.q0)} not declared"))
    if not spec.q_accept <= spec.states:
        out.append(StructureViolation("accepting-unknown", "accepting set contains undeclared states"))
    if not spec.q_reject <= spec.states:
        out.append(StructureViolation("rejecting-unknown", "rejecting set contains undeclared states"))
    overlap = spec.q_accept & spec.q_reject
    if overlap:
        out.append(StructureViolation(
            "accept-reject-overlap",
            f"states {quote_all(sorted(overlap))} are both accepting and rejecting"))

    dirs = spec.direction_fn
    ghosts = sorted(set(dirs or ()) - spec.states)
    if ghosts:
        out.append(StructureViolation("direction-unknown", f"direction function given for undeclared states {quote_all(ghosts)}"))
    if spec.kind != KIND_GENERAL:
        if dirs is None:
            out.append(StructureViolation("direction-missing", f"kind {quote(spec.kind)} requires a direction function"))
        else:
            missing = spec.states - set(dirs)
            if missing:
                out.append(StructureViolation(
                    "direction-partial", f"direction function undefined for {quote_all(sorted(missing))}"))

    seen_triples: dict[tuple[str, str, str], int] = {}
    for key in sorted_keys(spec):
        amp = spec.delta[key]
        ctx = (f"transition {quote(key.q1)},{quote(key.sigma)},{quote(key.tau)} -> {quote(key.q)},{key.d.value},"
               f"{quote_all(key.omega)}")
        if key.q1 not in spec.states or key.q not in spec.states:
            out.append(StructureViolation("state-unknown", f"{ctx}: undeclared state", key))
        if key.sigma not in al.gamma:
            out.append(StructureViolation("tape-symbol-unknown", f"{ctx}: undeclared tape symbol", key))
        if key.tau not in al.delta_alpha:
            out.append(StructureViolation("stack-symbol-unknown", f"{ctx}: undeclared popped symbol", key))
        if any(s not in al.delta_alpha for s in key.omega):
            out.append(StructureViolation("push-symbol-unknown", f"{ctx}: undeclared push symbol", key))
        if len(key.omega) > 2:
            out.append(StructureViolation("push-too-long", f"{ctx}: push word longer than 2", key))
        elif len(key.omega) == 2 and key.omega[0] != key.tau:
            out.append(StructureViolation(
                "push-head-mismatch", f"{ctx}: two-symbol push must start with the popped symbol", key))
        if key.tau == STACK_BASE:
            if not key.omega or key.omega[0] != STACK_BASE:
                out.append(StructureViolation(
                    "base-pop-removes-base", f"{ctx}: popping {STACK_BASE} must re-push it", key))
            if any(s == STACK_BASE for s in key.omega[1:]):
                out.append(StructureViolation(
                    "base-pushed-above", f"{ctx}: {STACK_BASE} pushed above the bottom", key))
        else:
            if any(s == STACK_BASE for s in key.omega):
                out.append(StructureViolation(
                    "base-in-push", f"{ctx}: {STACK_BASE} pushed after popping an ordinary symbol", key))
        if abs(amp) > 1.0 + tol:
            out.append(StructureViolation(
                "amplitude-too-large", f"{ctx}: modulus {abs(amp):.12g} exceeds 1", key))
        if spec.kind != KIND_GENERAL and dirs is not None and amp != 0:
            want = dirs.get(key.q)
            if want is not None and key.d is not want:
                out.append(StructureViolation(
                    "direction-mismatch",
                    f"{ctx}: direction {key.d.value} differs from the target state's {want.value}", key))
        if spec.kind == KIND_REVERSIBLE and amp != 0:
            if amp != 1:
                out.append(StructureViolation(
                    "reversible-amplitude", f"{ctx}: reversible tables carry amplitude 1 exactly", key))
            triple = (key.q1, key.sigma, key.tau)
            seen_triples[triple] = seen_triples.get(triple, 0) + 1

    if spec.kind == KIND_REVERSIBLE:
        for triple, n in sorted(seen_triples.items()):
            if n > 1:
                out.append(StructureViolation(
                    "reversible-multivalued", f"{n} entries stored for triple {quote_all(triple)}"))
    return out


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
        for k in sorted_keys(spec)
    ]
    return doc


def qpa_dumps(spec: QpaSpec) -> str:
    return json.dumps(qpa_to_dict(spec), indent=2) + "\n"


def by_source(spec: QpaSpec) -> dict[tuple[str, str, str], list[tuple[str, Direction, tuple[str, ...], complex]]]:
    """Index the table by (state, tape symbol, popped symbol)."""
    cache = {}
    for k in sorted_keys(spec):
        cache.setdefault((k.q1, k.sigma, k.tau), []).append(
            (k.q, k.d, k.omega, spec.delta[k])
        )
    return cache
