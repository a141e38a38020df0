"""Automaton data model: alphabets, transition tables, structural validation.

A quantum pushdown automaton is stored as a sparse table of complex
transition amplitudes.  Each table key names a source state, the input
tape symbol under the head, the popped stack symbol, a target state, a
head direction, and a push word of at most two stack symbols.  Stack
words and push words are tuples of symbol strings, never concatenated
strings, so multi-character symbol names stay unambiguous.

Reserved symbols: ``#`` and ``$`` frame the input word on the tape and
``Z0`` is the stack base.  They are injected by the loaders and may not
be declared by users.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from enum import Enum

LEFT_MARKER = "#"
RIGHT_MARKER = "$"
STACK_BASE = "Z0"

KIND_GENERAL = "general"
KIND_SIMPLIFIED = "simplified"
KIND_REVERSIBLE = "reversible"
KINDS = (KIND_GENERAL, KIND_SIMPLIFIED, KIND_REVERSIBLE)

AMPLITUDE_TOL = 1e-9


class QpaError(Exception):
    """Base error for this package."""


class SymbolError(QpaError):
    """A symbol or state is not declared by the automaton."""


class StructureError(QpaError):
    """A specification failed structural validation."""

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(v.message for v in self.violations[:5])
        more = "" if len(self.violations) <= 5 else f" (+{len(self.violations) - 5} more)"
        super().__init__(f"{len(self.violations)} structure violation(s): {lines}{more}")


class Direction(Enum):
    """Head movement attached to a transition target: stay put or advance."""

    STAY = "stay"
    ADVANCE = "advance"

    def __lt__(self, other):
        return self.value < other.value


def _sorted_syms(symbols) -> tuple[str, ...]:
    return tuple(sorted(symbols))


@dataclass(frozen=True)
class Alphabets:
    """Input alphabet, tape alphabet (with markers), stack alphabet (with base)."""

    sigma: frozenset[str]
    t: frozenset[str]

    def __post_init__(self):
        for name, syms in (("input", self.sigma), ("stack", self.t)):
            for reserved in (LEFT_MARKER, RIGHT_MARKER, STACK_BASE):
                if reserved in syms:
                    raise SymbolError(f"reserved symbol {reserved!r} declared in {name} alphabet")
            for s in syms:
                if not s:
                    raise SymbolError(f"empty symbol in {name} alphabet")

    @property
    def gamma(self) -> frozenset[str]:
        """Tape alphabet: input symbols plus the two end markers."""
        return self.sigma | {LEFT_MARKER, RIGHT_MARKER}

    @property
    def delta_alpha(self) -> frozenset[str]:
        """Working stack alphabet: stack symbols plus the base symbol."""
        return self.t | {STACK_BASE}

    def sigma_sorted(self) -> tuple[str, ...]:
        return _sorted_syms(self.sigma)

    def gamma_sorted(self) -> tuple[str, ...]:
        return _sorted_syms(self.gamma)

    def t_sorted(self) -> tuple[str, ...]:
        return _sorted_syms(self.t)

    def delta_sorted(self) -> tuple[str, ...]:
        return _sorted_syms(self.delta_alpha)


@dataclass(frozen=True, order=True)
class TransitionKey:
    """One cell of the transition table.

    ``omega`` is the push word written after ``tau`` is popped; it has at
    most two symbols, and a two-symbol push re-pushes the popped symbol
    first.
    """

    q1: str
    sigma: str
    tau: str
    q: str
    d: Direction
    omega: tuple[str, ...]


@dataclass(frozen=True)
class StructureViolation:
    code: str
    message: str
    key: TransitionKey | None = None


@dataclass(frozen=True, eq=False)
class QpaSpec:
    """A quantum pushdown automaton as a sparse amplitude table.

    Immutable after construction; safe to share between workers.  The
    ``amp_literals`` map remembers the textual amplitude forms used in a
    source document so serialization round-trips byte for byte.
    """

    alphabets: Alphabets
    states: frozenset[str]
    q0: str
    q_accept: frozenset[str]
    q_reject: frozenset[str]
    delta: dict[TransitionKey, complex]
    kind: str = KIND_GENERAL
    direction_fn: dict[str, Direction] | None = None
    amp_literals: dict[TransitionKey, str] = field(default_factory=dict)
    name: str = ""

    def sorted_keys(self) -> list[TransitionKey]:
        return sorted(self.delta)

    def by_source(self) -> dict[tuple[str, str, str], list[tuple[str, Direction, tuple[str, ...], complex]]]:
        """Index the table by (state, tape symbol, popped symbol), cached."""
        cache = getattr(self, "_by_source", None)
        if cache is None:
            cache = {}
            for k in self.sorted_keys():
                cache.setdefault((k.q1, k.sigma, k.tau), []).append(
                    (k.q, k.d, k.omega, self.delta[k])
                )
            object.__setattr__(self, "_by_source", cache)
        return cache


@dataclass(frozen=True, eq=False)
class DfaSpec:
    """A total deterministic finite automaton."""

    states: frozenset[str]
    sigma: frozenset[str]
    q0: str
    finals: frozenset[str]
    trans: dict[tuple[str, str], str]

    def validate(self) -> None:
        if self.q0 not in self.states:
            raise StructureError([StructureViolation("dfa-initial-unknown", f"initial state {self.q0!r} not declared")])
        bad = []
        for q in sorted(self.states):
            for a in sorted(self.sigma):
                to = self.trans.get((q, a))
                if to is None:
                    bad.append(StructureViolation("dfa-partial", f"missing transition ({q!r}, {a!r})"))
                elif to not in self.states:
                    bad.append(StructureViolation("dfa-target-unknown", f"transition ({q!r}, {a!r}) -> undeclared {to!r}"))
        extra = set(self.trans) - {(q, a) for q in self.states for a in self.sigma}
        for q, a in sorted(extra):
            bad.append(StructureViolation("dfa-key-unknown", f"transition from undeclared ({q!r}, {a!r})"))
        if not self.finals <= self.states:
            bad.append(StructureViolation("dfa-final-unknown", "accepting set contains undeclared states"))
        if bad:
            raise StructureError(bad)


# --- amplitude literals ----------------------------------------------------

_FRACTION_RE = re.compile(r"^([+-]?\d+)\s*/\s*(\d+)$")
_SQRT_RE = re.compile(r"^(-)?sqrt\(\s*([^()]+)\s*\)$")


def _parse_real(text: str) -> float:
    text = text.strip()
    m = _FRACTION_RE.match(text)
    if m:
        num, den = int(m.group(1)), int(m.group(2))
        if den == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return num / den
    m = _SQRT_RE.match(text)
    if m:
        inner = _parse_real(m.group(2))
        if inner < 0:
            raise ValueError(f"negative radicand in {text!r}")
        v = math.sqrt(inner)
        return -v if m.group(1) else v
    return float(text)


def parse_amplitude(literal: str) -> complex:
    """Evaluate an amplitude literal to a double-precision complex number.

    Supported forms: integers, ``p/q`` fractions, ``sqrt(p/q)`` with an
    optional leading minus, plain decimals, and ``(re,im)`` pairs whose
    components use any of the real forms.  Non-finite values (``nan``,
    ``inf``, overflowing decimals) are rejected.
    """
    text = literal.strip()
    if text.startswith("(") and text.endswith(")") and "," in text:
        body = text[1:-1]
        parts = body.split(",")
        if len(parts) != 2:
            raise ValueError(f"malformed amplitude pair {literal!r}")
        value = complex(_parse_real(parts[0]), _parse_real(parts[1]))
    else:
        try:
            value = complex(_parse_real(text), 0.0)
        except ValueError as exc:
            raise ValueError(f"malformed amplitude literal {literal!r}") from exc
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ValueError(f"non-finite amplitude {literal!r}")
    return value


def format_amplitude(value: complex) -> str:
    """Canonical literal for an amplitude value (decimal based, reparsable)."""
    if value.imag == 0.0:
        return repr(value.real)
    return f"({value.real!r},{value.imag!r})"


# --- push word enumeration and accessors -----------------------------------

def enumerate_push_words(tau: str, alphabets: Alphabets) -> list[tuple[str, ...]]:
    """All push words a transition may legally write after popping ``tau``.

    Popping the stack base must re-push it (optionally with one stack
    symbol on top); popping an ordinary symbol allows the empty word, any
    single symbol, or re-pushing ``tau`` under one more symbol.  The list
    is sorted: empty word, single symbols, then two-symbol words.
    """
    if tau not in alphabets.delta_alpha:
        raise SymbolError(f"{tau!r} is not a stack symbol")
    ts = alphabets.t_sorted()
    if tau == STACK_BASE:
        return [(STACK_BASE,)] + [(STACK_BASE, t) for t in ts]
    return [()] + [(t,) for t in ts] + [(tau, t) for t in ts]


def transitions_from(
    spec: QpaSpec, q1: str, sigma: str, tau: str
) -> list[tuple[str, Direction, tuple[str, ...], complex]]:
    """Stored entries for one (state, tape symbol, popped symbol) triple."""
    if q1 not in spec.states:
        raise SymbolError(f"{q1!r} is not a declared state")
    if sigma not in spec.alphabets.gamma:
        raise SymbolError(f"{sigma!r} is not a tape symbol")
    if tau not in spec.alphabets.delta_alpha:
        raise SymbolError(f"{tau!r} is not a stack symbol")
    return list(spec.by_source().get((q1, sigma, tau), []))


# --- structural validation --------------------------------------------------

def validate_structure(spec: QpaSpec, tol: float = AMPLITUDE_TOL) -> list[StructureViolation]:
    """Check every structural restriction on the table; violations are data.

    An empty result means the spec is structurally sound (it says nothing
    about well-formedness, which is a property of the amplitudes).
    """
    out: list[StructureViolation] = []
    al = spec.alphabets

    if spec.kind not in KINDS:
        out.append(StructureViolation("kind-unknown", f"unknown kind {spec.kind!r}"))
    if spec.q0 not in spec.states:
        out.append(StructureViolation("initial-unknown", f"initial state {spec.q0!r} not declared"))
    if not spec.q_accept <= spec.states:
        out.append(StructureViolation("accepting-unknown", "accepting set contains undeclared states"))
    if not spec.q_reject <= spec.states:
        out.append(StructureViolation("rejecting-unknown", "rejecting set contains undeclared states"))
    overlap = spec.q_accept & spec.q_reject
    if overlap:
        out.append(StructureViolation(
            "accept-reject-overlap",
            f"states {sorted(overlap)} are both accepting and rejecting"))

    dirs = spec.direction_fn
    ghosts = sorted(set(dirs or ()) - spec.states)
    if ghosts:
        out.append(StructureViolation("direction-unknown", f"direction function given for undeclared states {ghosts}"))
    if spec.kind != KIND_GENERAL:
        if dirs is None:
            out.append(StructureViolation("direction-missing", f"kind {spec.kind!r} requires a direction function"))
        else:
            missing = spec.states - set(dirs)
            if missing:
                out.append(StructureViolation(
                    "direction-partial", f"direction function undefined for {sorted(missing)}"))

    seen_triples: dict[tuple[str, str, str], int] = {}
    for key in spec.sorted_keys():
        amp = spec.delta[key]
        ctx = f"transition {key.q1!r},{key.sigma!r},{key.tau!r} -> {key.q!r},{key.d.value},{key.omega!r}"
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
                    "reversible-multivalued", f"{n} entries stored for triple {triple!r}"))
    return out
