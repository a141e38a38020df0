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

The JSON loader, the zoo and the DFA compiler build every spec through
``spec_from_rows``.

Every layer reads a spec through one ``CompiledTable``, built on first use
and cached on the spec: names numbered in sorted order (``advance`` before
``stay``), the flags ``state_ok``, ``tape_ok`` and ``sym_ok`` that say which
ids are declared, the base symbol's id ``base``, entries sorted once, and
grouped by source on first use.  ``sorted_keys`` and ``validate_structure``
read it, as do the condition suite, the run loop and the matrix lab.
"""
from __future__ import annotations

import math
import re
from collections import namedtuple
from enum import Enum
from functools import cached_property

LEFT_MARKER = "#"
RIGHT_MARKER = "$"
STACK_BASE = "Z0"

KIND_GENERAL = "general"
KIND_SIMPLIFIED = "simplified"
KIND_REVERSIBLE = "reversible"
KINDS = (KIND_GENERAL, KIND_SIMPLIFIED, KIND_REVERSIBLE)

DEFAULT_TOL = 1e-9    # the one bound on residuals: condition sums, Gram and row deviations, amplitude moduli
QUOTE_LIMIT = 80      # a longer text is quoted in an error by its length and at most 24 of its characters
QUOTE_BYTES = 120     # the most UTF-8 bytes a quoted text takes in an error
NAMES_BYTES = 100     # the most UTF-8 bytes a list of names takes in an error, unless its first name takes more


def check_tolerance(tol: float) -> float:
    """``tol``, if it is a finite number >= 0; else ValueError."""
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tolerance must be finite and >= 0, got {tol!r}")
    return tol


def quote(text: str, at: int = 0) -> str:
    """``repr(text)``, or past ``QUOTE_LIMIT`` characters or ``QUOTE_BYTES`` bytes its length and the
    (up to) 24 characters around ``at``, fewer where their repr is long.  A value that is not a string is its repr."""
    whole = repr(text)
    if not isinstance(text, str) or len(text) <= QUOTE_LIMIT and len(whole.encode()) <= QUOTE_BYTES:
        return whole
    # the rest of the phrase takes at most 40 bytes
    near = next(e for h in (12, 6, 3, 0) if len((e := repr(text[max(0, at - h):at + h])).encode()) <= QUOTE_BYTES - 40)
    return f"of {len(text)} characters, near {near}"


def quote_all(names: list | tuple, each=quote) -> str:
    """``repr(names)``, each name through ``each``; a list past ``NAMES_BYTES`` bytes shows the names that fit and counts the rest."""
    parts = [each(n) for n in names]
    shown = 1 if isinstance(names, list) and len(", ".join(parts).encode()) + 2 > NAMES_BYTES else len(parts)
    while shown + 1 < len(parts) and len(
            f"[{', '.join(parts[:shown + 1])}, and {len(parts) - shown - 1} more]".encode()) <= NAMES_BYTES:
        shown += 1
    inner = ", ".join(parts[:shown]) + f", and {len(parts) - shown} more" * (shown < len(parts))
    return f"[{inner}]" if isinstance(names, list) else f"({inner}{',' * (len(parts) == 1)})"


class QpaError(Exception):
    """Base error for this package."""


class SymbolError(QpaError):
    """A symbol or state is not declared by the automaton."""


class ParseError(QpaError):
    """A document or a row does not match the interchange format."""


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

    # members are singletons compared by identity, so they hash by identity
    __hash__ = object.__hash__

    def __lt__(self, other):
        return self.value < other.value


# a compiled table's direction ids: a direction's place in ``DIRECTIONS``
DIRECTIONS = (Direction.ADVANCE, Direction.STAY)
ADVANCE_ID, STAY_ID = 0, 1
_DIR_ID = {d: i for i, d in enumerate(DIRECTIONS)}


class _Frozen:
    """Refuses attribute assignment: a record's fields are set once, when it is made."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: a {type(self).__name__} is immutable")


class _Record(_Frozen):
    """A namedtuple base whose copies (``_make``, ``_replace``) go through the constructor and its checks."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))


class Alphabets(_Record, namedtuple("Alphabets", "sigma t")):
    """Input alphabet, tape alphabet (with markers), stack alphabet (with base)."""

    def __new__(cls, sigma: frozenset[str], t: frozenset[str]):
        for name, syms in (("input", sigma), ("stack", t)):
            for reserved in (LEFT_MARKER, RIGHT_MARKER, STACK_BASE):
                if reserved in syms:
                    raise SymbolError(f"reserved symbol {reserved!r} declared in {name} alphabet")
            for s in syms:
                if not s:
                    raise SymbolError(f"empty symbol in {name} alphabet")
        return super().__new__(cls, sigma, t)

    @cached_property
    def gamma(self) -> frozenset[str]:
        """Tape alphabet: input symbols plus the two end markers."""
        return self.sigma | {LEFT_MARKER, RIGHT_MARKER}

    @cached_property
    def delta_alpha(self) -> frozenset[str]:
        """Working stack alphabet: stack symbols plus the base symbol."""
        return self.t | {STACK_BASE}

    @cached_property
    def _sorted(self) -> tuple[tuple[str, ...], ...]:
        return tuple(sorted(self.sigma)), tuple(sorted(self.t))

    def sigma_sorted(self) -> tuple[str, ...]:
        return self._sorted[0]

    def t_sorted(self) -> tuple[str, ...]:
        return self._sorted[1]


class TransitionKey(namedtuple("TransitionKey", "q1 sigma tau q d omega")):
    """One cell of the transition table.

    ``omega`` is the push word written after ``tau`` is popped; it has at
    most two symbols, and a two-symbol push re-pushes the popped symbol
    first.
    """

    __slots__ = ()


StructureViolation = namedtuple("StructureViolation", "code message key", defaults=(None,))


class QpaSpec(_Frozen):
    """A quantum pushdown automaton as a sparse amplitude table.

    Immutable after construction; safe to share between workers.  The
    ``amp_literals`` map remembers the textual amplitude forms used in a
    source document so serialization round-trips byte for byte.  Specs
    compare by identity; ``cached_on`` keeps what is derived from one in
    its ``__dict__``, under names that start with an underscore.
    """

    def __init__(self, alphabets: Alphabets, states: frozenset[str], q0: str, q_accept: frozenset[str],
                 q_reject: frozenset[str], delta: dict[TransitionKey, complex], kind: str = KIND_GENERAL,
                 direction_fn: dict[str, Direction] | None = None,
                 amp_literals: dict[TransitionKey, str] | None = None, name: str = ""):
        vars(self).update(alphabets=alphabets, states=states, q0=q0, q_accept=q_accept, q_reject=q_reject,
                          delta=delta, kind=kind, direction_fn=direction_fn,
                          amp_literals={} if amp_literals is None else amp_literals, name=name)

    def replace(self, **changes) -> QpaSpec:
        """A new spec with ``changes`` to its fields and nothing cached."""
        return QpaSpec(**{**{k: v for k, v in vars(self).items() if k[0] != "_"}, **changes})

    def compiled(self) -> "CompiledTable":
        """The table with its names interned and its entries sorted, cached."""
        return cached_on(self, "_compiled", CompiledTable)

    def sorted_keys(self) -> list[TransitionKey]:
        return [e[-1] for e in self.compiled().entries]


def spec_from_rows(rows, alphabets: Alphabets, states, q0: str, q_accept, q_reject, kind: str,
                   direction_fn: dict[str, Direction] | None, name: str) -> QpaSpec:
    """A spec from rows ``(q1, sigma, tau, q, d, omega, literal)``, taken in order.

    Each distinct literal is parsed once.  A row with amplitude 0 is not stored; a stored entry keeps its
    literal.  A literal that does not parse, or a key given twice (after a zero row too), is a ParseError
    that names the row's place.
    """
    delta, literals, seen, amps = {}, {}, set(), {}
    for i, (q1, sigma, tau, q, d, omega, lit) in enumerate(rows):
        amp = amps.get(lit)
        if amp is None:
            try:
                amp = amps[lit] = parse_amplitude(lit)
            except ValueError as exc:
                raise ParseError(f"transition {i}: {exc}") from exc
        key = TransitionKey(q1, sigma, tau, q, d, omega)
        if key in seen:
            raise ParseError(f"transition {i}: duplicate key")
        seen.add(key)
        if amp:
            delta[key] = amp
            literals[key] = lit
    return QpaSpec(alphabets, frozenset(states), q0, frozenset(q_accept), frozenset(q_reject), delta, kind,
                   direction_fn, literals, name)


def cached_on(spec: QpaSpec, attr: str, build):
    """``build(spec)``, computed on first use and kept on the (frozen) spec as ``attr``."""
    if attr not in spec.__dict__:
        object.__setattr__(spec, attr, build(spec))
    return spec.__dict__[attr]


class CompiledTable:
    """A spec's names interned to ints and its entries sorted, once.

    An id is a place in ``states``, ``tapes`` or ``syms``: sorted lists of
    the declared names, the initial state and any undeclared name an entry
    uses.  ``state_ok``, ``tape_ok`` and ``sym_ok`` flag the declared ids
    (markers and base included), ``base`` is the base symbol's id.
    ``entries`` are ``(q1, sigma, tau, q, d, omega, amp, key)``, ids for
    names, ``d`` a place in ``DIRECTIONS``, in ``TransitionKey`` order;
    ``sources`` groups them as ``{(q1, sigma, tau): entries}``.
    """

    def __init__(self, spec: QpaSpec):
        delta, al = spec.delta, spec.alphabets
        omegas = {k.omega for k in delta}
        self.states = sorted(spec.states | {spec.q0} | {k.q1 for k in delta} | {k.q for k in delta})
        self.tapes = sorted(al.gamma | {k.sigma for k in delta})
        self.syms = sorted(al.delta_alpha | {k.tau for k in delta} | {s for w in omegas for s in w})
        self.state_ok = [q in spec.states for q in self.states]
        self.tape_ok = [s in al.gamma for s in self.tapes]
        self.sym_ok = [s in al.delta_alpha for s in self.syms]
        sid = self.state_id = {q: i for i, q in enumerate(self.states)}
        tid = self.tape_id = {s: i for i, s in enumerate(self.tapes)}
        yid = self.sym_id = {s: i for i, s in enumerate(self.syms)}
        self.base = yid[STACK_BASE]
        wid = {w: tuple(yid[s] for s in w) for w in omegas}
        self.entries = sorted(
            (sid[k.q1], tid[k.sigma], yid[k.tau], sid[k.q], _DIR_ID[k.d], wid[k.omega], amp, k)
            for k, amp in delta.items())

    @cached_property
    def sources(self) -> dict[tuple[int, int, int], list[tuple]]:
        out: dict = {}
        for e in self.entries:
            out.setdefault(e[:3], []).append(e)
        return out


class DfaSpec(_Frozen):
    """A total deterministic finite automaton; compared by identity."""

    def __init__(self, states: frozenset[str], sigma: frozenset[str], q0: str, finals: frozenset[str],
                 trans: dict[tuple[str, str], str]):
        vars(self).update(states=states, sigma=sigma, q0=q0, finals=finals, trans=trans)

    def validate(self) -> None:
        if self.q0 not in self.states:
            raise StructureError([StructureViolation("dfa-initial-unknown", f"initial state {quote(self.q0)} not declared")])
        bad = []
        for q in sorted(self.states):
            for a in sorted(self.sigma):
                to = self.trans.get((q, a))
                if to is None:
                    bad.append(StructureViolation("dfa-partial", f"missing transition {quote_all((q, a))}"))
                elif to not in self.states:
                    bad.append(StructureViolation("dfa-target-unknown", f"transition {quote_all((q, a))} -> undeclared {quote(to)}"))
        extra = set(self.trans) - {(q, a) for q in self.states for a in self.sigma}
        for q, a in sorted(extra):
            bad.append(StructureViolation("dfa-key-unknown", f"transition from undeclared {quote_all((q, a))}"))
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
        try:
            return num / den
        except OverflowError:
            raise ValueError(f"fraction {text!r} overflows a double") from None
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
    pair = text.startswith("(") and text.endswith(")") and "," in text
    try:
        if pair:
            re_part, im_part = text[1:-1].split(",")     # ValueError unless two parts
            value = complex(_parse_real(re_part), _parse_real(im_part))
        else:
            value = complex(_parse_real(text), 0.0)
    except ValueError as exc:
        raise ValueError(f"malformed amplitude {'pair' if pair else 'literal'} {quote(literal)}") from exc
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ValueError(f"non-finite amplitude {quote(literal)}")
    return value


def format_amplitude(value: complex) -> str:
    """Canonical literal for an amplitude value (decimal based, reparsable)."""
    if value.imag == 0.0:
        return repr(value.real)
    return f"({value.real!r},{value.imag!r})"


# --- structural validation --------------------------------------------------

def validate_structure(spec: QpaSpec) -> list[StructureViolation]:
    """Check every structural restriction on the table; violations are data.

    An empty result means the spec is structurally sound (it says nothing
    about well-formedness, which is a property of the amplitudes).
    """
    out: list[StructureViolation] = []

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

    # the tests run on ids; the message context is formatted only for an entry that fails one
    table = spec.compiled()
    state_ok, tape_ok, sym_ok, base = table.state_ok, table.tape_ok, table.sym_ok, table.base
    want = [None if dirs is None or spec.kind == KIND_GENERAL else dirs.get(q) for q in table.states]
    for q1, sigma, tau, q, _, omega, amp, key in table.entries:
        bad = []
        if not (state_ok[q1] and state_ok[q]):
            bad.append(("state-unknown", "undeclared state"))
        if not tape_ok[sigma]:
            bad.append(("tape-symbol-unknown", "undeclared tape symbol"))
        if not sym_ok[tau]:
            bad.append(("stack-symbol-unknown", "undeclared popped symbol"))
        if not all(sym_ok[s] for s in omega):
            bad.append(("push-symbol-unknown", "undeclared push symbol"))
        if len(omega) > 2:
            bad.append(("push-too-long", "push word longer than 2"))
        elif len(omega) == 2 and omega[0] != tau:
            bad.append(("push-head-mismatch", "two-symbol push must start with the popped symbol"))
        if tau == base:
            if not omega or omega[0] != base:
                bad.append(("base-pop-removes-base", f"popping {STACK_BASE} must re-push it"))
            if base in omega[1:]:
                bad.append(("base-pushed-above", f"{STACK_BASE} pushed above the bottom"))
        elif base in omega:
            bad.append(("base-in-push", f"{STACK_BASE} pushed after popping an ordinary symbol"))
        if abs(amp) > 1.0 + DEFAULT_TOL:
            bad.append(("amplitude-too-large", f"modulus {abs(amp):.12g} exceeds 1"))
        if amp != 0 and want[q] is not None and key.d is not want[q]:
            bad.append(("direction-mismatch",
                        f"direction {key.d.value} differs from the target state's {want[q].value}"))
        if spec.kind == KIND_REVERSIBLE and amp != 0 and amp != 1:
            bad.append(("reversible-amplitude", "reversible tables carry amplitude 1 exactly"))
        if bad:
            ctx = (f"transition {quote(key.q1)},{quote(key.sigma)},{quote(key.tau)} -> {quote(key.q)},{key.d.value},"
                   f"{quote_all(key.omega)}")
            out.extend(StructureViolation(code, f"{ctx}: {text}", key) for code, text in bad)
    if spec.kind == KIND_REVERSIBLE:
        for group in table.sources.values():
            n = sum(e[-2] != 0 for e in group)
            if n > 1:
                k = group[0][-1]
                out.append(StructureViolation(
                    "reversible-multivalued", f"{n} entries stored for triple {quote_all((k.q1, k.sigma, k.tau))}"))
    return out
