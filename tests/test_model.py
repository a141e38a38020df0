"""Model layer: amplitude literals, push-word enumeration, structural checks."""
import math
import string

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qpakit import zoo
from qpakit.model import (
    Alphabets,
    DfaSpec,
    KIND_GENERAL,
    KIND_REVERSIBLE,
    ParseError,
    StructureError,
    SymbolError,
    format_amplitude,
    parse_amplitude,
    quote,
    quote_all,
    spec_from_rows,
    validate_structure,
)

from conftest import ADV, STAY, enumerate_push_words, make_spec, sources_by_name


class TestAmplitudeLiterals:
    @pytest.mark.parametrize("literal,value", [
        ("1", 1.0),
        ("0", 0.0),
        ("-1", -1.0),
        ("2/3", 2.0 / 3.0),
        ("-2/7", -2.0 / 7.0),
        ("sqrt(1/2)", math.sqrt(0.5)),
        ("-sqrt(2/7)", -math.sqrt(2.0 / 7.0)),
        ("sqrt(2)", math.sqrt(2.0)),
        ("0.25", 0.25),
        ("-0.5", -0.5),
    ])
    def test_real_forms(self, literal, value):
        assert parse_amplitude(literal) == pytest.approx(complex(value, 0.0))

    def test_pair_form(self):
        assert parse_amplitude("(1/2,-1/2)") == complex(0.5, -0.5)
        assert parse_amplitude("(sqrt(1/2),0)") == complex(math.sqrt(0.5), 0.0)

    @pytest.mark.parametrize("literal", ["", "sqrt()", "1/0", "(1,2,3)", "abc", "sqrt(-1)", *(
        pytest.param(form % ("1" + "0" * 400), id=form.replace("%s", "1e400"))
        for form in ("%s/1", "sqrt(%s/1)", "(0,-%s/3)"))])
    def test_malformed(self, literal):
        with pytest.raises(ValueError):
            parse_amplitude(literal)

    def test_format_round_trips(self):
        for z in (complex(1, 0), complex(-0.5, 0.25), complex(math.sqrt(2 / 7), 0)):
            assert parse_amplitude(format_amplitude(z)) == z

    @pytest.mark.parametrize("literal", ["nan", "-nan", "inf", "-inf", "1e999", "sqrt(inf)",
                                         "(nan,0)", "(0,inf)", "(1/2,1e400)"])
    def test_non_finite_rejected(self, literal):
        with pytest.raises(ValueError, match="non-finite"):
            parse_amplitude(literal)


class TestQuote:
    @given(st.text(max_size=300) | st.text(st.characters(min_codepoint=0xE0000, max_codepoint=0xE007F), max_size=300),
           st.integers(0, 300))
    def test_bounded_in_bytes(self, text, at):
        assert len(quote(text, at).encode()) <= 120

    # backslash and quote characters are left out: repr doubles them, so 80 of them cannot fit 120 bytes whole
    @given(st.text(sorted(set(string.printable[:95]) - set("\\'")), max_size=80))
    def test_short_plain_text_is_its_repr(self, text):
        assert quote(text) == repr(text)

    @pytest.mark.parametrize("names", [[], ["a"], ["a", "b'c"], (), ("a",), ("a", "b"), ("a", "b", "c")])
    def test_short_names_are_their_repr(self, names):
        assert quote_all(names) == repr(names)

    def test_astral_excerpt_is_shortened(self):
        assert quote("\U000e0001" * 80) == "of 80 characters, near " + repr("\U000e0001" * 6)


class TestPushWords:
    def test_base_pop(self):
        al = Alphabets(sigma=frozenset("x"), t=frozenset({"1"}))
        assert enumerate_push_words("Z0", al) == [("Z0",), ("Z0", "1")]

    def test_plain_pop(self):
        al = Alphabets(sigma=frozenset("x"), t=frozenset({"1", "2"}))
        assert enumerate_push_words("1", al) == [(), ("1",), ("2",), ("1", "1"), ("1", "2")]

    def test_empty_stack_alphabet(self):
        al = Alphabets(sigma=frozenset("x"), t=frozenset())
        assert enumerate_push_words("Z0", al) == [("Z0",)]

    def test_unknown_symbol(self):
        al = Alphabets(sigma=frozenset("x"), t=frozenset({"1"}))
        with pytest.raises(SymbolError):
            enumerate_push_words("9", al)

    def test_all_stored_push_words_are_legal(self):
        for entry in zoo.entries().values():
            spec = entry.spec
            for key in spec.delta:
                legal = enumerate_push_words(key.tau, spec.alphabets)
                assert key.omega in legal, (entry.name, key)


class TestTransitionsFrom:
    """Stored entries per (state, tape symbol, popped symbol), as the compiled table groups them."""

    def test_l1_scan_step(self):
        spec = zoo.l1_rpa().spec
        got = sources_by_name(spec).get(("q0", "0", "Z0"), [])
        assert got == [("q0", ADV, ("Z0", "0"), complex(1, 0))]

    def test_empty_triple(self, advance_copy_spec):
        spec = zoo.l1_rpa().spec
        # q2 has no entry for input 1 with a two-symbol context it never sees
        assert sources_by_name(advance_copy_spec).get(("q", "x", "1"), []) != []
        made = make_spec(
            sigma={"a"}, t={"1"}, states={"p"}, q0="p", q_acc=(), q_rej=(),
            entries=[("p", "a", "Z0", "p", ADV, ("Z0",), 1.0)],
        )
        assert sources_by_name(made).get(("p", "#", "Z0"), []) == []

    def test_l5_marker_split(self):
        spec = zoo.l5_qpa().spec
        got = sources_by_name(spec).get(("q0", "#", "Z0"), [])
        amps = {q: amp for q, d, om, amp in got}
        assert amps["A0"] == pytest.approx(math.sqrt(2 / 7))
        assert amps["C0"] == pytest.approx(-math.sqrt(2 / 7))
        assert amps["uacc"] == pytest.approx(math.sqrt(3 / 7))
        assert len(got) == 3


class TestValidateStructure:
    def test_zoo_specs_are_clean(self):
        for entry in zoo.entries().values():
            assert validate_structure(entry.spec) == [], entry.name
        assert validate_structure(zoo.nonunitary_example()) == []

    def test_base_pop_must_repush(self):
        spec = make_spec(
            sigma={"a"}, t={"1"}, states={"q"}, q0="q", q_acc=(), q_rej=(),
            entries=[("q", "a", "Z0", "q", ADV, (), 1.0)],
        )
        codes = {v.code for v in validate_structure(spec)}
        assert "base-pop-removes-base" in codes

    def test_two_symbol_push_head(self):
        spec = make_spec(
            sigma={"a"}, t={"1", "2"}, states={"q"}, q0="q", q_acc=(), q_rej=(),
            entries=[("q", "a", "2", "q", ADV, ("1", "2"), 1.0)],
        )
        codes = {v.code for v in validate_structure(spec)}
        assert "push-head-mismatch" in codes

    def test_push_too_long(self):
        spec = make_spec(
            sigma={"a"}, t={"1"}, states={"q"}, q0="q", q_acc=(), q_rej=(),
            entries=[("q", "a", "1", "q", ADV, ("1", "1", "1"), 1.0)],
        )
        codes = {v.code for v in validate_structure(spec)}
        assert "push-too-long" in codes

    def test_base_in_plain_push(self):
        spec = make_spec(
            sigma={"a"}, t={"1"}, states={"q"}, q0="q", q_acc=(), q_rej=(),
            entries=[("q", "a", "1", "q", ADV, ("Z0",), 1.0)],
        )
        codes = {v.code for v in validate_structure(spec)}
        assert "base-in-push" in codes

    def test_amplitude_modulus(self):
        spec = make_spec(
            sigma={"a"}, t={"1"}, states={"q"}, q0="q", q_acc=(), q_rej=(),
            entries=[("q", "a", "1", "q", ADV, ("1",), 1.5)],
        )
        codes = {v.code for v in validate_structure(spec)}
        assert "amplitude-too-large" in codes

    def test_accept_reject_overlap(self):
        spec = make_spec(
            sigma={"a"}, t={"1"}, states={"q"}, q0="q", q_acc=("q",), q_rej=("q",),
            entries=[],
        )
        codes = {v.code for v in validate_structure(spec)}
        assert "accept-reject-overlap" in codes

    def test_direction_mismatch(self):
        spec = make_spec(
            sigma={"a"}, t={"1"}, states={"q"}, q0="q", q_acc=(), q_rej=(),
            entries=[("q", "a", "1", "q", ADV, ("1",), 1.0)],
            kind="simplified", directions={"q": STAY},
        )
        codes = {v.code for v in validate_structure(spec)}
        assert "direction-mismatch" in codes

    def test_reversible_needs_unit_amplitudes(self):
        spec = make_spec(
            sigma={"a"}, t={"1"}, states={"q"}, q0="q", q_acc=(), q_rej=(),
            entries=[("q", "a", "1", "q", ADV, ("1",), 0.5)],
            kind=KIND_REVERSIBLE, directions={"q": ADV},
        )
        codes = {v.code for v in validate_structure(spec)}
        assert "reversible-amplitude" in codes

    def test_reversible_single_valued(self):
        spec = make_spec(
            sigma={"a"}, t={"1", "2"}, states={"q"}, q0="q", q_acc=(), q_rej=(),
            entries=[
                ("q", "a", "1", "q", ADV, ("1",), 1.0),
                ("q", "a", "1", "q", ADV, ("2",), 1.0),
            ],
            kind=KIND_REVERSIBLE, directions={"q": ADV},
        )
        codes = {v.code for v in validate_structure(spec)}
        assert "reversible-multivalued" in codes

    def test_reversible_zoo_tables_are_functions(self):
        for name in ("l1", "l2"):
            spec = zoo.entries()[name].spec
            triples = {}
            for key in spec.delta:
                triples.setdefault((key.q1, key.sigma, key.tau), []).append(key)
            assert all(len(v) == 1 for v in triples.values())

    def test_undeclared_references(self):
        spec = make_spec(
            sigma={"a"}, t={"1"}, states={"q"}, q0="ghost", q_acc=(), q_rej=(),
            entries=[("q", "b", "9", "gone", ADV, ("1",), 1.0)],
        )
        codes = {v.code for v in validate_structure(spec)}
        assert {"initial-unknown", "state-unknown", "tape-symbol-unknown",
                "stack-symbol-unknown"} <= codes

    @pytest.mark.parametrize("kind", ["general", "simplified"])
    def test_direction_for_undeclared_state(self, kind):
        spec = make_spec(
            sigma={"a"}, t={"1"}, states={"q"}, q0="q", q_acc=(), q_rej=(),
            entries=[("q", "a", "1", "q", ADV, ("1",), 1.0)],
            kind=kind, directions={"q": ADV, "ghost": STAY},
        )
        violations = validate_structure(spec)
        assert [v.code for v in violations] == ["direction-unknown"]
        assert "['ghost']" in violations[0].message


class TestUnreachedViolations:
    """Each branch below gives exactly its own violation code."""

    @staticmethod
    def codes(**changes):
        args = dict(sigma={"a"}, t={"1"}, states={"q"}, q0="q", q_acc=(), q_rej=(),
                    entries=[("q", "a", "1", "q", ADV, ("1",), 1.0)])
        return [v.code for v in validate_structure(make_spec(**{**args, **changes}))]

    def test_unknown_kind(self):
        assert self.codes(kind="quantum", directions={"q": ADV}) == ["kind-unknown"]

    def test_undeclared_halting_states(self):
        assert self.codes(q_acc=("acc",), q_rej=("rej",)) == ["accepting-unknown", "rejecting-unknown"]

    def test_simplified_needs_a_direction_function(self):
        assert self.codes(kind="simplified") == ["direction-missing"]

    def test_undeclared_push_symbol(self):
        assert self.codes(entries=[("q", "a", "1", "q", ADV, ("9",), 1.0)]) == ["push-symbol-unknown"]

    def test_base_pushed_above_the_base(self):
        assert self.codes(entries=[("q", "a", "Z0", "q", ADV, ("Z0", "Z0"), 1.0)]) == ["base-pushed-above"]


class TestDfaValidate:
    @staticmethod
    def codes(**changes):
        args = dict(states=frozenset({"s0"}), sigma=frozenset({"0"}), q0="s0",
                    finals=frozenset(), trans={("s0", "0"): "s0"})
        with pytest.raises(StructureError) as info:
            DfaSpec(**{**args, **changes}).validate()
        return [v.code for v in info.value.violations]

    def test_undeclared_target(self):
        assert self.codes(trans={("s0", "0"): "s9"}) == ["dfa-target-unknown"]

    def test_undeclared_source_or_symbol(self):
        trans = {("s0", "0"): "s0", ("s9", "0"): "s0", ("s0", "x"): "s0"}
        assert self.codes(trans=trans) == ["dfa-key-unknown", "dfa-key-unknown"]

    def test_undeclared_final(self):
        assert self.codes(finals=frozenset({"s9"})) == ["dfa-final-unknown"]

    def test_total_dfa_passes(self):
        DfaSpec(states=frozenset({"s0"}), sigma=frozenset({"0"}), q0="s0",
                finals=frozenset({"s0"}), trans={("s0", "0"): "s0"}).validate()


class TestAlphabets:
    def test_reserved_symbols_rejected(self):
        with pytest.raises(SymbolError):
            Alphabets(sigma=frozenset({"#"}), t=frozenset())
        with pytest.raises(SymbolError):
            Alphabets(sigma=frozenset({"a"}), t=frozenset({"Z0"}))

    def test_derived_alphabets(self):
        al = Alphabets(sigma=frozenset({"a"}), t=frozenset({"1"}))
        assert al.gamma == {"a", "#", "$"}
        assert al.delta_alpha == {"1", "Z0"}

    def test_a_copy_is_checked(self):
        al = Alphabets(sigma=frozenset({"a"}), t=frozenset({"1"}))
        assert al._replace(t=frozenset({"2"})) == Alphabets(sigma=frozenset({"a"}), t=frozenset({"2"}))
        with pytest.raises(SymbolError, match="reserved symbol '#'"):
            al._replace(sigma=frozenset({"#"}))


class TestSpecFromRows:
    AL = Alphabets(sigma=frozenset({"a"}), t=frozenset({"1"}))

    def build(self, *rows):
        return spec_from_rows(rows, self.AL, {"q"}, "q", (), (), KIND_GENERAL, None, "rows")

    def test_repeated_key_after_a_zero_row_is_refused(self):
        with pytest.raises(ParseError) as exc:
            self.build(("q", "a", "Z0", "q", ADV, ("Z0",), "0"), ("q", "a", "Z0", "q", ADV, ("Z0",), "1"))
        assert str(exc.value) == "transition 1: duplicate key"

    def test_zero_row_is_not_stored_and_has_no_literal(self):
        spec = self.build(("q", "a", "Z0", "q", ADV, ("Z0",), "0/3"), ("q", "a", "1", "q", STAY, ("1",), "1/1"))
        assert list(spec.delta.items()) == [(("q", "a", "1", "q", STAY, ("1",)), 1.0)]
        assert spec.amp_literals == {("q", "a", "1", "q", STAY, ("1",)): "1/1"}

    def test_bad_literal_names_its_row(self):
        with pytest.raises(ParseError) as exc:
            self.build(("q", "a", "Z0", "q", ADV, ("Z0",), "1"), ("q", "a", "1", "q", ADV, ("1",), "1/0"))
        assert str(exc.value) == "transition 1: malformed amplitude literal '1/0'"
