"""Interchange format: round trips, rejection of malformed documents."""
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpakit import zoo
from qpakit.dfa2rpa import compile_dfa
from qpakit.io import (
    ParseError,
    dfa_from_dict,
    dfa_to_dict,
    qpa_dumps,
    qpa_from_dict,
    qpa_loads,
    qpa_to_dict,
    tokenize_push,
    tokenize_word,
)
from qpakit.model import Alphabets, StructureError, SymbolError, validate_structure

import io_oracle
from conftest import random_total_dfa, sources_by_name


def _round_trip(spec):
    text = qpa_dumps(spec)
    again = qpa_dumps(qpa_loads(text))
    assert text == again
    return text


class TestQpaRoundTrip:
    def test_zoo_fixtures_round_trip_bytes(self):
        for name, spec in zoo.fixture_specs().items():
            _round_trip(spec)

    def test_compiled_rpa_round_trips(self, ends_in_one_dfa):
        _round_trip(compile_dfa(ends_in_one_dfa))

    def test_random_compiled_round_trips(self):
        rng = np.random.default_rng(7)
        for _ in range(3):
            dfa = random_total_dfa(int(rng.integers(1, 6)), "01", rng)
            _round_trip(compile_dfa(dfa))

    def test_code_built_specs_equal_their_reload(self):
        rng = np.random.default_rng(11)
        dfas = [compile_dfa(random_total_dfa(n, "01", rng)) for n in (1, 2, 4)]
        for spec in [*zoo.fixture_specs().values(), *dfas]:
            again = qpa_loads(qpa_dumps(spec))
            assert again.delta == spec.delta
            assert again.amp_literals == spec.amp_literals
            assert again.direction_fn == spec.direction_fn
            assert (again.states, again.q_accept, again.q_reject) == (spec.states, spec.q_accept, spec.q_reject)

    def test_literals_preserved(self):
        spec = zoo.l5_qpa().spec
        doc = qpa_to_dict(spec)
        amps = {t["amp"] for t in doc["transitions"]}
        assert "sqrt(2/7)" in amps and "-sqrt(2/7)" in amps and "sqrt(3/7)" in amps

    def test_parsed_equals_source_table(self):
        spec = zoo.l2_rpa().spec
        again = qpa_loads(qpa_dumps(spec))
        assert again.delta == spec.delta
        assert again.states == spec.states
        assert again.direction_fn == spec.direction_fn


class TestDocumentValidation:
    def _minimal(self):
        return {
            "kind": "general",
            "states": ["q"],
            "input_alphabet": ["a"],
            "stack_alphabet": ["1"],
            "initial": "q",
            "accepting": [],
            "rejecting": [],
            "transitions": [],
        }

    def test_minimal_parses(self):
        spec = qpa_from_dict(self._minimal(), validate=False)
        assert spec.q0 == "q"

    def test_unknown_top_level_field(self):
        doc = self._minimal()
        doc["surprise"] = 1
        with pytest.raises(ParseError, match="unknown fields"):
            qpa_from_dict(doc)

    def test_unknown_transition_field(self):
        doc = self._minimal()
        doc["transitions"] = [{
            "from": "q", "input": "a", "stack_top": "1", "to": "q",
            "dir": "advance", "push": "1", "amp": "1", "extra": True,
        }]
        with pytest.raises(ParseError, match="unknown fields"):
            qpa_from_dict(doc)

    def test_transition_that_is_not_an_object(self):
        doc = self._minimal()
        doc["transitions"] = [["q", "a", "1", "q", "advance", "1", "1"]]
        with pytest.raises(ParseError, match="transition 0 must be an object"):
            qpa_from_dict(doc)

    def test_missing_transition_fields(self):
        doc = self._minimal()
        doc["transitions"] = [{"from": "q", "input": "a", "stack_top": "1", "to": "q", "dir": "advance"}]
        with pytest.raises(ParseError, match=r"transition 0: missing fields \['amp', 'push'\]"):
            qpa_from_dict(doc)

    def test_direction_required_for_simplified(self):
        doc = self._minimal()
        doc["kind"] = "simplified"
        with pytest.raises(ParseError, match="direction"):
            qpa_from_dict(doc)

    def test_reserved_symbols_rejected(self):
        doc = self._minimal()
        doc["stack_alphabet"] = ["Z0"]
        with pytest.raises(ParseError):
            qpa_from_dict(doc)

    @pytest.mark.parametrize("field", ["input_alphabet", "stack_alphabet"])
    def test_empty_symbol_rejected(self, field):
        doc = self._minimal()
        doc[field] = ["", *doc[field]]
        with pytest.raises(ParseError, match="empty symbol"):
            qpa_from_dict(doc)

    def test_base_pushed_above_the_base(self):
        doc = self._minimal()
        doc["transitions"] = [{
            "from": "q", "input": "a", "stack_top": "Z0", "to": "q",
            "dir": "advance", "push": "Z0Z0", "amp": "1",
        }]
        with pytest.raises(StructureError) as info:
            qpa_from_dict(doc)
        assert [v.code for v in info.value.violations] == ["base-pushed-above"]

    def test_structure_violations_raise(self):
        doc = self._minimal()
        doc["transitions"] = [{
            "from": "q", "input": "a", "stack_top": "Z0", "to": "q",
            "dir": "advance", "push": "1", "amp": "1",
        }]
        with pytest.raises(StructureError):
            qpa_from_dict(doc)

    def test_zero_amplitudes_dropped(self):
        doc = self._minimal()
        doc["transitions"] = [{
            "from": "q", "input": "a", "stack_top": "1", "to": "q",
            "dir": "advance", "push": "1", "amp": "0",
        }]
        spec = qpa_from_dict(doc)
        assert spec.delta == {}

    @pytest.mark.parametrize("amp", ["nan", "inf", "(0,nan)"])
    def test_non_finite_amplitude_rejected(self, amp):
        doc = self._minimal()
        doc["transitions"] = [{
            "from": "q", "input": "a", "stack_top": "1", "to": "q",
            "dir": "advance", "push": "1", "amp": amp,
        }]
        with pytest.raises(ParseError, match="transition 0: non-finite amplitude"):
            qpa_loads(json.dumps(doc))

    def test_duplicate_keys_rejected(self):
        doc = self._minimal()
        entry = {
            "from": "q", "input": "a", "stack_top": "1", "to": "q",
            "dir": "advance", "push": "1", "amp": "sqrt(1/2)",
        }
        doc["transitions"] = [entry, dict(entry)]
        with pytest.raises(ParseError, match="duplicate"):
            qpa_from_dict(doc)


class TestTokenizers:
    def test_push_with_multichar_base(self):
        syms = frozenset({"Z0", "1", "2"})
        assert tokenize_push("", syms) == ()
        assert tokenize_push("Z0", syms) == ("Z0",)
        assert tokenize_push("Z01", syms) == ("Z0", "1")
        assert tokenize_push("12", syms) == ("1", "2")

    def test_push_unknown(self):
        with pytest.raises(ParseError):
            tokenize_push("xy", frozenset({"1"}))

    def test_push_ambiguous(self):
        # "ab" splits as the single symbol or as "a"+"b"
        with pytest.raises(ParseError, match="ambiguous"):
            tokenize_push("ab", frozenset({"a", "b", "ab"}))

    def test_push_ambiguous_names_are_quoted(self):
        with pytest.raises(ParseError) as short:
            tokenize_push("10", frozenset({"1", "0", "10"}))
        assert str(short.value) == "push word '10' is ambiguous: [('10',), ('1', '0')]"
        with pytest.raises(ParseError) as long:
            tokenize_push("w" * 500, frozenset({"w" * 250, "w" * 500}))
        assert len(str(long.value).encode()) <= 400, str(long.value)

    def test_word_tokenizer(self):
        al = Alphabets(sigma=frozenset({"a", "b"}), t=frozenset())
        assert tokenize_word(al, "abba") == ("a", "b", "b", "a")
        with pytest.raises(SymbolError):
            tokenize_word(al, "abc")

    def test_word_longest_match(self):
        al = Alphabets(sigma=frozenset({"a", "aa"}), t=frozenset())
        assert tokenize_word(al, "aaa") == ("aa", "a")


class TestDfaDocuments:
    def test_round_trip(self, ends_in_one_dfa):
        doc = dfa_to_dict(ends_in_one_dfa)
        again = dfa_from_dict(json.loads(json.dumps(doc)))
        assert again.trans == ends_in_one_dfa.trans
        assert again.finals == ends_in_one_dfa.finals

    def test_partial_dfa_rejected(self):
        doc = {
            "states": ["s0"], "alphabet": ["0", "1"], "initial": "s0",
            "finals": [], "transitions": [{"from": "s0", "input": "0", "to": "s0"}],
        }
        with pytest.raises(StructureError):
            dfa_from_dict(doc)

    def test_unknown_fields_rejected(self):
        doc = {
            "states": ["s0"], "alphabet": ["0"], "initial": "s0",
            "finals": [], "transitions": [], "oops": 1,
        }
        with pytest.raises(ParseError):
            dfa_from_dict(doc)


class TestFieldTypes:
    """Every transition field and the name must be strings: a ParseError, not a crash."""

    def _doc(self):
        return json.loads(qpa_dumps(zoo.fixture_specs()["l2"]))

    @pytest.mark.parametrize("field,value", [
        ("amp", 1), ("amp", None), ("from", ["q0"]), ("to", {"q": 1}),
        ("input", 7), ("stack_top", ["Z0"]), ("push", 1), ("dir", ["stay"]),
    ])
    def test_non_string_transition_field(self, field, value):
        doc = self._doc()
        doc["transitions"][3][field] = value
        with pytest.raises(ParseError, match=f"transition 3: '{field}' must be a string"):
            qpa_from_dict(doc)

    @pytest.mark.parametrize("value", [5, None, ["l2"], {"n": 1}])
    def test_non_string_name(self, value):
        doc = self._doc()
        doc["name"] = value
        with pytest.raises(ParseError, match="'name' must be a string"):
            qpa_from_dict(doc)

    def test_string_name_still_loads(self):
        doc = self._doc()
        doc["name"] = "counter"
        assert qpa_from_dict(doc).name == "counter"


class TestWordSegmentation:
    def test_greedy_dead_end_backs_off(self):
        al = Alphabets(sigma=frozenset({"a", "ab", "bc"}), t=frozenset())
        assert tokenize_word(al, "abc") == ("a", "bc")
        assert tokenize_word(al, "ab") == ("ab",)
        assert tokenize_word(al, "abab") == ("ab", "ab")
        assert tokenize_word(al, "") == ()

    def test_unsplittable_word_names_the_furthest_position(self):
        al = Alphabets(sigma=frozenset({"a", "ab", "bc"}), t=frozenset())
        with pytest.raises(SymbolError, match="position 2"):
            tokenize_word(al, "abd")
        with pytest.raises(SymbolError, match="position 3"):
            tokenize_word(al, "abcx")
        with pytest.raises(SymbolError, match="position 0"):
            tokenize_word(al, "x")

    def test_empty_alphabet(self):
        al = Alphabets(sigma=frozenset(), t=frozenset())
        assert tokenize_word(al, "") == ()
        with pytest.raises(SymbolError, match="position 0"):
            tokenize_word(al, "a")

    def test_equal_length_symbols(self):
        al = Alphabets(sigma=frozenset({"ab", "ba"}), t=frozenset())
        assert tokenize_word(al, "abba") == ("ab", "ba")
        with pytest.raises(SymbolError, match="position 2"):
            tokenize_word(al, "abb")
        with pytest.raises(SymbolError, match="position 2"):
            tokenize_word(al, "abaa")

    def test_long_dead_end_is_linear(self):
        # backtracking would try every split of the a-run before the c
        al = Alphabets(sigma=frozenset({"a", "aa", "b"}), t=frozenset())
        with pytest.raises(SymbolError, match="position 400"):
            tokenize_word(al, "a" * 400 + "c")
        assert tokenize_word(al, "a" * 401 + "b") == ("aa",) * 200 + ("a", "b")


_ZOO_DOCS = {name: qpa_dumps(spec) for name, spec in zoo.fixture_specs().items()}
_TOP_FIELDS = ["kind", "name", "states", "input_alphabet", "stack_alphabet", "initial",
               "accepting", "rejecting", "direction", "transitions", "surprise"]
_TRANSITION_FIELDS = ["from", "input", "stack_top", "to", "dir", "push", "amp"]
# strings the loader gives meaning to, so that spliced values also reach the later checks
_WORDS = ["general", "simplified", "reversible", "stay", "advance", "q0", "q1", "q3", "a", "b",
          "1", "2", "Z0", "#", "$", "", "12", "1Z0", "sqrt(1/2)", "-1", "0", "nan", "inf", "1e400"]
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3)
    | st.sampled_from(_WORDS),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.text(max_size=3) | st.sampled_from(_WORDS), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def _spliced_docs(draw):
    doc = json.loads(_ZOO_DOCS[draw(st.sampled_from(sorted(_ZOO_DOCS)))])
    for _ in range(draw(st.integers(1, 3))):
        value = draw(_JSON)
        if draw(st.booleans()):
            doc[draw(st.sampled_from(_TOP_FIELDS))] = value
        elif isinstance(doc.get("transitions"), list) and doc["transitions"]:
            item = doc["transitions"][draw(st.integers(0, len(doc["transitions"]) - 1))]
            if isinstance(item, dict):
                item[draw(st.sampled_from(_TRANSITION_FIELDS))] = value
    return doc


def _outcome(load, doc):
    """What a loader makes of a copy of ``doc``: a spec, or the exception's type, text and violations."""
    try:
        return load(json.loads(json.dumps(doc)))
    except Exception as exc:    # any type, so that the two loaders' types are compared
        return (type(exc), str(exc), [(v.code, v.message, v.key) for v in getattr(exc, "violations", ())])


def assert_loads_like_oracle(doc):
    """Both loaders raise alike or give equal specs, with and without the structure check."""
    for validate in (True, False):
        got = _outcome(lambda d: qpa_from_dict(d, validate=validate), doc)
        want = _outcome(lambda d: io_oracle.qpa_from_dict(d, validate=validate), doc)
        if isinstance(want, tuple):
            assert got == want
            continue
        assert not isinstance(got, tuple), got
        assert list(got.delta.items()) == list(want.delta.items())
        assert list(got.amp_literals.items()) == list(want.amp_literals.items())
        assert got.sorted_keys() == io_oracle.sorted_keys(want)
        assert sources_by_name(got) == io_oracle.by_source(want)
        assert qpa_dumps(got) == io_oracle.qpa_dumps(want)
        assert [(v.code, v.message, v.key) for v in validate_structure(got)] == \
            [(v.code, v.message, v.key) for v in io_oracle.validate_structure(want)]


_DFA_DOCS = {f"dfa{n}": qpa_dumps(compile_dfa(random_total_dfa(n, alph, np.random.default_rng(n))))
             for n, alph in ((2, "01"), (3, "abc"), (4, "01"))}


def _spelled_apart(text):
    """``text`` with its amplitude-1 literals written in turn as 1, 1.0, 2/2 and sqrt(1)."""
    doc = json.loads(text)
    spellings = itertools.cycle(["1", "1.0", "2/2", "sqrt(1)"])
    for item in doc["transitions"]:
        if item["amp"] == "1":
            item["amp"] = next(spellings)
    return json.dumps(doc)


# equal amplitudes under distinct literals: the loader parses each literal once, yet each entry keeps its own
_STORED_DOCS = {**_ZOO_DOCS, **_DFA_DOCS, "l2-spelled-apart": _spelled_apart(_ZOO_DOCS["l2"])}


@st.composite
def _mutated_docs(draw):
    """A zoo or compiled-DFA document with a few structural faults put in.

    The faults are the ones the structure check and the loader name:
    undeclared states and symbols, bad and ambiguous push words,
    accepting states that also reject, directions that disagree with the
    direction map, and reversible triples with several entries.
    """
    docs = {**_ZOO_DOCS, **_DFA_DOCS}
    doc = json.loads(docs[draw(st.sampled_from(sorted(docs)))])
    trans = doc["transitions"]
    pick = st.integers(0, len(trans) - 1)
    for _ in range(draw(st.integers(1, 4))):
        item = trans[draw(pick)]
        fault = draw(st.sampled_from([
            "state", "symbol", "alphabet", "push", "ambiguous", "overlap",
            "dir", "direction-map", "multivalued", "amp", "kind", "initial"]))
        if fault == "state":
            item[draw(st.sampled_from(["from", "to"]))] = draw(st.sampled_from(["u", "v", doc["initial"]]))
        elif fault == "symbol":
            field, name = draw(st.sampled_from([("input", "z"), ("stack_top", "9"), ("input", "#"),
                                                ("stack_top", "Z0"), ("input", "Z0")]))
            item[field] = name
        elif fault == "alphabet":
            field = draw(st.sampled_from(["input_alphabet", "stack_alphabet"]))
            if doc[field]:
                doc[field].pop(draw(st.integers(0, len(doc[field]) - 1)))
        elif fault == "push":
            item["push"] = draw(st.sampled_from(
                ["", "zz", "Z0", "Z0Z0", item["stack_top"] * 2, item["stack_top"] * 3,
                 item["stack_top"] + "Z0", "Z0" + item["stack_top"]]
                + [a + b for a in doc["stack_alphabet"][:2] for b in doc["stack_alphabet"][:2]]))
        elif fault == "ambiguous":
            if doc["stack_alphabet"]:
                sym = doc["stack_alphabet"][0]
                doc["stack_alphabet"].append(sym * 2)
                item["push"] = sym * 3
        elif fault == "overlap":
            if doc["accepting"]:
                doc["rejecting"].append(draw(st.sampled_from(doc["accepting"])))
        elif fault == "dir":
            item["dir"] = "stay" if item["dir"] == "advance" else "advance"
        elif fault == "direction-map":
            dirs = doc.setdefault("direction", {})
            change = draw(st.sampled_from(["flip", "drop", "ghost"]))
            if change == "ghost":
                dirs["ghost"] = "stay"
            elif dirs:
                q = draw(st.sampled_from(sorted(dirs)))
                if change == "drop":
                    del dirs[q]
                else:
                    dirs[q] = "stay" if dirs[q] == "advance" else "advance"
        elif fault == "multivalued":
            # a second entry for the triple, often with only the direction or push word changed
            twin = draw(st.sampled_from([
                dict(item, dir="stay" if item["dir"] == "advance" else "advance"),
                dict(item, push=item["stack_top"] if item["push"] != item["stack_top"] else ""),
                dict(item, to=draw(st.sampled_from(doc["states"])),
                     dir=draw(st.sampled_from(["stay", "advance"])))]))
            trans.insert(draw(st.integers(0, len(trans))), twin)
        elif fault == "amp":
            item["amp"] = draw(st.sampled_from(["0", "2", "1/2", "-1", "(0,1)", "sqrt(1/2)", "1.0000000001"]))
        elif fault == "kind":
            doc["kind"] = draw(st.sampled_from(["general", "simplified", "reversible"]))
        else:
            doc["initial"] = draw(st.sampled_from(["u", doc["states"][-1]]))
    return doc


class TestLoaderFuzz:
    @settings(max_examples=150, deadline=None)
    @given(_spliced_docs())
    def test_load_fails_cleanly_or_round_trips(self, doc):
        assert_loads_like_oracle(doc)
        try:
            spec = qpa_from_dict(doc)
        except (ParseError, StructureError):
            return
        text = qpa_dumps(spec)
        assert qpa_dumps(qpa_loads(text)) == text

    @settings(max_examples=200, deadline=None)
    @given(_mutated_docs())
    def test_mutated_documents_load_like_the_oracle(self, doc):
        assert_loads_like_oracle(doc)

    @pytest.mark.parametrize("name", sorted(_STORED_DOCS))
    def test_stored_documents_load_like_the_oracle(self, name):
        assert_loads_like_oracle(json.loads(_STORED_DOCS[name]))
