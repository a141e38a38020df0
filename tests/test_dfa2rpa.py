"""Compiler: structure of the output, equivalence with classical runs."""
import numpy as np
import pytest

from qpakit.dfa2rpa import compile_dfa
from qpakit.evolve import recognize
from qpakit.io import qpa_dumps, qpa_loads
from qpakit.model import DfaSpec, QpaError, StructureError
from qpakit.wellformed import check_all
from qpakit.model import validate_structure

from conftest import random_total_dfa, simulate_dfa, words_up_to


class TestSimulateDfa:
    def test_examples(self, ends_in_one_dfa):
        assert simulate_dfa(ends_in_one_dfa, "01") is True
        assert simulate_dfa(ends_in_one_dfa, "") is False
        assert simulate_dfa(ends_in_one_dfa, "10") is False

    def test_illegal_symbol(self, ends_in_one_dfa):
        with pytest.raises(QpaError):
            simulate_dfa(ends_in_one_dfa, "012")


class TestCompileStructure:
    def test_two_state_dfa_gives_four_states(self, ends_in_one_dfa):
        rpa = compile_dfa(ends_in_one_dfa)
        assert len(rpa.states) == 4
        assert rpa.q_accept == {"q1'"}
        assert rpa.q_reject == {"q0'"}
        assert rpa.alphabets.t == {"0", "1"}
        assert validate_structure(rpa) == []
        assert check_all(rpa, suite="simplified").passed

    def test_directions_split_by_priming(self, ends_in_one_dfa):
        rpa = compile_dfa(ends_in_one_dfa)
        for q in rpa.states:
            want = "stay" if q.endswith("'") else "advance"
            assert rpa.direction_fn[q].value == want

    def test_injective_per_input_symbol(self, ends_in_one_dfa):
        rng = np.random.default_rng(99)
        for dfa in [ends_in_one_dfa] + [random_total_dfa(5, "ab", rng) for _ in range(3)]:
            rpa = compile_dfa(dfa)
            for sigma in sorted(rpa.alphabets.gamma):
                images = {}
                for key in rpa.delta:
                    if key.sigma != sigma:
                        continue
                    image = (key.q, key.omega)
                    assert image not in images, (sigma, key, images[image])
                    images[image] = key

    def test_partial_dfa_rejected(self):
        dfa = DfaSpec(
            states=frozenset({"s0", "s1"}), sigma=frozenset({"0"}),
            q0="s0", finals=frozenset(), trans={("s0", "0"): "s1"},
        )
        with pytest.raises(StructureError):
            compile_dfa(dfa)

    def test_empty_dfa_rejected(self):
        dfa = DfaSpec(states=frozenset(), sigma=frozenset({"0"}),
                      q0="s0", finals=frozenset(), trans={})
        with pytest.raises((QpaError, StructureError)):
            compile_dfa(dfa)

    def test_empty_dfa_fails_validation(self):
        dfa = DfaSpec(states=frozenset(), sigma=frozenset({"0"}),
                      q0="s0", finals=frozenset(), trans={})
        with pytest.raises(StructureError) as info:
            compile_dfa(dfa)
        assert [v.code for v in info.value.violations] == ["dfa-initial-unknown"]

    def test_primed_name_collision_rejected(self):
        dfa = DfaSpec(
            states=frozenset({"s", "s'"}), sigma=frozenset({"0"}),
            q0="s", finals=frozenset(),
            trans={("s", "0"): "s", ("s'", "0"): "s'"},
        )
        with pytest.raises(QpaError):
            compile_dfa(dfa)


class TestCompileBehavior:
    def test_ends_in_one_language(self, ends_in_one_dfa):
        rpa = compile_dfa(ends_in_one_dfa)
        for word in words_up_to("01", 6):
            r = recognize(rpa, word)
            want = 1.0 if simulate_dfa(ends_in_one_dfa, word) else 0.0
            assert r.p_accept == pytest.approx(want, abs=1e-9)
            assert r.p_reject == pytest.approx(1.0 - want, abs=1e-9)
            assert r.halted and r.steps <= len(word) + 4

    def test_accept_all_single_state(self):
        dfa = DfaSpec(states=frozenset({"s0"}), sigma=frozenset({"0", "1"}),
                      q0="s0", finals=frozenset({"s0"}),
                      trans={("s0", "0"): "s0", ("s0", "1"): "s0"})
        rpa = compile_dfa(dfa)
        assert check_all(rpa).passed
        for word in ("", "0", "11", "0101"):
            assert recognize(rpa, word).p_accept == pytest.approx(1.0, abs=1e-9)

    def test_random_dfas_agree_exhaustively(self):
        rng = np.random.default_rng(2718)
        for _ in range(4):
            dfa = random_total_dfa(int(rng.integers(1, 7)), "01", rng)
            rpa = compile_dfa(dfa)
            assert check_all(rpa).passed
            for word in words_up_to("01", 5):
                r = recognize(rpa, word)
                want = 1.0 if simulate_dfa(dfa, word) else 0.0
                assert r.p_accept == pytest.approx(want, abs=1e-9)

    def test_five_state_two_letter_dfa_exhaustive(self):
        rng = np.random.default_rng(555)
        dfa = random_total_dfa(5, "ab", rng)
        rpa = compile_dfa(dfa)
        assert check_all(rpa).passed
        for word in words_up_to("ab", 8):
            r = recognize(rpa, word)
            want = 1.0 if simulate_dfa(dfa, word) else 0.0
            assert r.p_accept == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("n_states", [10, 11, 12, 40])
    def test_many_states_load_back_and_agree(self, n_states):
        """Index symbols share one width, so a push word such as 1·0 is not also the symbol 10."""
        dfa = random_total_dfa(n_states, "01", np.random.default_rng(n_states))
        text = qpa_dumps(compile_dfa(dfa))
        rpa = qpa_loads(text)
        assert qpa_dumps(rpa) == text
        for word in words_up_to("01", 4):
            want = 1.0 if simulate_dfa(dfa, word) else 0.0
            assert recognize(rpa, word).p_accept == pytest.approx(want, abs=1e-9)

    def test_halting_within_word_plus_four(self):
        rng = np.random.default_rng(31415)
        dfa = random_total_dfa(6, "01", rng)
        rpa = compile_dfa(dfa)
        for word in ("", "0", "010101", "11110000"):
            r = recognize(rpa, word, halt_eps=1e-12)
            assert r.halted
            assert r.steps <= len(word) + 4
            assert r.steps == len(word) + 2
