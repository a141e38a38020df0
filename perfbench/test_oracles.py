"""Each oracle accepts the right answer and rejects a wrong one.

    python3 -m pytest perfbench/test_oracles.py -q
"""
import json
from fractions import Fraction

import oracles as orc


def run_result(p_accept, p_reject=None, p_nonhalt=0.0, steps=4, halted=True):
    if p_reject is None:
        p_reject = 1.0 - p_accept
    return {"p_accept": p_accept, "p_reject": p_reject, "p_nonhalt": p_nonhalt,
            "steps": steps, "halted": halted}


DFA = {  # words over {a, b} with an odd number of b
    "states": ["e", "o"], "alphabet": ["a", "b"], "initial": "e", "finals": ["o"],
    "transitions": [{"from": "e", "input": "a", "to": "e"}, {"from": "e", "input": "b", "to": "o"},
                    {"from": "o", "input": "a", "to": "o"}, {"from": "o", "input": "b", "to": "e"}],
}


class TestLanguages:
    def test_l2_counts_letters(self):
        assert orc.l2_accept_probability("aabb") == 1
        assert orc.l2_accept_probability("aab") == 0

    def test_l3_members_two_thirds(self):
        assert orc.l3_accept_probability("abc") == Fraction(2, 3)
        assert orc.l3_accept_probability("") == Fraction(2, 3)
        assert orc.l3_accept_probability("a") == Fraction(1, 3)    # only b = c holds
        assert orc.l3_accept_probability("aab") == 0

    def test_l5_four_sevenths_and_three_on_balanced(self):
        assert orc.l5_accept_probability("aabbc") == Fraction(4, 7)
        assert orc.l5_accept_probability("abc") == Fraction(3, 7)
        assert orc.l5_accept_probability("aab") == Fraction(3, 7)

    def test_wrong_probability_rejected(self):
        want = orc.l5_accept_probability("aabbc")
        assert orc.recognition_problems(run_result(4 / 7), want) == []
        assert orc.recognition_problems(run_result(3 / 7), want)

    def test_lost_mass_rejected(self):
        assert orc.recognition_problems(run_result(1.0, 0.0, 0.0), Fraction(1)) == []
        assert orc.recognition_problems(run_result(1.0, 0.0, 0.1), Fraction(1))

    def test_nan_run_rejected(self):
        nan = float("nan")
        assert orc.recognition_problems(run_result(nan, nan, nan), Fraction(1))

    def test_step_count(self):
        assert orc.recognition_problems(run_result(1.0, steps=6), Fraction(1), steps=6) == []
        assert orc.recognition_problems(run_result(1.0, steps=8), Fraction(1), steps=6)

    def test_unhalted_run_rejected(self):
        assert orc.recognition_problems(run_result(1.0, halted=False), Fraction(1))

    def test_dfa_run(self):
        assert orc.dfa_accepts(DFA, "abab") is False
        assert orc.dfa_accepts(DFA, "bab") is False
        assert orc.dfa_accepts(DFA, "ab") is True
        assert orc.recognition_problems(run_result(1.0), orc.dfa_accept_probability(DFA, "abb"))
        assert orc.recognition_problems(run_result(1.0), orc.dfa_accept_probability(DFA, "ab")) == []

    def test_decision(self):
        assert orc.decision(Fraction(4, 7)) == "accepted"
        assert orc.decision(Fraction(3, 7)) == "rejected"
        assert orc.decision(Fraction(1, 2)) == "inconclusive"


def report(viol: dict, worst: float) -> dict:
    return {"conditions": {c: {"violations": n, "passed": n == 0} for c, n in viol.items()},
            "worst": worst, "passed": all(n == 0 for n in viol.values())}


class TestChecks:
    def test_scaled_l5_counts(self):
        want = orc.scaled_expectation(16, 5, 3, 0.9)
        assert want["violations"]["LPC2"] == 240 and want["violations"]["RVN2"] == 720
        good = report({"LPC2": 240, "OCV2": 0, "RVN2": 720, "SEP_a": 0, "SEP_b": 0}, 1 - 0.81)
        assert orc.check_problems(good, want) == []

    def test_capped_report_rejected(self):
        """The shape `check --simplified` gives today: 200 violations, passing conditions dropped."""
        want = orc.scaled_expectation(16, 5, 3, 0.9)
        capped = report({"LPC2": 100, "RVN2": 100}, 0.19)
        problems = orc.check_problems(capped, want)
        assert any("LPC2" in p for p in problems)
        assert any("OCV2 missing" in p for p in problems)

    def test_nonunitary_fails_rows_only(self):
        want = orc.nonunitary_expectation(1, 3, 2)
        assert want["violations"]["RVN"] == 18
        viol = {c: 0 for c in want["violations"]}
        assert orc.check_problems(report({**viol, "RVN": 18}, 1.0), want) == []
        assert orc.check_problems(report({**viol, "RVN": 18, "LPC": 1}, 1.0), want)

    def test_unitary_passes(self):
        want = orc.unitary_expectation("general")
        viol = {c: 0 for c in want["violations"]}
        assert orc.check_problems(report(viol, 2e-16), want) == []
        assert orc.check_problems(report({**viol, "SEP2": 3}, 0.5), want)

    def test_nan_table_must_not_pass(self):
        assert orc.nonfinite_problems("transition 0: amplitude is not finite", None) == []
        assert orc.nonfinite_problems(None, False) == []
        assert orc.nonfinite_problems(None, True)

    def test_suite_tuples(self):
        t = orc.suite_tuples("simplified", 2, 3, 2)
        assert t["LPC2"] == 12 and t["RVN2"] == 24 and t["OCV2"] == 3 * 4 * 3 // 2
        assert set(orc.suite_tuples("general", 1, 1, 1)) == {
            "LPC", "OCV", "RVN", "SEP1a", "SEP1b", "SEP2", "SEP3a", "SEP3b"}


class TestMatrices:
    def test_window_size(self):
        assert orc.window_size(16, 3, 2, 3) == 2480     # l5 on abc, radius 3
        assert orc.window_size(1, 4, 1, 4) == 36
        assert orc.window_size(5, 2, 2, 3) != 5 * 4 * 15

    def test_duality(self):
        assert orc.duality_problems(True, 0.0, 1e-12, 1e-8, rows_only=False) == []
        assert orc.duality_problems(True, 0.0, 0.5, 1e-8, rows_only=False)
        assert orc.duality_problems(False, 0.0, 1.0, 1e-8, rows_only=True) == []
        assert orc.duality_problems(False, 1.0, 1.0, 1e-8, rows_only=True)
        assert orc.duality_problems(False, 0.0, 0.0, 1e-8, rows_only=True)


class TestCli:
    def test_exit_codes(self):
        assert orc.exit_problems("check", "violations", 2) == []
        assert orc.exit_problems("check", "violations", 0)
        assert orc.exit_problems("run", "rejected", 1) == []
        assert orc.exit_problems("run", "rejected", 2)

    def test_check_json(self):
        doc = {"suite": "general", "tolerance": 1e-9, "passed": False, "worst_residual": 1.0,
               "total_violations": 18,
               "conditions": [{"condition": c, "passed": c != "RVN", "worst_residual": 0.0,
                               "violations": 18 if c == "RVN" else 0, "witnesses": []}
                              for c in ("LPC", "OCV", "RVN", "SEP1a", "SEP1b", "SEP2", "SEP3a", "SEP3b")]}
        rep = orc.check_json_report(json.dumps(doc))
        assert orc.check_problems(rep, orc.nonunitary_expectation(1, 3, 2)) == []

    def test_batch_rows(self):
        words = ["", "ab", "abc"]
        rows = ["word,p_accept,p_reject,p_nonhalt,steps,halted,decision"]
        for w in words:
            p = orc.l5_accept_probability(w)
            rows.append(f"{w},{float(p)!r},{float(1 - p)!r},0.0,{len(w) + 2},True,{orc.decision(p)}")
        assert orc.batch_problems("\n".join(rows), words, orc.l5_accept_probability) == []
        rows[2] = rows[2].replace("accepted", "rejected")
        assert orc.batch_problems("\n".join(rows), words, orc.l5_accept_probability)
        assert orc.batch_problems("\n".join(rows[:3]), words, orc.l5_accept_probability)

    def test_compiled_dfa(self):
        # hand-built reversible table for DFA: one state pair, always advance then decide on $
        rpa = {
            "states": ["e", "e'", "o", "o'"], "stack_alphabet": ["0", "1"], "initial": "e",
            "accepting": ["o'"], "rejecting": ["e'"],
            "transitions": [
                {"from": q, "input": "#", "stack_top": "Z0", "to": q, "dir": "advance", "push": "Z0"}
                for q in ("e", "o")
            ] + [
                {"from": q, "input": a, "stack_top": t, "to": DFA_STEP[(q, a)], "dir": "advance",
                 "push": t + ("0" if q == "e" else "1")}
                for q in ("e", "o") for a in "ab" for t in ("Z0", "0", "1")
            ] + [
                {"from": q, "input": "$", "stack_top": t, "to": q + "'", "dir": "stay", "push": t}
                for q in ("e", "o") for t in ("Z0", "0", "1")
            ],
        }
        words = ["", "a", "b", "ab", "bb", "bab"]
        assert orc.compiled_dfa_problems(DFA, json.dumps(rpa), words) == []
        wrong = json.loads(json.dumps(rpa))
        wrong["accepting"], wrong["rejecting"] = ["e'"], ["o'"]
        assert orc.compiled_dfa_problems(DFA, json.dumps(wrong), words)


DFA_STEP = {(t["from"], t["input"]): t["to"] for t in DFA["transitions"]}
