"""Expected outputs for the benchmark, computed without qpakit.

Every function here derives the right answer from first principles (letter
counts, a classical DFA run, table sizes) and returns a list of problems:
an empty list means the program's output is correct.  Nothing in this module
imports the package under test.
"""
from __future__ import annotations

import json
from fractions import Fraction

TOL = 1e-9

# Exit codes documented in the README and in the CLI's module docstring.
EXIT = {
    "check": {"well-formed": 0, "violations": 2, "error": 3},
    "run": {"accepted": 0, "rejected": 1, "inconclusive": 2, "error": 3},
    "batch": {"ok": 0, "error": 3},
    "compile-dfa": {"ok": 0, "error": 3},
    "matrix": {"unitary": 0, "deviations": 2, "error": 3},
    "zoo": {"ok": 0, "error": 3},
}


def close(x: float, y: float) -> bool:
    """Within TOL; NaN is never close to anything."""
    return abs(x - y) <= TOL


# --- language membership and exact probabilities -----------------------------

def l2_accept_probability(word: str) -> Fraction:
    """Reversible: equal counts of a and b are accepted with certainty."""
    return Fraction(int(word.count("a") == word.count("b")))


def l3_accept_probability(word: str) -> Fraction:
    """Three-way split: an a-vs-b comparator, a b-vs-c one, and a reject branch.

    Each branch carries 1/3; a comparator that finds its two counts equal
    accepts.  Members (a = b = c) therefore accept with exactly 2/3.
    """
    a, b, c = word.count("a"), word.count("b"), word.count("c")
    return Fraction(int(a == b) + int(b == c), 3)


def l5_accept_probability(word: str) -> Fraction:
    """3/7 unconditional accept plus 1/7 when exactly one of a=b, a=c holds.

    When both hold the two comparator accept amplitudes cancel, so balanced
    words accept with 3/7, like words where neither holds.
    """
    a, b, c = word.count("a"), word.count("b"), word.count("c")
    return Fraction(4, 7) if (a == b) != (a == c) else Fraction(3, 7)


def dfa_accepts(dfa: dict, word: str) -> bool:
    """Classical run of a DFA document {states, alphabet, initial, finals, transitions}."""
    step = {(t["from"], t["input"]): t["to"] for t in dfa["transitions"]}
    state = dfa["initial"]
    for ch in word:
        state = step[(state, ch)]
    return state in set(dfa["finals"])


def dfa_accept_probability(dfa: dict, word: str) -> Fraction:
    return Fraction(int(dfa_accepts(dfa, word)))


def recognition_problems(result: dict, expected: Fraction, steps: int | None = None) -> list[str]:
    """A run's probabilities against the exact value; mass is conserved.

    ``result`` has p_accept, p_reject, p_nonhalt, steps and halted, as the
    library's result and the CLI's JSON both give them.
    """
    out = []
    p_acc, p_rej, p_non = result["p_accept"], result["p_reject"], result["p_nonhalt"]
    if not close(p_acc, float(expected)):
        out.append(f"p_accept {p_acc!r} != {expected}")
    if not close(p_rej, float(1 - expected)):
        out.append(f"p_reject {p_rej!r} != {1 - expected}")
    if not close(p_acc + p_rej + p_non, 1.0):
        out.append(f"p_accept + p_reject + p_nonhalt = {p_acc + p_rej + p_non!r} != 1")
    if not result["halted"]:
        out.append("run did not halt")
    if steps is not None and result["steps"] != steps:
        out.append(f"steps {result['steps']} != {steps}")
    return out


def decision(expected: Fraction) -> str:
    """The verdict at the default threshold, the smallest float above 1/2."""
    if expected > Fraction(1, 2):
        return "accepted"
    if 1 - expected > Fraction(1, 2):
        return "rejected"
    return "inconclusive"


# --- condition suites --------------------------------------------------------

def suite_tuples(suite: str, n_states: int, n_tape: int, n_stack: int) -> dict[str, int]:
    """Quantifier instances per condition, from |Q|, |Γ| and |Δ| (Δ includes Z0)."""
    cols = n_states * n_tape * n_stack
    ocv = n_tape * (n_states * n_stack) * (n_states * n_stack - 1) // 2
    sep = n_tape * (n_states * n_stack) ** 2 * n_stack
    if suite == "simplified":
        return {"LPC2": cols, "OCV2": ocv, "RVN2": n_states * n_tape * n_stack ** 2,
                "SEP_a": sep, "SEP_b": sep}
    mixed = cols * cols * n_stack * 2
    return {"LPC": cols, "OCV": ocv, "RVN": n_states * n_tape ** 2 * n_stack ** 2,
            "SEP1a": sep, "SEP1b": sep, "SEP2": cols * cols,
            "SEP3a": mixed, "SEP3b": mixed}


def scaled_expectation(n_states: int, n_tape: int, n_stack: int, factor: float) -> dict:
    """A unitary simplified table with every amplitude multiplied by ``factor``.

    Every column and every row then carries probability factor², so each
    LPC2 column and each RVN2 row is violated by 1 - factor²; inner products
    that were 0 stay 0, so OCV2, SEP_a and SEP_b still pass.
    """
    return {
        "violations": {"LPC2": n_states * n_tape * n_stack,
                       "RVN2": n_states * n_tape * n_stack ** 2,
                       "OCV2": 0, "SEP_a": 0, "SEP_b": 0},
        "worst": 1.0 - factor ** 2,
    }


def nonunitary_expectation(n_states: int, n_tape: int, n_stack: int) -> dict:
    """The always-push table: every RVN row whose top stack symbol is Z0 is empty.

    Nothing ever shrinks the stack back to the base, so those rows carry
    probability 0 (residual 1); every other condition holds.
    """
    viol = {c: 0 for c in suite_tuples("general", 1, 1, 1)}
    viol["RVN"] = n_states * n_tape ** 2 * n_stack
    return {"violations": viol, "worst": 1.0}


def unitary_expectation(suite: str) -> dict:
    return {"violations": {c: 0 for c in suite_tuples(suite, 1, 1, 1)}, "worst": 0.0}


def check_problems(report: dict, expected: dict) -> list[str]:
    """A check report {condition: (violations, passed)} plus worst residual and verdict.

    ``report`` is {"conditions": {id: {"violations": n, "passed": b}},
    "worst": x, "passed": b}.  Every expected condition must be listed.
    """
    out = []
    conds = report["conditions"]
    for cid, want in expected["violations"].items():
        got = conds.get(cid)
        if got is None:
            out.append(f"{cid} missing from the report")
            continue
        if got["violations"] != want:
            out.append(f"{cid}: {got['violations']} violations, expected {want}")
        if got["passed"] != (want == 0):
            out.append(f"{cid}: passed={got['passed']}, expected {want == 0}")
    extra = set(conds) - set(expected["violations"])
    if extra:
        out.append(f"unexpected conditions {sorted(extra)}")
    want_passed = all(v == 0 for v in expected["violations"].values())
    if report["passed"] != want_passed:
        out.append(f"passed={report['passed']}, expected {want_passed}")
    if not close(report["worst"], expected["worst"]):
        out.append(f"worst residual {report['worst']!r}, expected {expected['worst']!r}")
    return out


def nonfinite_problems(load_error: str | None, passed: bool | None) -> list[str]:
    """A table with a NaN amplitude must be refused or reported not well-formed."""
    if load_error is not None or passed is False:
        return []
    return ["a table with a NaN amplitude was reported well-formed"]


# --- truncated matrices --------------------------------------------------------

def window_size(n_states: int, word_len: int, n_stack_symbols: int, radius: int) -> int:
    """|Q| · (len + 2) · Σ_{d ≤ r+1} |T|^d: every stack of depth ≤ radius + 1 above Z0."""
    stacks = sum(n_stack_symbols ** d for d in range(radius + 2))
    return n_states * (word_len + 2) * stacks


def duality_problems(check_passed: bool, col_dev: float, row_dev: float, tol: float,
                     rows_only: bool) -> list[str]:
    """The matrix verdict equals the condition verdict.

    ``rows_only`` marks a table that is column-isometric but not unitary:
    its interior columns must pass while its interior rows fail.
    """
    out = []
    matrix_passed = col_dev <= tol and row_dev <= tol      # NaN deviations fail
    if matrix_passed != check_passed:
        out.append(f"matrix verdict {matrix_passed} != condition verdict {check_passed}")
    if rows_only and not (col_dev <= tol < row_dev):
        out.append(f"expected rows to fail and columns to pass: col {col_dev!r}, row {row_dev!r}")
    return out


# --- CLI ----------------------------------------------------------------------

def exit_problems(command: str, outcome: str, code: int) -> list[str]:
    want = EXIT[command][outcome]
    return [] if code == want else [f"{command}: exit {code}, expected {want} ({outcome})"]


def check_json_report(text: str) -> dict:
    """The CLI's ``check --json`` document in the shape check_problems reads."""
    doc = json.loads(text)
    return {
        "conditions": {c["condition"]: {"violations": c["violations"], "passed": c["passed"]}
                       for c in doc["conditions"]},
        "worst": doc["worst_residual"],
        "passed": doc["passed"],
        "total": doc["total_violations"],
    }


def batch_problems(csv_text: str, words: list[str], prob) -> list[str]:
    """Every CSV row of ``batch`` against the exact probability of its word."""
    lines = csv_text.splitlines()
    if not lines or lines[0] != "word,p_accept,p_reject,p_nonhalt,steps,halted,decision":
        return ["batch: missing or wrong CSV header"]
    rows = lines[1:]
    if len(rows) != len(words):
        return [f"batch: {len(rows)} rows for {len(words)} words"]
    out = []
    for line, word in zip(rows, words):
        f = line.split(",")
        if f[0] != word:
            out.append(f"batch: row for {f[0]!r}, expected {word!r}")
            break
        expected = prob(word)
        res = {"p_accept": float(f[1]), "p_reject": float(f[2]), "p_nonhalt": float(f[3]),
               "steps": int(f[4]), "halted": f[5] == "True"}
        out += [f"batch {word!r}: {p}" for p in recognition_problems(res, expected)]
        if f[6] != decision(expected):
            out.append(f"batch {word!r}: decision {f[6]}, expected {decision(expected)}")
        if out:
            break
    return out


def _tokens(text: str, symbols: list[str]) -> list[str]:
    out, i = [], 0
    by_len = sorted(symbols, key=len, reverse=True)
    while i < len(text):
        sym = next(s for s in by_len if text.startswith(s, i))
        out.append(sym)
        i += len(sym)
    return out


def reversible_accepts(doc: dict, word: str, max_steps: int) -> tuple[bool, int]:
    """Run a single-valued, unit-amplitude pushdown table classically.

    ``doc`` is the automaton JSON document; returns (accepted, steps).
    """
    stack_syms = ["Z0", *doc["stack_alphabet"]]
    table = {(t["from"], t["input"], t["stack_top"]): t for t in doc["transitions"]}
    tape = ["#", *word, "$"]
    state, head, stack = doc["initial"], 0, ["Z0"]
    for step in range(1, max_steps + 1):
        t = table[(state, tape[head], stack[-1])]
        stack = stack[:-1] + _tokens(t["push"], stack_syms)
        state = t["to"]
        head += t["dir"] == "advance"
        if state in doc["accepting"]:
            return True, step
        if state in doc["rejecting"]:
            return False, step
    raise ValueError(f"no halt within {max_steps} steps")


def compiled_dfa_problems(dfa: dict, rpa_text: str, words: list[str]) -> list[str]:
    """The compiled table doubles the states and decides each word like the DFA."""
    doc = json.loads(rpa_text)
    out = []
    if len(doc["states"]) != 2 * len(dfa["states"]):
        out.append(f"{len(doc['states'])} states for a {len(dfa['states'])}-state DFA")
    for w in words:
        accepted, steps = reversible_accepts(doc, w, 4 * len(w) + 8)
        if accepted != dfa_accepts(dfa, w):
            out.append(f"compiled table decides {w!r} as {accepted}")
        if steps != len(w) + 2:
            out.append(f"compiled table halts on {w!r} after {steps} steps")
    return out
