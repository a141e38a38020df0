"""Golden CLI outputs: exit code, stdout and stderr of the commands below, byte for byte.

The inputs and the expected outputs live in ``tests/golden/``.  They are
written by running this module as a script from the repository root::

    PYTHONPATH=src python tests/test_golden.py

which exports the inputs (the zoo fixtures, ``l5`` with every amplitude
multiplied by 0.9, one compiled DFA and the broken inputs of the error
commands), runs every command in-process through ``qpakit.cli.main`` and
records what it printed.  Regenerate them only on purpose: the test
exists to show that a change leaves the output alone.
"""
import contextlib
import io
import json
import os
import sys
from pathlib import Path

GOLDEN = Path(__file__).parent / "golden"
OUTPUTS = GOLDEN / "outputs.json"

# three words per input, over its alphabet
WORDS = {
    "l1": ["1", "10", "0111"],
    "l2": ["ab", "aab", "abab"],
    "l3": ["abc", "aabbc", "acb"],
    "l5": ["abc", "aabc", "abbc"],
    "nonunitary": ["", "1", "11"],
    "l5-scaled": ["abc", "aabc", "abbc"],
    "dfa": ["0", "011", "1010"],
}

# a total three-state DFA over {0, 1}: the number of 1s modulo 3 is 1
DFA = {
    "states": ["r0", "r1", "r2"],
    "alphabet": ["0", "1"],
    "initial": "r0",
    "finals": ["r1"],
    "transitions": [
        {"from": f"r{k}", "input": a, "to": f"r{(k + (a == '1')) % 3}"}
        for k in range(3) for a in "01"
    ],
}


# broken inputs for the error commands: not JSON, a DFA that is not
# total, and l2 with a direction for an undeclared state
GARBAGE = "not json at all\n"
PARTIAL_DFA = {"states": ["s0"], "alphabet": ["0", "1"], "initial": "s0", "finals": [],
               "transitions": [{"from": "s0", "input": "0", "to": "s0"}]}

# commands that fail with exit 3 and one error line
ERRORS = [
    ["check", "missing.json"],
    ["check", "garbage.json"],
    ["check", "ghost.json"],
    ["check", "l2.json", "--tolerance", "-1"],
    ["check", "l2.json", "--tolerance", "abc"],
    ["run", "missing.json", "ab"],
    ["run", "l2.json", "xyz"],
    ["run", "l2.json", "ab", "--max-steps", "-1"],
    ["run", "l2.json", "ab", "--threshold", "0.5"],
    ["batch", "l2.json", "missing.words"],
    ["batch", "l2.json", "l2.words", "--max-steps", "-1"],
    ["batch", "l2.json", "l1.words"],
    ["batch", "l2.json", "l2.words", "--csv-out", "."],
    ["compile-dfa", "missing.json", "out.json"],
    ["compile-dfa", "partial-dfa.json", "out.json"],
    ["compile-dfa", "partial-dfa.json", "out.json", "--tolerance", "nan"],
    ["compile-dfa", "l2.json", "out.json"],
    ["matrix", "missing.json"],
    ["matrix", "l2.json", "--radius", "-1"],
    ["matrix", "l2.json", "--word", "xyz"],
    ["matrix", "l2.json", "--tolerance", "-1"],
    ["zoo", "export", "l9"],
]


def commands(kinds: dict[str, str]) -> list[list[str]]:
    """Every command of the golden set, given each input's kind."""
    out = []
    for name, words in WORDS.items():
        path = f"{name}.json"
        out += [["check", path], ["check", path, "--json"]]
        if kinds[name] != "general":
            out.append(["check", path, "--simplified", "--json"])
        for word in words:
            out += [["run", path, word, "--json"], ["run", path, word, "--trace", "--json"]]
        out.append(["batch", path, f"{name}.words"])
    return out + ERRORS


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one command, as the generator records them."""
    from qpakit.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def write_golden() -> None:
    from qpakit import io as qio, zoo
    from qpakit.dfa2rpa import compile_dfa
    from qpakit.model import format_amplitude, parse_amplitude

    GOLDEN.mkdir(exist_ok=True)
    docs = {name: json.loads(qio.qpa_dumps(spec)) for name, spec in zoo.fixture_specs().items()}
    scaled = json.loads(json.dumps(docs["l5"]))
    for t in scaled["transitions"]:
        t["amp"] = format_amplitude(0.9 * parse_amplitude(t["amp"]))
    docs["l5-scaled"] = scaled
    docs["dfa"] = json.loads(qio.qpa_dumps(compile_dfa(qio.dfa_from_dict(DFA))))
    for name in WORDS:
        (GOLDEN / f"{name}.json").write_text(json.dumps(docs[name], indent=2) + "\n", encoding="utf-8")
        (GOLDEN / f"{name}.words").write_text("".join(w + "\n" for w in WORDS[name]), encoding="utf-8")
    ghost = json.loads(json.dumps(docs["l2"]))
    ghost["direction"]["ghost"] = "stay"
    (GOLDEN / "ghost.json").write_text(json.dumps(ghost, indent=2) + "\n", encoding="utf-8")
    (GOLDEN / "partial-dfa.json").write_text(json.dumps(PARTIAL_DFA, indent=2) + "\n", encoding="utf-8")
    (GOLDEN / "garbage.json").write_text(GARBAGE, encoding="utf-8")
    os.chdir(GOLDEN)
    records = []
    for argv in commands({name: docs[name]["kind"] for name in WORDS}):
        code, stdout, stderr = run_cli(argv)
        records.append({"argv": argv, "exit": code, "stdout": stdout, "stderr": stderr})
    OUTPUTS.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")


def test_exports_match_the_golden_inputs():
    """``qpa_dumps`` of every zoo fixture and of the compiled ``DFA`` is its golden input, byte for byte."""
    from qpakit import io as qio, zoo
    from qpakit.dfa2rpa import compile_dfa

    specs = {**zoo.fixture_specs(), "dfa": compile_dfa(qio.dfa_from_dict(DFA))}
    for name, spec in specs.items():
        assert qio.qpa_dumps(spec).encode() == (GOLDEN / f"{name}.json").read_bytes(), name


def test_golden_outputs(monkeypatch, capsys):
    from qpakit.cli import main

    monkeypatch.delenv("QPAKIT_OUTPUT", raising=False)
    monkeypatch.delenv("QPAKIT_TOLERANCE", raising=False)
    monkeypatch.chdir(GOLDEN)
    records = json.loads(OUTPUTS.read_text(encoding="utf-8"))
    kinds = {name: json.loads((GOLDEN / f"{name}.json").read_text())["kind"] for name in WORDS}
    assert [r["argv"] for r in records] == commands(kinds)
    for r in records:
        code = main(r["argv"])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (r["exit"], r["stdout"], r["stderr"]), r["argv"]


if __name__ == "__main__":
    os.environ.pop("QPAKIT_OUTPUT", None)
    os.environ.pop("QPAKIT_TOLERANCE", None)
    sys.exit(write_golden())
