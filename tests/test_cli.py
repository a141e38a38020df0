"""Command-line behavior: exit codes, output formats, determinism."""
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from qpakit import zoo
from qpakit.cli import CHECK_SCHEMA, RUN_SCHEMA, MATRIX_SCHEMA, main
from qpakit.io import load_qpa, qpa_dumps, save_dfa, save_qpa
from qpakit.model import DfaSpec


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    paths = {}
    for name, spec in zoo.fixture_specs().items():
        path = root / f"{name}.json"
        save_qpa(spec, path)
        paths[name] = str(path)
    garbage = root / "garbage.json"
    garbage.write_text("not json at all", encoding="utf-8")
    paths["garbage"] = str(garbage)
    dfa = DfaSpec(
        states=frozenset({"q0", "q1"}), sigma=frozenset({"0", "1"}),
        q0="q0", finals=frozenset({"q1"}),
        trans={("q0", "0"): "q0", ("q0", "1"): "q1",
               ("q1", "0"): "q0", ("q1", "1"): "q1"},
    )
    dfa_path = root / "dfa.json"
    save_dfa(dfa, dfa_path)
    paths["dfa"] = str(dfa_path)
    partial = root / "partial_dfa.json"
    partial.write_text(json.dumps({
        "states": ["s0"], "alphabet": ["0", "1"], "initial": "s0",
        "finals": [], "transitions": [{"from": "s0", "input": "0", "to": "s0"}],
    }), encoding="utf-8")
    paths["partial_dfa"] = str(partial)
    paths["root"] = str(root)
    return paths


class TestCheck:
    def test_well_formed_exits_zero(self, files, capsys):
        assert main(["check", files["l2"]]) == 0
        assert "well-formed" in capsys.readouterr().out

    def test_violations_exit_two(self, files, capsys):
        assert main(["check", files["nonunitary"]]) == 2
        out = capsys.readouterr().out
        assert "RVN" in out and "FAIL" in out

    def test_garbage_exits_three(self, files, capsys):
        assert main(["check", files["garbage"]]) == 3

    def test_json_output_validates(self, files, capsys):
        assert main(["check", files["l1"], "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        jsonschema.validate(doc, CHECK_SCHEMA)
        assert doc["passed"] is True

    def test_simplified_flag(self, files, capsys):
        assert main(["check", files["l2"], "--simplified", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["suite"] == "simplified"


class TestRun:
    def test_accept_exits_zero(self, files, capsys):
        assert main(["run", files["l1"], "01"]) == 0
        assert "accepted" in capsys.readouterr().out

    def test_reject_exits_one(self, files, capsys):
        assert main(["run", files["l1"], "10"]) == 1

    def test_threshold_two_thirds(self, files, capsys):
        assert main(["run", files["l3"], "abc", "--threshold", "0.6"]) == 0
        out = capsys.readouterr().out
        assert "0.666666666667" in out

    def test_inconclusive_exits_two(self, files, capsys):
        assert main(["run", files["l3"], "ab", "--threshold", "0.9"]) == 2

    def test_illegal_word_exits_three(self, files, capsys):
        assert main(["run", files["l2"], "aXb"]) == 3

    def test_not_well_formed_without_force(self, files, capsys):
        assert main(["run", files["nonunitary"], "1"]) == 3

    def test_json_output_validates(self, files, capsys):
        assert main(["run", files["l5"], "ab", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        jsonschema.validate(doc, RUN_SCHEMA)
        assert doc["p_accept"] == pytest.approx(4 / 7)

    def test_trace_lines(self, files, capsys):
        assert main(["run", files["l2"], "ab", "--trace"]) == 0
        out = capsys.readouterr().out
        assert "step 1" in out

    def test_trace_json_carries_superpositions(self, files, capsys):
        assert main(["run", files["l5"], "abc", "--trace", "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        jsonschema.validate(doc, RUN_SCHEMA)
        first = doc["trace"][0]["superposition"]
        assert all(set(e) == {"state", "head", "stack", "re", "im"} for e in first)


class TestBatch:
    def test_rows_in_input_order(self, files, tmp_path, capsys):
        words = tmp_path / "words.txt"
        words.write_text("ab\nabc\naab\n", encoding="utf-8")
        out_csv = tmp_path / "out.csv"
        assert main(["batch", files["l5"], str(words), "--csv-out", str(out_csv)]) == 0
        lines = out_csv.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "word,p_accept,p_reject,p_nonhalt,steps,halted,decision"
        rows = [line.split(",") for line in lines[1:]]
        assert [r[0] for r in rows] == ["ab", "abc", "aab"]
        assert float(rows[0][1]) == pytest.approx(4 / 7)
        assert float(rows[1][1]) == pytest.approx(3 / 7)
        assert float(rows[2][1]) == pytest.approx(3 / 7)

    def test_exhaustive_words_all_halt(self, files, tmp_path, capsys):
        from conftest import words_up_to
        words = tmp_path / "all6.txt"
        words.write_text("".join(w + "\n" for w in words_up_to("ab", 6)), encoding="utf-8")
        out_csv = tmp_path / "all6.csv"
        assert main(["batch", files["l2"], str(words), "--csv-out", str(out_csv)]) == 0
        lines = out_csv.read_text(encoding="utf-8").strip().splitlines()
        assert len(lines) == 1 + 127
        assert all(line.split(",")[5] == "True" for line in lines[1:])

    def test_empty_words_file(self, files, tmp_path, capsys):
        words = tmp_path / "empty.txt"
        words.write_text("", encoding="utf-8")
        out_csv = tmp_path / "empty.csv"
        assert main(["batch", files["l2"], str(words), "--csv-out", str(out_csv)]) == 0
        assert out_csv.read_text(encoding="utf-8").strip() == \
            "word,p_accept,p_reject,p_nonhalt,steps,halted,decision"

    def test_missing_words_file(self, files, capsys):
        assert main(["batch", files["l2"], "/nonexistent/words.txt"]) == 3

    def test_rerun_is_byte_identical(self, files, tmp_path, capsys):
        words = tmp_path / "w.txt"
        words.write_text("ab\nba\n", encoding="utf-8")
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(["batch", files["l2"], str(words), "--csv-out", str(a)]) == 0
        assert main(["batch", files["l2"], str(words), "--csv-out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestCompileDfa:
    def test_compiles_and_verifies(self, files, tmp_path, capsys):
        out = tmp_path / "rpa.json"
        assert main(["compile-dfa", files["dfa"], str(out)]) == 0
        rpa = load_qpa(out)
        assert len(rpa.states) == 4

    def test_partial_dfa_exits_three(self, files, tmp_path, capsys):
        out = tmp_path / "rpa.json"
        assert main(["compile-dfa", files["partial_dfa"], str(out)]) == 3


class TestMatrix:
    def test_verify_pass(self, files, capsys):
        assert main(["matrix", files["l2"], "--word", "ab", "--radius", "4", "--verify"]) == 0

    def test_verify_fail_row_deviation(self, files, capsys):
        assert main(["matrix", files["nonunitary"], "--word", "1",
                     "--radius", "3", "--verify"]) == 2
        assert "1.000e+00" in capsys.readouterr().out

    def test_dump_json(self, files, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert main(["matrix", files["l1"], "--word", "1", "--radius", "2",
                     "--dump", str(out)]) == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["dim"] > 0 and doc["triplets"]

    def test_dump_text_grid(self, files, capsys):
        assert main(["matrix", files["nonunitary"], "--word", "1", "--radius", "1",
                     "--dump", "-"]) == 0
        out = capsys.readouterr().out
        assert "1.0000" in out

    def test_json_mode_validates(self, files, capsys):
        assert main(["matrix", files["l2"], "--word", "ab", "--radius", "2",
                     "--verify", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        jsonschema.validate(doc, MATRIX_SCHEMA)

    def test_window_cap_exits_three(self, files, capsys):
        assert main(["matrix", files["l2"], "--word", "ab", "--radius", "40",
                     "--verify"]) == 3

    def test_rerun_json_identical(self, files, capsys):
        assert main(["matrix", files["l2"], "--word", "ab", "--radius", "3",
                     "--verify", "--json"]) == 0
        first = capsys.readouterr().out
        assert main(["matrix", files["l2"], "--word", "ab", "--radius", "3",
                     "--verify", "--json"]) == 0
        assert capsys.readouterr().out == first


class TestZooCommands:
    def test_list(self, capsys):
        assert main(["zoo", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("l1", "l2", "l3", "l5", "nonunitary"):
            assert name in out

    def test_export_and_reload(self, tmp_path, capsys):
        out = tmp_path / "l3.json"
        assert main(["zoo", "export", "l3", str(out)]) == 0
        spec = load_qpa(out)
        assert spec.name == "l3"

    def test_export_unknown(self, capsys):
        assert main(["zoo", "export", "l9"]) == 3


class TestEnvironmentOverrides:
    def test_env_tolerance_loosens(self, files, tmp_path, capsys, monkeypatch):
        # a slightly lossy table passes under a loose env tolerance
        import math
        from conftest import make_spec, ADV
        amp = math.sqrt(1.0 - 1e-6)
        spec = make_spec(
            sigma={"a"}, t={"1"}, states={"q"}, q0="q", q_acc=(), q_rej=(),
            entries=[("q", s, tau, "q", ADV, (tau,), amp)
                     for s in ("#", "$", "a") for tau in ("Z0", "1")],
        )
        path = tmp_path / "lossy.json"
        save_qpa(spec, path)
        assert main(["check", str(path)]) == 2
        capsys.readouterr()
        monkeypatch.setenv("QPAKIT_TOLERANCE", "1e-3")
        assert main(["check", str(path)]) == 0
        # explicit flag beats the environment
        assert main(["check", str(path), "--tolerance", "1e-9"]) == 2

    def test_env_json_output(self, files, capsys, monkeypatch):
        monkeypatch.setenv("QPAKIT_OUTPUT", "json")
        assert main(["run", files["l1"], "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["decision"] == "accepted"


def _scaled_l5(path, factor=0.9):
    """l5 with every amplitude multiplied by ``factor``: columns and rows lose mass."""
    from qpakit.model import format_amplitude, parse_amplitude
    doc = json.loads(qpa_dumps(zoo.fixture_specs()["l5"]))
    for t in doc["transitions"]:
        t["amp"] = format_amplitude(factor * parse_amplitude(t["amp"]))
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestToleranceArguments:
    BAD = ["nan", "inf", "-1", "-inf", "abc"]

    def _argv(self, command, files, tmp_path):
        return {
            "check": ["check", files["l2"]],
            "compile-dfa": ["compile-dfa", files["dfa"], str(tmp_path / "out.json")],
            "matrix": ["matrix", files["l2"], "--radius", "1", "--verify"],
        }[command]

    @pytest.mark.parametrize("command", ["check", "compile-dfa", "matrix"])
    @pytest.mark.parametrize("value", BAD)
    def test_bad_flag_exits_three(self, command, value, files, tmp_path, capsys):
        assert main(self._argv(command, files, tmp_path) + [f"--tolerance={value}"]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--tolerance" in err
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("command", ["check", "compile-dfa", "matrix"])
    @pytest.mark.parametrize("value", BAD)
    def test_bad_environment_exits_three(self, command, value, files, tmp_path, capsys,
                                         monkeypatch):
        monkeypatch.setenv("QPAKIT_TOLERANCE", value)
        assert main(self._argv(command, files, tmp_path)) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "QPAKIT_TOLERANCE" in err

    def test_flag_wins_over_bad_environment(self, files, capsys, monkeypatch):
        monkeypatch.setenv("QPAKIT_TOLERANCE", "nan")
        assert main(["check", files["l2"], "--tolerance", "1e-9"]) == 0

    def test_zero_tolerance_accepted(self, files, capsys):
        assert main(["check", files["l2"], "--tolerance", "0"]) == 0
        assert main(["check", files["nonunitary"], "--tolerance", "0"]) == 2


class TestNonFiniteTables:
    def test_nan_amplitude_exits_three(self, tmp_path, capsys):
        doc = json.loads(qpa_dumps(zoo.fixture_specs()["l5"]))
        doc["transitions"][0]["amp"] = "nan"
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["check", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "non-finite amplitude" in err


class TestSimplifiedSummary:
    def test_scaled_l5_counts_every_violation(self, tmp_path, capsys):
        path = _scaled_l5(tmp_path / "l5-scaled.json")
        assert main(["check", path, "--simplified", "--json"]) == 2
        doc = json.loads(capsys.readouterr().out)
        jsonschema.validate(doc, CHECK_SCHEMA)
        assert doc["suite"] == "simplified"
        assert doc["total_violations"] == 960
        by_id = {c["condition"]: c for c in doc["conditions"]}
        assert list(by_id) == ["LPC2", "OCV2", "RVN2", "SEP_a", "SEP_b"]
        assert by_id["LPC2"]["violations"] == 240
        assert by_id["RVN2"]["violations"] == 720
        assert len(by_id["RVN2"]["witnesses"]) == 100
        for cid in ("OCV2", "SEP_a", "SEP_b"):
            assert by_id[cid]["passed"] and by_id[cid]["violations"] == 0
        assert doc["worst_residual"] == pytest.approx(0.19)

    def test_simplified_flag_matches_default_on_a_simplified_table(self, tmp_path, capsys):
        path = _scaled_l5(tmp_path / "l5-scaled.json")
        main(["check", path, "--json"])
        default = capsys.readouterr().out
        main(["check", path, "--simplified", "--json"])
        assert capsys.readouterr().out == default

    def test_compile_dfa_reports_uncapped_total(self, files, tmp_path, capsys, monkeypatch):
        import qpakit.cli as cli
        broken = load_qpa(_scaled_l5(tmp_path / "l5-scaled.json"))
        monkeypatch.setattr(cli, "compile_dfa", lambda dfa: broken)
        assert main(["compile-dfa", files["dfa"], str(tmp_path / "out.json")]) == 3
        assert "failed 960 condition checks" in capsys.readouterr().err


class TestFieldTypeErrors:
    @pytest.mark.parametrize("edit", [
        lambda d: d["transitions"][0].update(amp=1),
        lambda d: d["transitions"][0].update({"from": ["q0"]}),
        lambda d: d.update(name=5),
    ])
    def test_check_exits_three_with_one_line(self, edit, tmp_path, capsys):
        doc = json.loads(qpa_dumps(zoo.fixture_specs()["l2"]))
        edit(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["check", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "must be a string" in captured.err

    def test_direction_for_undeclared_state(self, tmp_path, capsys):
        doc = json.loads(qpa_dumps(zoo.fixture_specs()["l2"]))
        doc["direction"]["ghost"] = "stay"
        path = tmp_path / "ghost.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["check", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "undeclared states ['ghost']" in captured.err


class TestStepBudgetArgument:
    def test_negative_max_steps_run(self, files, capsys):
        assert main(["run", files["l2"], "ab", "--max-steps", "-1"]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "max_steps" in err

    def test_negative_max_steps_batch(self, files, tmp_path, capsys):
        words = tmp_path / "words.txt"
        words.write_text("ab\naabb\n", encoding="utf-8")
        assert main(["batch", files["l2"], str(words), "--max-steps", "-1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1

    @pytest.mark.parametrize("flag", [["--max-steps", "-1"], ["--threshold", "2"],
                                      ["--threshold", "0.5"], ["--threshold", "nan"]])
    def test_batch_refuses_bad_flags_with_or_without_words(self, files, tmp_path, capsys, flag):
        errors = []
        for text in ("", "ab\n"):
            words = tmp_path / "words.txt"
            words.write_text(text, encoding="utf-8")
            assert main(["batch", files["l2"], str(words), *flag]) == 3
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.count("\n") == 1
            errors.append(captured.err)
        assert errors[0] == errors[1]

    def test_trace_runs_recognition_once(self, files, capsys, monkeypatch):
        import qpakit.evolve as evolve
        loops = []
        original = evolve._steps

        def counted(*args, **kwargs):
            loops.append(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(evolve, "_steps", counted)
        assert main(["run", files["l2"], "aabb", "--trace", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert loops == ["aabb"]
        assert doc["steps"] == len(doc["trace"]) == 6

    def test_trace_with_zero_steps(self, files, capsys):
        assert main(["run", files["l2"], "ab", "--trace", "--json", "--max-steps", "0"]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["trace"] == [] and doc["steps"] == 0 and doc["p_nonhalt"] == 1.0
        assert doc["halted"] is False


# The exit-3 contract: every failure, whatever the command, is exit 3 and
# one ``error:`` line on stderr.  {src} is an unreadable input, {dst} an
# output that cannot be written; the other names are good files.
READS = ["check {src}", "run {src} ab", "batch {src} {words}", "compile-dfa {src} {out}",
         "matrix {src} --word ab --radius 1"]
WRITES = ["batch {l2} {words} --csv-out {dst}", "compile-dfa {dfa} {dst}",
          "matrix {l2} --word ab --radius 1 --dump {dst}", "zoo export l2 {dst}"]
USAGE = ["", "check", "check {l2} --bogus", "run {l2} ab --max-steps abc", "batch {l2}",
         "compile-dfa {dfa}", "matrix {l2} --radius abc", "zoo", "zoo list extra", "zoo export"]
ERROR_COMMANDS = (
    [t.replace("{src}", "{%s}" % src) for t in READS
     for src in ("missing", "directory", "non_utf8", "deep")]
    + ["batch {l2} {missing}", "batch {l2} {directory}", "batch {l2} {non_utf8}"]
    + [t.replace("{dst}", "{%s}" % dst) for t in WRITES for dst in ("unwritable", "directory")]
    + USAGE)


@pytest.fixture(scope="module")
def bad(files, tmp_path_factory):
    root = tmp_path_factory.mktemp("bad")
    (root / "non_utf8.json").write_bytes(b'\xff{"kind": "general"}')
    (root / "deep.json").write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    (root / "words.txt").write_text("ab\n", encoding="utf-8")
    return {
        **files,
        "missing": str(root / "missing.json"),
        "directory": str(root),
        "non_utf8": str(root / "non_utf8.json"),
        "deep": str(root / "deep.json"),
        "unwritable": str(root / "no" / "such" / "dir" / "out.json"),
        "words": str(root / "words.txt"),
        "out": str(root / "out.json"),
    }


class TestErrorBoundary:
    @pytest.mark.parametrize("template", ERROR_COMMANDS)
    def test_exits_three_with_one_error_line(self, template, bad, capsys):
        assert main(template.format_map(bad).split()) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["", "check", "run", "batch", "compile-dfa", "matrix",
                                         "zoo", "zoo export"])
    def test_help_exits_zero(self, command, capsys):
        with pytest.raises(SystemExit) as info:
            main([*command.split(), "--help"])
        assert info.value.code == 0
        assert "usage: qpakit" in capsys.readouterr().out

    def test_module_entry_point_exits_three_on_a_usage_error(self):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-m", "qpakit", "run"], env=env,
                             capture_output=True, text=True, timeout=120)
        assert (out.returncode, out.stdout) == (3, "")
        assert out.stderr == "error: qpakit run: the following arguments are required: file, word\n"

    def test_run_checks_the_threshold_before_it_recognizes(self, files, capsys, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("recognized before the threshold was checked")
        monkeypatch.setattr("qpakit.cli._fold", unreachable)
        assert main(["run", files["l2"], "ab" * 50000, "--threshold", "2"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: threshold must lie in (0.5, 1]") and err.count("\n") == 1, err

    def test_long_bad_word_gives_a_bounded_message(self, files, tmp_path, capsys):
        words = tmp_path / "long.words"
        words.write_text("x" * 50000 + "\n", encoding="utf-8")
        assert main(["batch", files["l2"], str(words)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert len(err.encode()) <= 200 and err.endswith(" at position 0\n"), err
