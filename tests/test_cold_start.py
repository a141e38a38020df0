"""Cold start: a command runs only the qpakit modules it uses, numpy loads only with the matrix
lab, scipy never loads, and the commands that need no numpy load neither ``dataclasses`` nor
``inspect``."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qpakit
from qpakit import zoo
from qpakit.io import save_dfa, save_qpa
from qpakit.model import DfaSpec

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

# Runs one command in a fresh interpreter, then reports its exit code, which
# of the heavy modules it left loaded, and which of dataclasses, inspect and
# the qpakit submodules it ran (exec puts __builtins__ in a namespace), as the
# last line of stderr.
CHILD = """\
import json, sys
from qpakit.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, sorted(m for m in ("numpy", "scipy") if m in sys.modules),
                  sorted(m for m, mod in sys.modules.items()
                         if m in ("dataclasses", "inspect") or m.startswith("qpakit.") and "__builtins__" in vars(mod))]),
      file=sys.stderr)
"""

MATRIXLAB_NAMES = [
    "ConfigWindow", "TruncatedMatrix", "UnitarityReport", "WindowCapError",
    "build_matrix", "check_truncated_unitarity", "enumerate_window",
]
# the banded-matrix probes of acceptance criterion 7, which live in tests/conftest.py
TEST_SIDE_NAMES = ["banded_associativity_probe", "row_norm_bound_probe", "rows_pairwise_orthogonal_deviation",
                   "shift_fixture"]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cold")
    for name in ("l2", "l5"):
        save_qpa(zoo.fixture_specs()[name], root / f"{name}.json")
    save_dfa(DfaSpec(states=frozenset({"s"}), sigma=frozenset({"a"}), q0="s", finals=frozenset({"s"}),
                     trans={("s", "a"): "s"}), root / "dfa.json")
    (root / "words.txt").write_text("ab\naabb\nba\n", encoding="utf-8")
    return root


def _python(code, *argv, cwd=None):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code, *argv], cwd=cwd, env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out


def _run_fresh(workdir, *argv):
    out = _python(CHILD, *argv, cwd=workdir)
    code, heavy, _ = json.loads(out.stderr.splitlines()[-1])
    return code, heavy, out.stdout


@pytest.mark.parametrize("argv", [
    ["check", "l5.json"],
    ["run", "l2.json", "aabb"],
    ["batch", "l2.json", "words.txt"],
    ["compile-dfa", "dfa.json", "compiled.json"],
    ["zoo", "list"],
], ids=lambda argv: argv[0])
def test_command_loads_neither_numpy_nor_scipy(workdir, argv):
    code, heavy, _ = _run_fresh(workdir, *argv)
    assert code == 0
    assert heavy == []


def test_matrix_loads_numpy_and_still_verifies(workdir):
    code, heavy, stdout = _run_fresh(workdir, "matrix", "l2.json", "--word", "ab", "--radius", "2",
                                     "--verify", "--json")
    assert code == 0
    assert heavy == ["numpy"]
    assert json.loads(stdout)["verify"]["passed"] is True


@pytest.mark.parametrize("argv, ran", [
    (["check", "l5.json"], ["cli", "io", "model", "wellformed"]),
    (["run", "l2.json", "aabb"], ["cli", "evolve", "io", "model", "wellformed"]),
    (["batch", "l2.json", "words.txt"], ["cli", "evolve", "io", "model", "wellformed"]),
    (["compile-dfa", "dfa.json", "compiled.json"], ["cli", "dfa2rpa", "io", "model", "wellformed"]),
    (["zoo", "list"], ["cli", "io", "model", "zoo"]),
], ids=["check", "run", "batch", "compile-dfa", "zoo"])
def test_command_runs_only_the_modules_it_uses(workdir, argv, ran):
    # neither dataclasses nor inspect, and of qpakit only what the command calls
    out = _python(CHILD, *argv, cwd=workdir)
    code, _, executed = json.loads(out.stderr.splitlines()[-1])
    assert code == 0
    assert executed == [f"qpakit.{m}" for m in ran]


class TestLazyNames:
    @pytest.mark.parametrize("name", MATRIXLAB_NAMES)
    def test_name_is_the_matrixlab_object(self, name):
        import qpakit.matrixlab
        namespace = {}
        exec(f"from qpakit import {name}", namespace)
        assert getattr(qpakit, name) is getattr(qpakit.matrixlab, name)
        assert namespace[name] is getattr(qpakit.matrixlab, name)
        assert name in dir(qpakit)

    def test_the_probes_are_not_package_names(self):
        import qpakit.matrixlab
        assert sorted(qpakit._NAMES["matrixlab"].split()) == MATRIXLAB_NAMES
        for name in TEST_SIDE_NAMES:
            assert not hasattr(qpakit, name) and name not in dir(qpakit), name
            assert not hasattr(qpakit.matrixlab, name), name

    def test_first_use_loads_the_matrix_lab(self):
        _python("import sys\n"
                "import qpakit\n"
                "assert 'numpy' not in sys.modules and 'scipy' not in sys.modules\n"
                "assert sys.modules['qpakit.matrixlab'] is qpakit.matrixlab\n"
                "import qpakit.matrixlab\n"
                "assert 'numpy' not in sys.modules\n"
                "assert qpakit.build_matrix is sys.modules['qpakit.matrixlab'].build_matrix\n"
                "assert 'numpy' in sys.modules and 'scipy' not in sys.modules\n")

    def test_no_call_loads_scipy(self):
        _python("import sys\n"
                "from qpakit import zoo\n"
                "from qpakit.matrixlab import build_matrix, check_truncated_unitarity, enumerate_window\n"
                "from conftest import (banded_associativity_probe, row_norm_bound_probe,\n"
                "    rows_pairwise_orthogonal_deviation, shift_fixture)\n"
                "spec = zoo.fixture_specs()['l5']\n"
                "m = build_matrix(spec, enumerate_window(spec, 'abc', 2))\n"
                "assert check_truncated_unitarity(m).passed\n"
                "assert abs(row_norm_bound_probe(m) - 1.0) < 1e-9\n"
                "assert rows_pairwise_orthogonal_deviation(m) < 1e-9\n"
                "s = shift_fixture(50)\n"
                "assert banded_associativity_probe(s, s, s) < 1e-12\n"
                "assert 'numpy' in sys.modules and 'scipy' not in sys.modules\n", cwd=TESTS)

    def test_concurrent_first_use(self):
        # every thread must see the whole module run, however the first uses interleave;
        # evolve loads io, model and wellformed while it runs, and defines TapeOverrunError early
        _python("import sys, threading, time\n"
                "import qpakit\n"
                "sys.setswitchinterval(1e-6)\n"
                "for owner, names in ((qpakit.evolve, ['recognize', 'TapeOverrunError']),\n"
                "                     (qpakit.matrixlab, ['build_matrix', 'WindowCapError'])):\n"
                "    got, errors, start = [], [], threading.Barrier(8)\n"
                "    def use(k):\n"
                "        start.wait(60)\n"
                "        try:\n"
                "            name = names[k % 2]\n"
                "            got.append((name, getattr(qpakit if k % 4 < 2 else owner, name), len(vars(owner))))\n"
                "        except Exception as exc:\n"
                "            errors.append(repr(exc))\n"
                "    threads = [threading.Thread(target=use, args=(k,), daemon=True) for k in range(8)]\n"
                "    for t in threads:\n"
                "        t.start()\n"
                "    deadline = time.monotonic() + 60\n"
                "    for t in threads:\n"
                "        t.join(max(0, deadline - time.monotonic()))\n"
                "    assert not any(t.is_alive() for t in threads), names\n"
                "    assert errors == [], errors\n"
                "    assert len(got) == 8 and all(f is getattr(owner, name) for name, f, _ in got)\n"
                "    assert [n for *_, n in got] == [len(vars(owner))] * 8, got\n")

    def test_each_public_name_is_owned_by_its_listed_module(self):
        for module, names in qpakit._NAMES.items():
            for name in names.split():
                assert getattr(qpakit, name).__module__ == f"qpakit.{module}", name
        assert qpakit.ParseError is qpakit.io.ParseError

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError, match="no attribute 'build_matrices'"):
            qpakit.build_matrices
        assert not hasattr(qpakit, "numpy")
