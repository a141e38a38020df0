"""The four workloads: their seeded inputs, operations, oracles and layer metrics.

A workload's ``setup`` builds one round of operations from the seed; the
timed loop repeats whole rounds.  Every operation returns what the program
produced and is checked by a function from ``oracles``.  Functions of the
program are always reached through their module (``qio.qpa_loads``), so the
tracer's wrappers see every call.
"""
from __future__ import annotations

import json
import math
import os
import random
import resource
import subprocess
import sys
from dataclasses import dataclass
from itertools import product
from statistics import median
from time import perf_counter
from typing import Callable

import qpakit.dfa2rpa as qdfa
import qpakit.evolve as qev
import qpakit.io as qio
import qpakit.matrixlab as qmx
import qpakit.model as qmodel
import qpakit.wellformed as qwf
import qpakit.zoo as qzoo

import oracles as orc

SCALE = 0.9            # every amplitude of l5 times this: LPC2/RVN2 fail by 1 - 0.81


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], list]
    known_fault: bool = False


def random_dfa(rng: random.Random, n: int, alphabet: str) -> dict:
    """A total DFA document with n states, random moves and random finals."""
    states = [f"s{i}" for i in range(n)]
    finals = [q for q in states if rng.random() < 0.5] or [rng.choice(states)]
    return {
        "states": states, "alphabet": list(alphabet), "initial": "s0", "finals": finals,
        "transitions": [{"from": q, "input": a, "to": rng.choice(states)}
                        for q in states for a in alphabet],
    }


def sizes(doc: dict) -> tuple[int, int, int]:
    """|Q|, |Γ| (input symbols plus both markers), |Δ| (stack symbols plus Z0)."""
    return len(doc["states"]), len(doc["input_alphabet"]) + 2, len(doc["stack_alphabet"]) + 1


def summary_report(summary) -> dict:
    return {
        "conditions": {r.condition_id: {"violations": r.violations, "passed": r.passed}
                       for r in summary.results},
        "worst": summary.worst_residual,
        "passed": summary.passed,
    }


def result_dict(r) -> dict:
    return {"p_accept": r.p_accept, "p_reject": r.p_reject, "p_nonhalt": r.p_nonhalt,
            "steps": r.steps, "halted": r.halted}


def zoo_docs() -> dict[str, dict]:
    return {name: json.loads(qio.qpa_dumps(spec)) for name, spec in qzoo.fixture_specs().items()}


def scaled_doc(doc: dict, factor: float) -> dict:
    out = json.loads(json.dumps(doc))
    for t in out["transitions"]:
        t["amp"] = qmodel.format_amplitude(factor * qmodel.parse_amplitude(t["amp"]))
    return out


def general_doc(doc: dict) -> dict:
    return {**doc, "kind": "general"}


def nan_doc(doc: dict) -> dict:
    """The general view with the amplitude of the first stored entry set to NaN."""
    out = json.loads(json.dumps(general_doc(doc)))
    out["transitions"][0]["amp"] = "nan"
    return out


class Workload:
    name = ""
    tail_pct = 90          # percentile reported as op_tail_ms

    def __init__(self, seed: int, root, work_dir, tracer=None):
        self.rng = random.Random(seed)
        self.root = root
        self.work_dir = work_dir
        self.tracer = tracer
        self.ops: list[Op] = []

    @property
    def min_ops(self) -> int:
        """Enough operations that ten lie beyond the tail percentile."""
        return math.ceil(10 / (1 - self.tail_pct / 100))

    def after_op(self, op: Op, result) -> None:
        """Extra traced calls made after an operation, outside its timing."""

    def layers(self, loop: dict) -> dict:
        raise NotImplementedError


# --- check-tables -------------------------------------------------------------

class CheckTables(Workload):
    """Parse a table from JSON text with qpa_loads and run check_all on the fresh spec."""

    name = "check-tables"
    tail_pct = 93
    DFA_SIZES = [(n, alph) for n in range(2, 8) for alph in ("01", "abc")]

    def setup(self):
        docs = zoo_docs()
        tables = []     # (kind, document, expectation)
        for n, alph in self.DFA_SIZES:
            dfa = qio.dfa_from_dict(random_dfa(self.rng, n, alph))
            doc = json.loads(qio.qpa_dumps(qdfa.compile_dfa(dfa)))
            tables.append((f"dfa{n}x{len(alph)}", doc, orc.unitary_expectation("simplified")))
        for name in ("l1", "l2", "l3", "l5"):
            tables.append((f"{name}.simplified", docs[name], orc.unitary_expectation("simplified")))
            tables.append((f"{name}.general", general_doc(docs[name]), orc.unitary_expectation("general")))
        tables.append(("nonunitary", docs["nonunitary"],
                       orc.nonunitary_expectation(*sizes(docs["nonunitary"]))))
        tables.append(("l5.scaled", scaled_doc(docs["l5"], SCALE),
                       orc.scaled_expectation(*sizes(docs["l5"]), SCALE)))
        nan = nan_doc(docs["l5"])
        ops = [self._check_op(kind, json.dumps(doc), want) for kind, doc, want in tables]
        ops.append(Op("l5.nan", self._nan_run(json.dumps(nan)),
                      lambda r: orc.nonfinite_problems(*r), known_fault=True))
        self.rng.shuffle(ops)
        self.ops = ops
        # (suite, sizes, stored entries) of every table a round checks, the
        # NaN table left out: a mended loader refuses it before any check
        self.round_tables = [
            ("general" if doc["kind"] == "general" else "simplified", sizes(doc), len(doc["transitions"]))
            for _, doc, _ in tables
        ]

    def _check_op(self, kind, text, expected):
        def run():
            spec = qio.qpa_loads(text)
            return spec, qwf.check_all(spec)

        return Op(kind, run, lambda r: orc.check_problems(summary_report(r[1]), expected))

    def _nan_run(self, text):
        def run():
            try:
                spec = qio.qpa_loads(text)
            except (qio.ParseError, qmodel.StructureError) as exc:
                return str(exc), None
            return None, qwf.check_all(spec).passed
        return run

    def after_op(self, op, result):
        """Time the public per-condition checks on a fresh general view."""
        if not (op.kind.endswith(".general") or op.kind == "nonunitary"):
            return
        view = qwf.as_general(result[0])
        # build the index tables the four scans share, outside any span
        self.tracer.originals[("qpakit.wellformed", "check_local_probability")](view)
        qwf.check_local_probability(view)
        qwf.check_column_orthogonality(view)
        qwf.check_row_norm(view)
        qwf.check_separability(view)

    def layers(self, loop):
        tr = self.tracer
        tuples = sum(sum(orc.suite_tuples(suite, *sz).values()) for suite, sz, _ in self.round_tables)
        checks = [(end - start) / 1e9 for name, start, end, _, op in tr.spans
                  if name == "wellformed.check_all" and loop["kinds"][op] != "l5.nan"]
        return {
            "io.loads_ms": 1e3 * median(tr.self_times("io.qpa_loads")),
            "model.validate_ms": 1e3 * median(tr.durations("model.validate_structure")),
            "io.dumps_ms": 1e3 * median(tr.durations("io.qpa_dumps")),
            "model.transitions": sum(n for _, _, n in self.round_tables) / len(self.round_tables),
            "wellformed.check_ms": 1e3 * median(checks),
            "wellformed.tuples": tuples,
            "wellformed.tuples_per_s": tuples * loop["rounds"] / sum(checks),
            "wellformed.lpc_ms": 1e3 * median(tr.durations("wellformed.check_local_probability")),
            "wellformed.ocv_ms": 1e3 * median(tr.durations("wellformed.check_column_orthogonality")),
            "wellformed.rvn_ms": 1e3 * median(tr.durations("wellformed.check_row_norm")),
            "wellformed.sep_ms": 1e3 * median(tr.durations("wellformed.check_separability")),
            "dfa2rpa.compile_ms": 1e3 * median(tr.durations("dfa2rpa.compile_dfa")),
        }


# --- deep-runs ----------------------------------------------------------------

class DeepRuns(Workload):
    """One recognize call per operation, on specs loaded and checked in set-up."""

    name = "deep-runs"
    tail_pct = 93
    LENGTHS = (30, 90, 270, 810, 2430)      # one length class each, log-spaced
    MIX = {"l2": 2, "l3": 3, "l5": 3, "dfa": 2}

    def setup(self):
        zoo = qzoo.fixture_specs()
        runs = []       # (kind, spec, word, exact p_accept, steps or None)
        for k, length in enumerate(self.LENGTHS):
            n2, n3 = length // 2, length // 3
            for m in (n2, n2 + 1, n2 - 1)[: self.MIX["l2"]]:
                w = "a" * n2 + "b" * m
                runs.append((f"l2.{k}", zoo["l2"], w, orc.l2_accept_probability(w), len(w) + 2))
            for name, prob in (("l3", orc.l3_accept_probability), ("l5", orc.l5_accept_probability)):
                for m in (n3 - 1, n3, n3 + 1)[: self.MIX[name]]:
                    w = "a" * n3 + "b" * n3 + "c" * m
                    runs.append((f"{name}.{k}", zoo[name], w, prob(w), None))
            for _ in range(self.MIX["dfa"]):
                doc = random_dfa(self.rng, 3, "01")
                spec = qdfa.compile_dfa(qio.dfa_from_dict(doc))
                w = "".join(self.rng.choice("01") for _ in range(length))
                runs.append((f"dfa.{k}", spec, w, orc.dfa_accept_probability(doc, w), len(w) + 2))
        for _, spec, _, _, _ in runs:
            qwf.check_all(spec)     # the one-time check recognize relies on
        self.steps = {}
        self.ops = [self._run_op(*r) for r in runs]
        self.rng.shuffle(self.ops)
        self.evolved = {"steps": 0, "support": 0, "max_stack": 0}
        if self.tracer is not None:
            self.tracer.observers["evolve.apply_evolution"] = self._observe

    def _run_op(self, kind, spec, word, expected, steps):
        def check(r):
            self.steps[kind] = r.steps
            return orc.recognition_problems(result_dict(r), expected, steps)

        return Op(kind, lambda: qev.recognize(spec, word), check)

    def _observe(self, psi):
        ev = self.evolved
        ev["steps"] += 1
        ev["support"] += len(psi)
        ev["max_stack"] = max(ev["max_stack"], max((len(c.stack) for c in psi.amplitudes), default=0))

    def layers(self, loop):
        tr = self.tracer
        per_step = {}
        for kind, t in zip(loop["kinds"], loop["times"]):
            per_step.setdefault(int(kind.split(".")[1]), []).append(t / self.steps[kind])
        calls, apply_s = tr.hot_totals("evolve.apply_evolution")
        mcalls, measure_s = tr.hot_totals("evolve.measure")
        ev = self.evolved
        return {
            "evolve.recognize_ms": 1e3 * median(tr.durations("evolve.recognize")),
            "evolve.apply_evolution_us": 1e6 * apply_s / calls,
            "evolve.measure_us": 1e6 * measure_s / mcalls,
            "evolve.step_us.shallow": 1e6 * median(per_step[0]),
            "evolve.step_us.deep": 1e6 * median(per_step[len(self.LENGTHS) - 1]),
            "evolve.steps": ev["steps"] // loop["rounds"],
            "evolve.support": ev["support"] / ev["steps"],
            "evolve.max_stack_depth": ev["max_stack"],
            "zoo.build_ms": 1e3 * tr.durations("zoo.fixture_specs")[0],
        }


# --- window-sweep -------------------------------------------------------------

class WindowSweep(Workload):
    """enumerate_window, build_matrix and check_truncated_unitarity on one triple."""

    name = "window-sweep"
    tail_pct = 92
    # (table, word length, radius), window sizes 16 to 3630.  Eight small
    # windows, five l2 windows of 620 configurations and eight large ones:
    # the median falls inside the l2 cluster.
    TRIPLES = [
        ("nonunitary", 2, 2), ("nonunitary", 4, 4), ("l1", 1, 1), ("l2", 0, 2),
        ("l2", 1, 0), ("dfa3", 1, 1), ("dfa2", 2, 2), ("l3", 1, 1),
        *[("l2", 2, 3)] * 5,
        ("dfa3", 2, 2), ("l3", 4, 2), ("l5", 2, 1), ("dfa2", 4, 4),
        ("l1", 4, 4), ("l3", 3, 3), ("l5", 3, 3), ("dfa3", 3, 3),
    ]

    def setup(self):
        tables = dict(qzoo.fixture_specs())
        for n in (2, 3):
            tables[f"dfa{n}"] = qdfa.compile_dfa(qio.dfa_from_dict(random_dfa(self.rng, n, "01")))
        verdicts = {name: qwf.check_all(spec).passed for name, spec in tables.items()}
        self.dims = []
        ops = []
        for i, (name, length, radius) in enumerate(self.TRIPLES):
            spec = tables[name]
            word = "".join(self.rng.choice(sorted(spec.alphabets.sigma)) for _ in range(length))
            dim = orc.window_size(len(spec.states), length, len(spec.alphabets.t), radius)
            self.dims.append(dim)
            ops.append(self._window_op(f"{name}.{length}.r{radius}.{i}", spec, word, radius, dim,
                                       verdicts[name], name == "nonunitary"))
        self.rng.shuffle(ops)
        self.ops = ops
        self.nnz = {}

    def _window_op(self, kind, spec, word, radius, dim, check_passed, rows_only):
        def run():
            window = qmx.enumerate_window(spec, word, radius)
            matrix = qmx.build_matrix(spec, window)
            return matrix, qmx.check_truncated_unitarity(matrix)

        def check(r):
            matrix, rep = r
            self.nnz[kind] = len(matrix.vals)
            out = [] if matrix.dim == dim else [f"window of {matrix.dim}, expected {dim}"]
            return out + orc.duality_problems(check_passed, rep.col_deviation, rep.row_deviation,
                                              rep.tolerance, rows_only)

        return Op(kind, run, check)

    def layers(self, loop):
        tr = self.tracer
        calls, st_s = tr.hot_totals("evolve.step_targets")
        parts = [tr.durations(f"matrixlab.{f}")
                 for f in ("enumerate_window", "build_matrix", "check_truncated_unitarity")]
        return {
            "evolve.step_targets_calls": calls // loop["rounds"],
            "evolve.step_targets_us": 1e6 * st_s / calls,
            "matrixlab.window_ms": 1e3 * median(parts[0]),
            "matrixlab.build_ms": 1e3 * median(parts[1]),
            "matrixlab.verify_ms": 1e3 * median(parts[2]),
            "matrixlab.configs_per_s": sum(self.dims) * loop["rounds"] / sum(map(sum, parts)),
            "matrixlab.dim": sum(self.dims),
            "matrixlab.nnz": sum(self.nnz.values()),
        }


# --- cli-session --------------------------------------------------------------

def l5_words(max_len: int) -> list[str]:
    return ["".join(p) for n in range(max_len + 1) for p in product("abc", repeat=n)]


class CliSession(Workload):
    """One ``python -m qpakit`` child process per operation, one at a time."""

    name = "cli-session"
    tail_pct = 75

    def setup(self):
        self.python = sys.executable
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("PYTHONPATH", "QPAKIT_OUTPUT", "QPAKIT_TOLERANCE")}
        self.env["PYTHONPATH"] = str(self.root / "src")
        wd = self.work_dir
        docs = zoo_docs()
        files = {name: docs[name] for name in ("l2", "l5", "nonunitary")}
        files["l5-scaled"] = scaled_doc(docs["l5"], SCALE)
        rpa_dfa = random_dfa(self.rng, 4, "01")
        files["rpa"] = json.loads(qio.qpa_dumps(qdfa.compile_dfa(qio.dfa_from_dict(rpa_dfa))))
        for name, doc in files.items():
            (wd / f"{name}.json").write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        self.dfa = random_dfa(self.rng, 3, "ab")
        (wd / "dfa.json").write_text(json.dumps(self.dfa) + "\n", encoding="utf-8")
        self.batch_words = l5_words(6)
        (wd / "words.txt").write_text("\n".join(self.batch_words) + "\n", encoding="utf-8")
        rng = self.rng
        w2 = "a" * rng.randint(0, 6) + "b" * rng.randint(0, 6)
        w5 = "".join(rng.choice("abc") for _ in range(rng.randint(3, 9)))
        wm = "".join(rng.choice("ab") for _ in range(rng.randint(2, 4)))
        dfa_words = ["".join(rng.choice("ab") for _ in range(n)) for n in range(8)]
        n_l2, t_l2 = len(files["l2"]["states"]), len(files["l2"]["stack_alphabet"])
        nonunitary = orc.nonunitary_expectation(*sizes(files["nonunitary"]))
        scaled = orc.scaled_expectation(*sizes(files["l5"]), SCALE)
        p2, p5 = orc.l2_accept_probability(w2), orc.l5_accept_probability(w5)
        ops = [
            self._op("check.l5", ["check", "l5.json"], lambda r: self._exit(r, "check", "well-formed")),
            self._op("check.rpa", ["check", "rpa.json"], lambda r: self._exit(r, "check", "well-formed")),
            self._op("check.nonunitary", ["check", "nonunitary.json", "--json"],
                     lambda r: self._exit(r, "check", "violations")
                     + orc.check_problems(orc.check_json_report(r.stdout), nonunitary)),
            self._op("run.l2", ["run", "l2.json", w2],
                     lambda r: self._exit(r, "run", orc.decision(p2))),
            self._op("run.l5", ["run", "l5.json", w5, "--json"],
                     lambda r: self._exit(r, "run", orc.decision(p5))
                     + orc.recognition_problems(json.loads(r.stdout), p5)),
            self._op("batch.l5", ["batch", "l5.json", "words.txt"],
                     lambda r: self._exit(r, "batch", "ok")
                     + orc.batch_problems(r.stdout, self.batch_words, orc.l5_accept_probability)),
            self._op("matrix.l2", ["matrix", "l2.json", "--word", wm, "--radius", "3", "--verify", "--json"],
                     lambda r: self._exit(r, "matrix", "unitary")
                     + self._dim(r, orc.window_size(n_l2, len(wm), t_l2, 3))),
            self._op("compile-dfa", ["compile-dfa", "dfa.json", "compiled.json"],
                     lambda r: self._exit(r, "compile-dfa", "ok") + orc.compiled_dfa_problems(
                         self.dfa, (wd / "compiled.json").read_text(encoding="utf-8"), dfa_words)),
            self._op("zoo.list", ["zoo", "list"],
                     lambda r: self._exit(r, "zoo", "ok") + self._zoo_names(r)),
            self._op("check-simplified.l5-scaled", ["check", "l5-scaled.json", "--simplified", "--json"],
                     lambda r: self._exit(r, "check", "violations")
                     + orc.check_problems(orc.check_json_report(r.stdout), scaled), known_fault=True),
        ]
        self.rng.shuffle(ops)
        self.ops = ops

    def _op(self, kind, argv, check, known_fault=False):
        cmd = [self.python, "-m", "qpakit", *argv]

        def run():
            return subprocess.run(cmd, cwd=self.work_dir, env=self.env, capture_output=True,
                                  text=True, timeout=120)

        return Op(kind, run, check, known_fault)

    @staticmethod
    def _exit(r, command, outcome):
        return orc.exit_problems(command, outcome, r.returncode)

    @staticmethod
    def _dim(r, dim):
        got = json.loads(r.stdout)
        out = [] if got["dim"] == dim else [f"matrix dim {got['dim']}, expected {dim}"]
        return out + ([] if got["verify"]["passed"] else ["matrix failed its unitarity check"])

    @staticmethod
    def _zoo_names(r):
        names = sorted(line.split()[0] for line in r.stdout.splitlines() if line.strip())
        want = ["l1", "l2", "l3", "l5", "nonunitary"]
        return [] if names == want else [f"zoo list gave {names}"]

    def _child(self, code: str) -> tuple[float, str]:
        t0 = perf_counter()
        r = subprocess.run([self.python, "-c", code], env=self.env, capture_output=True,
                           text=True, timeout=120, check=True)
        return perf_counter() - t0, r.stdout

    def layers(self, loop):
        by_cmd = {}
        for kind, t in zip(loop["kinds"], loop["times"]):
            by_cmd.setdefault(kind.split(".")[0].replace("check-simplified", "check"), []).append(t)
        interp = [self._child("pass")[0] for _ in range(5)]
        imports = [self._child("import sys, time\nt = time.perf_counter()\nimport qpakit\n"
                               "print(time.perf_counter() - t, len(sys.modules))")[1].split()
                   for _ in range(5)]
        return {
            "cli.interpreter_ms": 1e3 * median(interp),
            "cli.import_ms": 1e3 * median(float(i[0]) for i in imports),
            "cli.modules_after_import": int(imports[0][1]),
            **{f"cli.{cmd.replace('-', '_')}_ms": 1e3 * median(ts) for cmd, ts in by_cmd.items()},
            "cli.child_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        }


WORKLOADS = {w.name: w for w in (CheckTables, DeepRuns, WindowSweep, CliSession)}
