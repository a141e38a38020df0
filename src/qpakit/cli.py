"""Command-line surface: check, run, batch, compile-dfa, matrix, zoo.

Exit codes 0-2 are verdicts, per command:

    check        0 all conditions pass, 2 violations
    run          0 accepted, 1 rejected, 2 inconclusive
    batch        0 all rows completed
    compile-dfa  0 compiled and verified
    matrix       0 within tolerance, 2 deviations
    zoo          0 ok

Every failure exits 3 with one ``error: <message>`` line on stderr: a
usage error, a missing, non-UTF-8, too deeply nested or malformed input,
an unwritable output, a bad tolerance.  ``QPAKIT_TOLERANCE`` and
``QPAKIT_OUTPUT`` provide environment defaults; explicit flags always
win.  Rerunning a command on the same inputs produces byte-identical
json/csv output.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from contextlib import nullcontext
from pathlib import Path

from . import matrixlab, zoo
from .dfa2rpa import compile_dfa
from .evolve import (_fold, check_max_steps, check_threshold, decide, next_above_half,
                     recognize, result_to_dict, trace_to_dict)
from .io import load_dfa, load_qpa, save_qpa, qpa_dumps
from .model import QpaError, validate_structure
from .wellformed import DEFAULT_TOL, check_all, summary_to_dict

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_VIOLATIONS = 2
EXIT_ERROR = 3

RUN_SCHEMA = {
    "type": "object",
    "required": ["word", "p_accept", "p_reject", "p_nonhalt", "steps", "halted", "decision"],
    "properties": {
        "word": {"type": "string"},
        "p_accept": {"type": "number", "minimum": 0, "maximum": 1.0000001},
        "p_reject": {"type": "number", "minimum": 0, "maximum": 1.0000001},
        "p_nonhalt": {"type": "number", "minimum": 0, "maximum": 1.0000001},
        "steps": {"type": "integer", "minimum": 0},
        "halted": {"type": "boolean"},
        "decision": {"enum": ["accepted", "rejected", "inconclusive"]},
        "trace": {"type": "array"},
    },
    "additionalProperties": False,
}

CHECK_SCHEMA = {
    "type": "object",
    "required": ["suite", "tolerance", "passed", "worst_residual", "total_violations", "conditions"],
    "properties": {
        "suite": {"enum": ["general", "simplified"]},
        "tolerance": {"type": "number"},
        "passed": {"type": "boolean"},
        "worst_residual": {"type": "number"},
        "total_violations": {"type": "integer"},
        "conditions": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["condition", "passed", "worst_residual", "violations", "witnesses"],
                "properties": {
                    "condition": {"type": "string"},
                    "passed": {"type": "boolean"},
                    "worst_residual": {"type": "number"},
                    "violations": {"type": "integer"},
                    "witnesses": {"type": "array"},
                },
                "additionalProperties": False,
            },
        },
    },
    "additionalProperties": False,
}

MATRIX_SCHEMA = {
    "type": "object",
    "required": ["dim", "word", "radius"],
    "properties": {
        "dim": {"type": "integer"},
        "word": {"type": "string"},
        "radius": {"type": "integer"},
        "verify": {"type": "object"},
        "matrix": {"type": "object"},
    },
    "additionalProperties": False,
}


def _tolerance(flag: str | None, fallback: float) -> float:
    """The ``--tolerance`` flag, else ``QPAKIT_TOLERANCE``, else the fallback.

    Raises ValueError unless the value is a finite number >= 0.
    """
    if flag is not None:
        source, raw = "--tolerance", flag
    else:
        source, raw = "QPAKIT_TOLERANCE", os.environ.get("QPAKIT_TOLERANCE")
    if raw is None:
        return fallback
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{source} must be a finite number >= 0, got {raw!r}")
    return value


def _emit(doc, as_json: bool, human_lines) -> None:
    if as_json:
        print(json.dumps(doc, indent=2, sort_keys=False))
    else:
        for line in human_lines:
            print(line)


def _want_json(args) -> bool:
    if args.json:
        return True
    return os.environ.get("QPAKIT_OUTPUT", "").strip().lower() == "json"


def cmd_check(args) -> int:
    spec = load_qpa(args.file)
    tol = _tolerance(args.tolerance, DEFAULT_TOL)
    summary = check_all(spec, tol=tol, suite="simplified" if args.simplified else None)
    doc = summary_to_dict(summary)
    lines = []
    for cond in doc["conditions"]:
        status = "pass" if cond["passed"] else "FAIL"
        lines.append(
            f"{cond['condition']:6s} {status}  worst residual {cond['worst_residual']:.3e}"
            f"  violations {cond['violations']}")
        for w in cond["witnesses"][:3]:
            lines.append(f"       witness {w['witness']}  residual {w['residual']:.3e}")
    lines.append("result: " + ("well-formed" if summary.passed else "NOT well-formed"))
    _emit(doc, _want_json(args), lines)
    return EXIT_OK if summary.passed else EXIT_VIOLATIONS


def cmd_run(args) -> int:
    spec = load_qpa(args.file)
    check_threshold(args.threshold)
    steps = [] if args.trace else None
    result = _fold(spec, args.word, max_steps=args.max_steps, force=args.force, trace_out=steps)
    verdict = decide(result, args.threshold)
    doc = {"word": args.word, **result_to_dict(result), "decision": verdict}
    lines = [
        f"word      {args.word!r}",
        f"p_accept  {result.p_accept:.12f}",
        f"p_reject  {result.p_reject:.12f}",
        f"p_nonhalt {result.p_nonhalt:.3e}",
        f"steps     {result.steps}  halted={result.halted}",
        f"decision  {verdict}",
    ]
    if steps is not None:
        doc["trace"] = trace_to_dict(steps)
        for s in steps:
            lines.append(f"  step {s.step}: +acc {s.p_accept_inc:.6f} +rej {s.p_reject_inc:.6f} "
                         f"residual {s.residual_norm_squared:.6f} ({len(s.entries)} configs)")
    _emit(doc, _want_json(args), lines)
    return {"accepted": EXIT_OK, "rejected": EXIT_REJECTED, "inconclusive": EXIT_VIOLATIONS}[verdict]


def cmd_batch(args) -> int:
    spec = load_qpa(args.file)
    check_max_steps(args.max_steps)
    check_threshold(args.threshold)
    words = Path(args.words).read_text(encoding="utf-8").splitlines()
    rows = []
    for word in words:
        result = recognize(spec, word, max_steps=args.max_steps, force=args.force)
        rows.append((word, result, decide(result, args.threshold)))
    out_path = args.csv_out
    with (open(out_path, "w", newline="", encoding="utf-8") if out_path
          else nullcontext(sys.stdout)) as handle:
        writer = csv.writer(handle)
        writer.writerow(["word", "p_accept", "p_reject", "p_nonhalt", "steps", "halted", "decision"])
        for word, result, verdict in rows:
            writer.writerow([
                word, repr(result.p_accept), repr(result.p_reject), repr(result.p_nonhalt),
                result.steps, result.halted, verdict,
            ])
    if out_path:
        print(f"wrote {len(rows)} rows to {out_path}")
    return EXIT_OK


def cmd_compile_dfa(args) -> int:
    tol = _tolerance(args.tolerance, DEFAULT_TOL)
    rpa = compile_dfa(load_dfa(args.infile))
    summary = check_all(rpa, tol=tol, suite="simplified")
    if not summary.passed:
        raise QpaError(f"compiled table failed {summary.total_violations} condition checks")
    structural = validate_structure(rpa)
    if structural:
        raise QpaError(f"compiled table has {len(structural)} structure violations")
    save_qpa(rpa, args.outfile)
    print(f"compiled {len(rpa.states)}-state reversible automaton to {args.outfile}")
    return EXIT_OK


def cmd_matrix(args) -> int:
    spec = load_qpa(args.file)
    tol = _tolerance(args.tolerance, matrixlab.DEFAULT_MATRIX_TOL)
    window = matrixlab.enumerate_window(spec, args.word, args.radius)
    matrix = matrixlab.build_matrix(spec, window)
    doc = {"dim": matrix.dim, "word": args.word, "radius": args.radius}
    lines = [f"window: {matrix.dim} configurations "
             f"({len(matrix.interior_cols)} interior columns, {len(matrix.interior_rows)} interior rows)"]
    code = EXIT_OK
    if args.verify:
        report = matrixlab.check_truncated_unitarity(matrix, tol=tol)
        doc["verify"] = {
            "col_deviation": report.col_deviation,
            "row_deviation": report.row_deviation,
            "tolerance": report.tolerance,
            "passed": report.passed,
        }
        lines.append(f"interior column deviation {report.col_deviation:.3e}")
        lines.append(f"interior row deviation    {report.row_deviation:.3e}")
        lines.append("verdict: " + ("unitary within tolerance" if report.passed else "NOT unitary"))
        if not report.passed:
            code = EXIT_VIOLATIONS
    if args.dump:
        doc["matrix"] = matrixlab.matrix_to_dict(matrix)
        if args.dump != "-":
            Path(args.dump).write_text(json.dumps(doc["matrix"], indent=2) + "\n", encoding="utf-8")
            lines.append(f"dumped matrix to {args.dump}")
        else:
            lines.append(matrixlab.matrix_to_text(matrix))
    _emit(doc, _want_json(args), lines)
    return code


def cmd_zoo(args) -> int:
    specs = zoo.fixture_specs()
    if args.zoo_cmd == "list":
        entries = zoo.entries()
        for name in sorted(specs):
            spec = specs[name]
            if name in entries:
                claimed = f"{entries[name].claimed_probability:.6f}"
                desc = entries[name].description
            else:
                claimed = "-"
                desc = "column-isometric but not unitary"
            print(f"{name:12s} {len(spec.states):3d} states  kind={spec.kind:10s} "
                  f"claimed p={claimed}  {desc}")
        return EXIT_OK
    name = args.name
    if name not in specs:
        raise QpaError(f"unknown fixture {name!r}; have {sorted(specs)}")
    text = qpa_dumps(specs[name])
    if args.outfile:
        Path(args.outfile).write_text(text, encoding="utf-8")
        print(f"wrote {name} to {args.outfile}")
    else:
        print(text, end="")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise QpaError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="qpakit", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--json", action="store_true", help="machine-readable output")

    sp = sub.add_parser("check", help="verify the well-formedness conditions")
    sp.add_argument("file")
    sp.add_argument("--simplified", action="store_true",
                    help="force the simplified suite regardless of kind")
    sp.add_argument("--tolerance", default=None)
    add_common(sp)
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("run", help="recognize one word")
    sp.add_argument("file")
    sp.add_argument("word")
    sp.add_argument("--max-steps", type=int, default=None)
    sp.add_argument("--threshold", type=float, default=next_above_half())
    sp.add_argument("--trace", action="store_true")
    sp.add_argument("--force", action="store_true",
                    help="run even if the table is not well-formed")
    add_common(sp)
    sp.set_defaults(fn=cmd_run)

    sp = sub.add_parser("batch", help="recognize one word per line, emit CSV")
    sp.add_argument("file")
    sp.add_argument("words")
    sp.add_argument("--csv-out", default=None)
    sp.add_argument("--max-steps", type=int, default=None)
    sp.add_argument("--threshold", type=float, default=next_above_half())
    sp.add_argument("--force", action="store_true")
    sp.set_defaults(fn=cmd_batch)

    sp = sub.add_parser("compile-dfa", help="compile a DFA into a reversible automaton")
    sp.add_argument("infile")
    sp.add_argument("outfile")
    sp.add_argument("--tolerance", default=None)
    sp.set_defaults(fn=cmd_compile_dfa)

    sp = sub.add_parser("matrix", help="build and inspect a truncated evolution matrix")
    sp.add_argument("file")
    sp.add_argument("--word", default="")
    sp.add_argument("--radius", type=int, default=3)
    sp.add_argument("--verify", action="store_true")
    sp.add_argument("--dump", default=None, metavar="PATH",
                    help="write the matrix as JSON; '-' prints a text grid")
    sp.add_argument("--tolerance", default=None)
    add_common(sp)
    sp.set_defaults(fn=cmd_matrix)

    sp = sub.add_parser("zoo", help="list or export the bundled automata")
    zsub = sp.add_subparsers(dest="zoo_cmd", required=True)
    zl = zsub.add_parser("list")
    zl.set_defaults(fn=cmd_zoo)
    ze = zsub.add_parser("export")
    ze.add_argument("name")
    ze.add_argument("outfile", nargs="?", default=None)
    ze.set_defaults(fn=cmd_zoo)

    return p


def main(argv=None) -> int:
    """Run one command; every failure is one ``error:`` line on stderr and exit 3."""
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (OSError, ValueError, QpaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
