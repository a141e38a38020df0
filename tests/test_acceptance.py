"""Acceptance suite: one test per shipped criterion, with pass/fail lines.

Run as ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; ``-v`` alone shows the same verdicts through the test names.
"""
import re
import time

import numpy as np
import pytest

from qpakit import zoo
from qpakit.dfa2rpa import compile_dfa
from qpakit.evolve import recognize, trace
from qpakit.matrixlab import (
    banded_associativity_probe,
    build_matrix,
    check_truncated_unitarity,
    enumerate_window,
    row_norm_bound_probe,
    rows_pairwise_orthogonal_deviation,
    shift_fixture,
)
from qpakit.wellformed import check_all

from conftest import (
    interior_row_norms,
    random_banded_isometry,
    random_banded_matrix,
    random_partial_permutation,
    random_total_dfa,
    simulate_dfa,
    words_up_to,
)

TOL = 1e-9


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_wellformedness_reproduction():
    """L1 and L2 pass the simplified suite; the always-push table fails
    exactly the row-norm condition with residual 1 and nothing else."""
    for name in ("l1", "l2"):
        spec = zoo.entries()[name].spec
        t0 = time.perf_counter()
        summary = check_all(spec)
        elapsed = time.perf_counter() - t0
        assert summary.suite == "simplified"
        assert summary.passed and summary.worst_residual < TOL, name
        assert elapsed < 1.0, f"{name} took {elapsed:.3f}s"

    t0 = time.perf_counter()
    summary = check_all(zoo.nonunitary_example())
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    assert not summary.passed
    for result in summary.results:
        if result.condition_id == "RVN":
            assert not result.passed
            assert result.worst_residual == pytest.approx(1.0, abs=TOL)
        else:
            assert result.passed, result.condition_id
    _report("1", True, "l1/l2 clean; always-push table fails only the row norm, residual 1")


def test_criterion_2_condition_matrix_duality():
    """The condition-suite verdict equals the truncated-matrix verdict.

    l1, l2 and the broken fixture sweep every word of length <= 3 at
    every radius 0..5; l3 and l5 sweep every word of length <= 3 with
    the radius cycling through 0..5 by word index.
    """
    t0 = time.perf_counter()
    checked = 0

    def agree(spec, word, radius):
        nonlocal checked
        window = enumerate_window(spec, word, radius)
        report = check_truncated_unitarity(build_matrix(spec, window), tol=1e-8)
        expected = check_all(spec).passed
        assert report.passed == expected, (spec.name, word, radius, report)
        checked += 1

    for name in ("l1", "l2"):
        spec = zoo.entries()[name].spec
        sigma = "".join(sorted(spec.alphabets.sigma))
        for word in words_up_to(sigma, 3):
            for radius in range(6):
                agree(spec, word, radius)
    for name in ("l3", "l5"):
        spec = zoo.entries()[name].spec
        for i, word in enumerate(words_up_to("abc", 3)):
            agree(spec, word, i % 6)
    broken = zoo.nonunitary_example()
    for word in words_up_to("1", 3):
        for radius in range(6):
            agree(broken, word, radius)

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"duality sweep took {elapsed:.1f}s"
    _report("2", True, f"{checked} windows agree with the condition checker in {elapsed:.1f}s")


def test_criterion_3_probability_one_recognition():
    """L1 and L2 recognize exhaustively with probability 1 up to length 8."""
    t0 = time.perf_counter()
    pattern = re.compile(r"[01]*1")
    l1 = zoo.entries()["l1"].spec
    for word in words_up_to("01", 8):
        r = recognize(l1, word)
        want = pattern.fullmatch(word) is not None
        assert r.halted
        assert r.p_accept == pytest.approx(1.0 if want else 0.0, abs=TOL), word
        assert r.p_reject == pytest.approx(0.0 if want else 1.0, abs=TOL), word

    l2 = zoo.entries()["l2"].spec
    for word in words_up_to("ab", 8):
        r = recognize(l2, word)
        want = word.count("a") == word.count("b")
        assert r.halted
        assert r.p_accept == pytest.approx(1.0 if want else 0.0, abs=TOL), word
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report("3", True, f"1022 exhaustive runs match the oracles with p in {{0,1}} ({elapsed:.1f}s)")


def test_criterion_3_halting_bound_as_stated():
    """Every run halts within len(word) + 4 steps.

    Both machines advance on every symbol and resolve at the right
    marker, so each run takes exactly len(word) + 2 steps.  A failure
    lists the first offending runs and the worst slack over len(word).
    """
    offenders = []
    worst = (0, "")
    for name in ("l1", "l2"):
        spec = zoo.entries()[name].spec
        sigma = "".join(sorted(spec.alphabets.sigma))
        for word in words_up_to(sigma, 8):
            r = recognize(spec, word, halt_eps=1e-12)
            assert r.halted
            if r.steps > len(word) + 4:
                offenders.append((name, word, r.steps))
                if r.steps - len(word) > worst[0]:
                    worst = (r.steps - len(word), f"{name}:{word}")
    ok = not offenders
    _report("3", ok, "halting bound len(word)+4"
            + ("" if ok else f": {len(offenders)} runs exceed it; "
               f"worst slack len+{worst[0]} at {worst[1]}; "
               f"first offenders {offenders[:3]}"))
    assert ok, (
        f"{len(offenders)} runs exceed len(word)+4 steps, e.g. {offenders[:3]}; "
        f"worst slack len+{worst[0]} at {worst[1]}; a step that does not "
        "advance the head costs one step beyond len(word) + 2"
    )


def test_criterion_4_three_way_split_two_thirds():
    """Counting three symbols: members accept with exactly 2/3."""
    t0 = time.perf_counter()
    spec = zoo.entries()["l3"].spec
    checked = 0
    for word in words_up_to("abc", 6):
        r = recognize(spec, word)
        if word.count("a") == word.count("b") == word.count("c"):
            assert r.p_accept == pytest.approx(2 / 3, abs=TOL), word
        else:
            assert r.p_reject >= 2 / 3 - TOL, word
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report("4", True, f"{checked} words: members 2/3, others reject >= 2/3 ({elapsed:.1f}s)")


def test_criterion_5_interference():
    """Opposite-amplitude branches annihilate on the shared accept state."""
    t0 = time.perf_counter()
    spec = zoo.entries()["l5"].spec
    achieved_member_min = 1.0
    balanced = members = others = 0
    for word in words_up_to("abc", 6):
        na, nb, nc = word.count("a"), word.count("b"), word.count("c")
        r = recognize(spec, word)
        if na == nb == nc:
            balanced += 1
            assert r.p_accept == pytest.approx(3 / 7, abs=TOL), word
            for s in trace(spec, word):
                for c, amp in s.entries:
                    if c.state == "acc":
                        assert abs(amp) < 1e-12, (word, s.step)
        elif (na == nb) != (na == nc):
            members += 1
            assert r.p_accept >= 4 / 7 - TOL, word
            achieved_member_min = min(achieved_member_min, r.p_accept)
        else:
            others += 1
            assert r.p_accept <= 3 / 7 + TOL, word
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    assert achieved_member_min == pytest.approx(4 / 7, abs=TOL)
    _report("5", True,
            f"{balanced} balanced words annihilate to 3/7; {members} members accept at "
            f"exactly {achieved_member_min:.12f} (= 4/7); {others} non-members stay <= 3/7 "
            f"({elapsed:.1f}s)")


def test_criterion_6_compiler_equivalence():
    """50 seeded DFAs: compiled tables verify and match classical runs."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(60)
    n_dfas = 50
    for _ in range(n_dfas):
        dfa = random_total_dfa(int(rng.integers(1, 7)), "01", rng)
        rpa = compile_dfa(dfa)
        assert check_all(rpa, suite="simplified").passed
        for word in words_up_to("01", 8):
            r = recognize(rpa, word)
            want = simulate_dfa(dfa, word)
            assert r.p_accept == pytest.approx(1.0 if want else 0.0, abs=TOL), (dfa, word)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report("6", True, f"{n_dfas} DFAs x 511 words each agree with the classical oracle "
            f"({elapsed:.1f}s)")


def test_criterion_7_banded_matrix_facts():
    """Banded matrix facts at numerical scale."""
    t0 = time.perf_counter()
    fixture = shift_fixture(200)
    dense = fixture.to_dense()
    interior = sorted(fixture.interior_cols)
    gram = dense[:, interior].conj().T @ dense[:, interior]
    assert np.abs(gram - np.eye(len(interior))).max() < 1e-12
    uu = dense @ dense.conj().T
    assert uu[0, 0].real == pytest.approx(0.5, abs=1e-12)

    for seed in range(100):
        if seed % 2 == 0:
            m = random_banded_isometry(48, 40, bandwidth=4, seed=seed)
        else:
            m = random_partial_permutation(48, 37, max_shift=4, seed=seed)
        assert row_norm_bound_probe(m) <= 1.0 + 1e-8, seed
        norms = interior_row_norms(m)
        zero_one = bool(np.all((np.abs(norms) < 1e-8) | (np.abs(norms - 1.0) < 1e-8)))
        orthogonal = rows_pairwise_orthogonal_deviation(m) <= 1e-8
        assert zero_one == orthogonal, seed

    m50 = shift_fixture(50)
    assert banded_associativity_probe(m50, m50, m50) < 1e-12
    for seed in range(10):
        a = random_banded_matrix(64, 5, seed=700 + 3 * seed)
        b = random_banded_matrix(64, 4, seed=701 + 3 * seed)
        c = random_banded_matrix(64, 3, seed=702 + 3 * seed)
        assert banded_associativity_probe(a, b, c) < 1e-12

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report("7", True, f"isometry truncation, 100 banded fixtures, associativity probes "
            f"({elapsed:.1f}s)")


def test_criterion_8_conservation():
    """Accept + reject + residual mass is 1 at every step of every run."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(80)
    total_steps = 0
    for entry in zoo.entries().values():
        sigma = sorted(entry.spec.alphabets.sigma)
        for _ in range(200):
            length = int(rng.integers(0, 11))
            word = "".join(rng.choice(sigma, size=length)) if length else ""
            for s in trace(entry.spec, word):
                total = s.p_accept + s.p_reject + s.residual_norm_squared
                assert total == pytest.approx(1.0, abs=TOL), (entry.name, word, s.step)
                total_steps += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report("8", True, f"{total_steps} steps across 800 runs conserve probability "
            f"({elapsed:.1f}s)")
