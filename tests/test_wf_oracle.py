"""The condition suite against the exhaustive loops of ``wf_oracle``, byte for byte.

Every subject is checked under nine settings (three tolerances times
three report caps); the JSON of each summary must equal the oracle's.
"""
import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpakit import zoo
from qpakit.dfa2rpa import compile_dfa
from qpakit.model import Alphabets, Direction
from qpakit.wellformed import check_all, summary_to_dict

from conftest import enumerate_push_words, make_spec, random_total_dfa
from wf_oracle import oracle_summaries

SETTINGS = [(tol, cap) for tol in (0.0, 1e-9, 0.5) for cap in (0, 1, 100)]


def assert_matches_oracle(spec, suite):
    want = oracle_summaries(spec, suite, SETTINGS)
    for tol, cap in SETTINGS:
        got = check_all(spec, tol, cap, suite=suite)
        assert json.dumps(summary_to_dict(got)) == json.dumps(summary_to_dict(want[(tol, cap)])), \
            (suite, tol, cap)


def scaled(spec, factor):
    return spec.replace(delta={k: factor * v for k, v in spec.delta.items()})


@pytest.mark.parametrize("name", ["l1", "l2", "l3", "l5"])
@pytest.mark.parametrize("suite", ["simplified", "general"])
def test_zoo(name, suite):
    assert_matches_oracle(zoo.fixture_specs()[name], suite)


def test_nonunitary():
    assert_matches_oracle(zoo.nonunitary_example(), "general")


@pytest.mark.parametrize("suite", ["simplified", "general"])
def test_scaled_l5(suite):
    assert_matches_oracle(scaled(zoo.fixture_specs()["l5"], 0.9), suite)


@pytest.mark.parametrize("n_states", range(2, 8))
@pytest.mark.parametrize("alphabet", ["01", "abc"])
def test_compiled_random_dfa(n_states, alphabet):
    rng = np.random.default_rng(100 * n_states + len(alphabet))
    assert_matches_oracle(compile_dfa(random_total_dfa(n_states, alphabet, rng)), "simplified")


FACTORS = st.complex_numbers(min_magnitude=0.5, max_magnitude=1.5,
                             allow_nan=False, allow_infinity=False)


@st.composite
def perturbed_zoo(draw):
    """l3 or l5 with some entries rescaled, rotated and moved to another target.

    Rescaling breaks the cancellations OCV relies on; moving entries to
    other states, directions and push words creates the stack-shifted
    collisions the SEP conditions look for, which the zoo tables avoid.
    """
    spec = zoo.fixture_specs()[draw(st.sampled_from(["l3", "l5"]))]
    keys = spec.sorted_keys()
    states = sorted(spec.states)
    delta = dict(spec.delta)
    for i in draw(st.lists(st.integers(0, len(keys) - 1), min_size=1, max_size=40, unique=True)):
        key = keys[i]
        amp = delta.pop(key) * draw(FACTORS)
        if draw(st.booleans()):
            key = key._replace(
                q=draw(st.sampled_from(states)), d=draw(st.sampled_from(list(Direction))),
                omega=draw(st.sampled_from(enumerate_push_words(key.tau, spec.alphabets))))
        delta[key] = amp
    return spec.replace(delta=delta)


@settings(max_examples=12, deadline=None)
@given(spec=perturbed_zoo(), suite=st.sampled_from(["simplified", "general"]))
def test_perturbed_zoo(spec, suite):
    assert_matches_oracle(spec, suite)


AMPLITUDES = st.sampled_from([1.0, -1.0, 0.5, -0.5, math.sqrt(0.5), -math.sqrt(0.5), 1j, -1j,
                              cmath.rect(1.0, 1.0)]) | FACTORS


def push_words(tau, al):
    """Legal push words for ``tau``, and every word of length <= 2 over the stack alphabet."""
    dl = tuple(sorted(al.delta_alpha))
    return st.sampled_from(enumerate_push_words(tau, al)) | st.sampled_from(
        [()] + [(x,) for x in dl] + [(x, y) for x in dl for y in dl])


@st.composite
def small_tables(draw):
    """Random tables with few symbols and many entries per column.

    Columns with several entries give condition sums of several terms, in
    which summation order, conjugation and the choice of partner all
    show; push words need not be legal, since a spec built in code is not
    validated before it is checked.
    """
    states = ["p", "q", "r"][:draw(st.integers(1, 3))]
    t = {"1", "2"} if draw(st.booleans()) else {"1"}
    al = Alphabets(sigma=frozenset({"a"}), t=frozenset(t))
    sources = [(q, s, tau) for q in states for s in tuple(sorted(al.gamma)) for tau in tuple(sorted(al.delta_alpha))]
    entries = []
    for q1, s, tau in draw(st.lists(st.sampled_from(sources), max_size=60)):
        entries.append((q1, s, tau, draw(st.sampled_from(states)),
                        draw(st.sampled_from(list(Direction))), draw(push_words(tau, al)),
                        draw(AMPLITUDES)))
    directions = {q: draw(st.sampled_from(list(Direction))) for q in states}
    return make_spec(sigma={"a"}, t=t, states=states, q0=states[0], q_acc=(),
                     q_rej=(), entries=entries, kind="simplified", directions=directions)


@settings(max_examples=60, deadline=None)
@given(spec=small_tables(), suite=st.sampled_from(["simplified", "general"]))
def test_small_random_tables(spec, suite):
    assert_matches_oracle(spec, suite)
