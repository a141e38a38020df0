"""The matrix lab against the tuple-stack lab of ``matrix_oracle``, exactly.

Every ``ConfigWindow`` field must match, the index in its order, and the
matrix's ``rows``/``cols``/``vals`` arrays element for element and bit
for bit, since a product with the matrix sums them in array order.  Windows that raise
must raise the same exception type with the same message.
"""
import cmath

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qpakit import matrixlab, zoo
from qpakit.dfa2rpa import compile_dfa
from qpakit.evolve import Configuration
from qpakit.model import Direction, QpaError, STACK_BASE, StructureError, validate_structure
from qpakit.wellformed import check_all

from conftest import enumerate_push_words, make_spec, random_total_dfa, words_up_to
import evolve_oracle
import matrix_oracle as oracle

Z = STACK_BASE


def window_and_matrix(lab, spec, word, radius):
    """The window's fields and the matrix's arrays, or the type and message raised."""
    try:
        w = lab.enumerate_window(spec, word, radius)
        m = lab.build_matrix(spec, w)
    except Exception as exc:    # compared, not swallowed: both sides must agree
        return "raised", type(exc), str(exc)
    fields = (w.tape, w.configs, list(w.index.items()), w.interior_cols, w.interior_rows,
              w.stack_limit, len(w))
    arrays = tuple((a.dtype, a.shape, a.tobytes()) for a in (m.rows, m.cols, m.vals))
    return "ok", fields, (m.dim, m.interior_cols, m.interior_rows, arrays)


def assert_same(spec, word, radius):
    got = window_and_matrix(matrixlab, spec, word, radius)
    want = window_and_matrix(oracle, spec, word, radius)
    assert got[0] == want[0], (word, radius, got[:3] if got[0] == "raised" else want[:3])
    assert got[1] == want[1], (word, radius)
    assert got[2] == want[2], (word, radius)
    return got[0]


def assert_refused(spec, word, radius):
    """The lab and the condition suite both refuse ``spec`` with the structure check's violations."""
    want = validate_structure(spec)
    assert want
    for judge in (lambda: matrixlab.enumerate_window(spec, word, radius), lambda: check_all(spec)):
        with pytest.raises(StructureError) as err:
            judge()
        assert err.value.violations == want


@pytest.mark.parametrize("name", ["l1", "l2", "nonunitary"])
def test_zoo_every_radius(name):
    """Criterion 2's sweep: every word of length <= 3 at every radius 0..5."""
    spec = zoo.nonunitary_example() if name == "nonunitary" else zoo.entries()[name].spec
    for word in words_up_to("".join(sorted(spec.alphabets.sigma)), 3):
        for radius in range(6):
            assert assert_same(spec, word, radius) == "ok"


@pytest.mark.parametrize("name", ["l3", "l5"])
def test_zoo_cycling_radius(name):
    """Criterion 2's sweep: every word of length <= 3, the radius cycling through 0..5."""
    spec = zoo.entries()[name].spec
    for i, word in enumerate(words_up_to("abc", 3)):
        assert assert_same(spec, word, i % 6) == "ok"


@settings(max_examples=25, deadline=None)
@given(n_states=st.integers(2, 5), alphabet=st.sampled_from(["01", "abc"]),
       seed=st.integers(0, 2**32 - 1), radius=st.integers(0, 3), data=st.data())
def test_compiled_random_dfas(n_states, alphabet, seed, radius, data):
    spec = compile_dfa(random_total_dfa(n_states, alphabet, np.random.default_rng(seed)))
    word = data.draw(st.text(alphabet=alphabet, max_size=3))
    assert assert_same(spec, word, radius) == "ok"


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(["l3", "l5"]), word=st.text(alphabet="abc", max_size=2),
       radius=st.integers(0, 2), data=st.data())
def test_perturbed_l3_l5(name, word, radius, data):
    """Rotated, deleted, redirected and re-pushed entries."""
    spec = zoo.entries()[name].spec
    keys = spec.sorted_keys()
    delta = dict(spec.delta)
    for _ in range(data.draw(st.integers(1, 6))):
        k = keys[data.draw(st.integers(0, len(keys) - 1))]
        if k not in delta:
            continue
        amp = delta.pop(k)
        mode = data.draw(st.sampled_from(["rotate", "delete", "redirect", "repush"]))
        if mode == "rotate":
            delta[k] = data.draw(st.floats(0.5, 1.0)) * amp * cmath.exp(1j * data.draw(st.floats(0, 6.3)))
        elif mode == "redirect":
            delta[k._replace(q=data.draw(st.sampled_from(sorted(spec.states))))] = amp
        elif mode == "repush":
            pushes = enumerate_push_words(k.tau, spec.alphabets)
            delta[k._replace(omega=data.draw(st.sampled_from(pushes)))] = amp
    assert_same(spec.replace(delta=delta), word, radius)


DECLARED = ("p", "q")


@st.composite
def random_tables(draw, states=DECLARED, pops=(Z, "1", "2")):
    """Unvalidated tables built directly over ``states`` and ``pops``: push words of
    up to four symbols, advances off the right marker and, in some tables, entries
    that lose the stack base.  Only ``DECLARED`` states and ``Z0``, 1 and 2 are declared."""
    loses = draw(st.booleans())
    entries = []
    for q1 in states:
        for sigma in ("#", "x", "$"):
            for tau in pops:
                if tau == Z:
                    pushes = [(Z,), (Z, "1"), (Z, "2", "1"), (Z, "1", "2", "2")]
                    bad = [(), ("1",), (Z, Z)]
                else:
                    pushes = [(), (tau,), ("1",), ("2", "1"), (tau, "1", "2"), ("1", "1", "2", "2")]
                    bad = [(Z,), ("1", Z)]
                if loses:
                    pushes += bad
                for _ in range(draw(st.integers(0, 2))):
                    amp = cmath.rect(draw(st.floats(0.1, 1.0)), draw(st.floats(0, 6.3)))
                    entries.append((q1, sigma, tau, draw(st.sampled_from(states)),
                                    draw(st.sampled_from(list(Direction))),
                                    draw(st.sampled_from(pushes)), amp))
    return make_spec(sigma={"x"}, t={"1", "2"}, states=set(DECLARED), q0="p",
                     q_acc={"q"}, q_rej=(), entries=entries)


@settings(max_examples=150, deadline=None)
@given(spec=random_tables(), n=st.integers(0, 2), radius=st.integers(0, 2))
def test_random_tables(spec, n, radius):
    assert_same(spec, "x" * n, radius)


@settings(max_examples=50, deadline=None)
@given(spec=random_tables(states=(*DECLARED, "u"), pops=(Z, "1", "2", "9")), n=st.integers(0, 2),
       radius=st.integers(0, 2))
def test_random_tables_that_hold_an_undeclared_name_are_refused(spec, n, radius):
    """A source or target ``u``, or a pop of ``9`` (and so a push of it)."""
    assume(not spec.compiled().declared)
    assert_refused(spec, "x" * n, radius)


def p_table(entries):
    """A table over the one state p, the input symbol x and the stack symbol 1."""
    return make_spec(sigma={"x"}, t={"1"}, states={"p"}, q0="p", q_acc=(), q_rej=(), entries=entries)


def test_pop_from_outside_the_declared_states():
    """A pop of a stack symbol with an empty push word makes full-depth rows boundary;
    base pops from an undeclared state beside it make the table refused."""
    entries = [("p", "$", "1", "p", Direction.STAY, (), 1.0), ("p", "x", Z, "p", Direction.ADVANCE, (Z, "1"), 1.0)]
    outside = [("u", "x", Z, "p", Direction.STAY, (), 1.0), ("u", "#", Z, "p", Direction.ADVANCE, (), 1.0)]
    for radius in range(3):
        assert assert_same(p_table(entries), "xx", radius) == "ok"
        assert_refused(p_table(outside + entries), "xx", radius)


def test_predecessor_from_an_undeclared_state_makes_a_row_boundary():
    """Row (p, 1, Z0 1) is interior; an entry from the undeclared state u into it
    would be a predecessor no window holds, and its table is refused."""
    entries = [("p", s, tau, "p", Direction.STAY, (tau,), 1.0) for s in ("#", "x", "$") for tau in (Z, "1")]
    spec = p_table(entries)
    ghost = p_table([*entries, ("u", "x", "1", "p", Direction.STAY, ("1",), 1.0)])
    row = Configuration("p", 1, (Z, "1"))
    for radius in range(3):
        assert assert_same(spec, "x", radius) == "ok"
        w = matrixlab.enumerate_window(spec, "x", radius)
        assert w.index[row] in w.interior_rows, radius
        assert_refused(ghost, "x", radius)


@pytest.mark.parametrize("entries", [
    [("q", "#", Z, "q", Direction.STAY, (), 1.0)],
    [("q", "x", "1", "q", Direction.STAY, ("1", Z), 1.0)],
    [("q", "#", Z, "q", Direction.ADVANCE, (Z, "1"), 0.6),
     ("q", "$", Z, "q", Direction.ADVANCE, (), 0.8),
     ("q", "x", Z, "q", Direction.STAY, (Z, Z), 0.8)],
])
def test_base_losing_tables(entries):
    spec = make_spec(sigma={"x"}, t={"1"}, states={"q"}, q0="q", q_acc=(), q_rej=(),
                     entries=entries)
    for radius in range(3):
        assert assert_same(spec, "x", radius) == "raised"


def test_two_columns_that_lose_the_base_name_the_first_in_column_order():
    """Column (p, 1, Z0 1) comes before (p, 2, Z0), though its entry, on x, comes
    after the one on $ in table order."""
    spec = make_spec(sigma={"x"}, t={"1"}, states={"p"}, q0="p", q_acc=(), q_rej=(), entries=[
        ("p", "$", Z, "p", Direction.STAY, (), 1.0),
        ("p", "x", "1", "p", Direction.STAY, ("1", Z), 1.0),
    ])
    for radius in range(3):
        assert assert_same(spec, "x", radius) == "raised"
        with pytest.raises(QpaError) as info:
            matrixlab.enumerate_window(spec, "x", radius)
        assert str(Configuration("p", 1, (Z, "1"))) in str(info.value)


def test_a_long_push_one_below_full_depth_leaves_its_column_boundary_with_its_inside_entry():
    """From depth stack_limit - 1, a push of two more symbols lands past the window's
    depth; the other branch stays inside, and one layer lower both do."""
    amp = 2 ** -0.5
    spec = make_spec(sigma={"x"}, t={"1"}, states={"p", "q"}, q0="p", q_acc=(), q_rej=(), entries=[
        ("p", "x", "1", "p", Direction.STAY, ("1", "1", "1"), amp),
        ("p", "x", "1", "q", Direction.STAY, ("1",), amp),
    ])
    for radius in (1, 2, 3):
        assert assert_same(spec, "x", radius) == "ok"
        w = matrixlab.enumerate_window(spec, "x", radius)
        dense = matrixlab.build_matrix(spec, w).to_dense()
        col = w.index[Configuration("p", 1, (Z,) + ("1",) * radius)]
        row = w.index[Configuration("q", 1, (Z,) + ("1",) * radius)]
        assert col not in w.interior_cols
        assert dense[:, col].tolist() == [amp if i == row else 0 for i in range(len(w))]
        assert w.index[Configuration("p", 1, (Z,) + ("1",) * (radius - 1))] in w.interior_cols


def test_a_target_in_an_undeclared_state_leaves_its_column_boundary():
    """A target no window holds: the table is refused rather than judged."""
    amp = 2 ** -0.5
    spec = p_table([("p", "x", Z, "u", Direction.STAY, (Z,), amp), ("p", "x", Z, "p", Direction.ADVANCE, (Z, "1"), amp)])
    for radius in range(3):
        assert_refused(spec, "x", radius)


def test_predecessors_invert_successors():
    spec = zoo.l2_rpa().spec
    w = oracle.enumerate_window(spec, "ab", 3)
    for config in w.configs[:200]:
        targets, _ = evolve_oracle.step_targets(spec, w.tape, config)
        for target, amp in targets:
            back = oracle.predecessors(spec, w.tape, target)
            assert (config, amp) in back


def test_window_matrix_and_check_build_no_configuration(monkeypatch):
    """The matrix and its check read only the window's layout and entries; the
    views, built on first access, equal the oracle's eager ones."""
    built = []
    monkeypatch.setattr(matrixlab, "Configuration", lambda *a: built.append(a) or Configuration(*a))
    spec = zoo.l5_qpa().spec
    w = matrixlab.enumerate_window(spec, "abc", 3)
    matrixlab.check_truncated_unitarity(matrixlab.build_matrix(spec, w))
    assert built == [] and "configs" not in vars(w) and "index" not in vars(w)
    want = oracle.enumerate_window(spec, "abc", 3)
    assert w.configs == want.configs and len(built) == len(w)
    assert list(w.index.items()) == list(want.index.items())


@pytest.mark.parametrize("name", sorted(zoo.fixture_specs()))
def test_lazy_window_compares_and_prints_as_an_eager_one(name):
    spec = zoo.fixture_specs()[name]
    word = "".join(sorted(spec.alphabets.sigma)[:2])
    for radius in range(3):
        w, eager = matrixlab.enumerate_window(spec, word, radius), oracle.enumerate_window(spec, word, radius)
        assert (w == eager, repr(w), len(w)) == (True, repr(eager), len(eager.configs))
        assert "configs" not in vars(w) and "index" not in vars(w)
