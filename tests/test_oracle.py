"""Brute-force oracle: structure functions, pivotal decomposition, caps."""

import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import is_monotone, oracle_pivotal
from relfreq.oracle import (
    MAX_COMPONENTS,
    OracleError,
    StructureFunction,
    connectivity_structure,
    kofn_g_structure,
    lincon_f_structure,
    oracle_availability,
    oracle_frequency,
    oracle_solve,
    truth_table_structure,
)


class TestStructureFunctions:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(OracleError):
            StructureFunction(("a", "a"), lambda s: True)

    def test_kofn_semantics(self):
        sf = kofn_g_structure(["a", "b", "c"], 2)
        assert sf({"a": True, "b": True, "c": False})
        assert not sf({"a": True, "b": False, "c": False})

    def test_lincon_semantics(self):
        sf = lincon_f_structure(["a", "b", "c", "d"], 2)
        assert not sf({"a": True, "b": False, "c": False, "d": True})
        assert sf({"a": False, "b": True, "c": False, "d": True})

    def test_truth_table(self):
        table = {
            (True, True): True,
            (True, False): False,
            (False, True): True,
            (False, False): False,
        }
        sf = truth_table_structure(["a", "b"], table)
        assert oracle_availability(sf, {"a": F(1, 2), "b": F(1, 3)}) == F(1, 3)

    def test_connectivity_simple_path(self):
        # s -- e1 -- m -- e2 -- t, fallible middle node
        sf = connectivity_structure(
            ids=["e1", "e2", "m"],
            nodes=["s", "m", "t"],
            edges=[("e1", "s", "m"), ("e2", "m", "t")],
            source="s",
            terminal="t",
        )
        probs = {"e1": F(1, 2), "e2": F(2, 3), "m": F(3, 4)}
        assert oracle_availability(sf, probs) == F(1, 2) * F(2, 3) * F(3, 4)

    def test_connectivity_parallel_edges(self):
        sf = connectivity_structure(
            ids=["e1", "e2"],
            nodes=["s", "t"],
            edges=[("e1", "s", "t"), ("e2", "s", "t")],
            source="s",
            terminal="t",
        )
        probs = {"e1": F(1, 2), "e2": F(1, 3)}
        assert oracle_availability(sf, probs) == 1 - F(1, 2) * F(2, 3)

    def test_monotone_detection(self):
        mono = kofn_g_structure(["a", "b", "c"], 2)
        assert is_monotone(mono)
        # bit 0 is a, bit 1 is b
        parity = StructureFunction(
            ("a", "b"), lambda x: (x & 1) != (x >> 1 & 1), name="parity"
        )
        assert not is_monotone(parity)


def _states(ids):
    """(mask, dict state) for every up/down state of ``ids``."""
    for x in range(1 << len(ids)):
        yield x, {cid: bool(x >> j & 1) for j, cid in enumerate(ids)}


def _kofn_by_definition(state, ids, k):
    return sum(state[cid] for cid in ids) >= k


def _lincon_by_definition(state, ids, k):
    run = 0
    for cid in ids:
        run = 0 if state[cid] else run + 1
        if run >= k:
            return False
    return True


def _connected_by_definition(state, graph):
    """Union-find over the up nodes, joined by the usable edges."""
    ids, nodes, edges, source, terminal = graph

    def up(v):
        return state[v] if v in ids else True

    if not (up(source) and up(terminal)):
        return False
    parent = {v: v for v in nodes if up(v)}

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for eid, a, b in edges:
        if up(eid) and a in parent and b in parent:
            parent[find(a)] = find(b)
    return find(source) == find(terminal)


def _ladder_graph(n, terminal):
    """(ids, nodes, edges, source, terminal) of an n-cell ladder whose nodes
    and edges all fail."""
    nodes = [v for i in range(n + 1) for v in (f"S{i}", f"T{i}")]
    edges = [(f"b{i}", f"S{i}", f"T{i}") for i in range(n + 1)]
    for i in range(1, n + 1):
        edges += [(f"a{i}", f"S{i-1}", f"S{i}"), (f"c{i}", f"T{i-1}", f"T{i}")]
    ids = nodes + [eid for eid, _, _ in edges]
    return ids, nodes, edges, "S0", f"{terminal}{n}"


GRAPHS = {
    "path-with-fallible-node": (
        ["e1", "e2", "m"], ["s", "m", "t"], [("e1", "s", "m"), ("e2", "m", "t")], "s", "t"
    ),
    "parallel-edges": (["e1", "e2"], ["s", "t"], [("e1", "s", "t"), ("e2", "s", "t")], "s", "t"),
    **{f"ladder-{n}-{t}": _ladder_graph(n, t) for n in (1, 2) for t in "ST"},
}


class TestMaskStructuresAgainstTheirDefinitions:
    """The oracle is the engine's reference; its bit tricks are checked on
    every state against plain scans of a dict state."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_kofn_and_lincon(self, n):
        ids = [f"c{i}" for i in range(n)]
        for k in range(1, n + 1):
            for make, want in ((kofn_g_structure, _kofn_by_definition),
                               (lincon_f_structure, _lincon_by_definition)):
                sf = make(ids, k)
                for x, state in _states(ids):
                    assert bool(sf.fn(x)) == want(state, ids, k) == sf(state), (sf.name, x)

    @pytest.mark.parametrize("name", GRAPHS)
    def test_connectivity(self, name):
        graph = GRAPHS[name]
        sf = connectivity_structure(*graph)
        for x, state in _states(graph[0]):
            assert bool(sf.fn(x)) == _connected_by_definition(state, graph) == sf(state), x

    def test_truth_table(self):
        ids = ["a", "b", "c"]
        table = {bits: sum(bits) % 2 == 1 for bits in itertools.product((True, False), repeat=3)}
        sf = truth_table_structure(ids, table)
        for x, state in _states(ids):
            assert bool(sf.fn(x)) == table[tuple(state[cid] for cid in ids)] == sf(state)


class TestAvailability:
    def test_series_parallel_by_hand(self):
        # (a AND b) OR c
        sf = StructureFunction(
            ("a", "b", "c"), lambda x: x & 0b011 == 0b011 or x & 0b100 != 0
        )
        pa, pb, pc = F(1, 2), F(2, 3), F(1, 5)
        want = pa * pb + pc - pa * pb * pc
        assert oracle_availability(sf, {"a": pa, "b": pb, "c": pc}) == want

    def test_fixed_probabilities_folded(self):
        sf = kofn_g_structure(["a", "b", "c"], 2)
        probs = {"a": F(1), "b": F(0), "c": F(1, 2)}
        # a up, b down: need c
        assert oracle_availability(sf, probs) == F(1, 2)

    def test_cap_enforced(self):
        n = MAX_COMPONENTS + 1
        ids = [f"c{i}" for i in range(n)]
        sf = kofn_g_structure(ids, 1)
        with pytest.raises(OracleError):
            oracle_availability(sf, {i: F(1, 2) for i in ids})

    def test_all_fixed_probabilities(self):
        sf = kofn_g_structure(["a", "b"], 2)
        assert oracle_availability(sf, {"a": F(1), "b": F(1)}) == 1
        assert oracle_availability(sf, {"a": F(1), "b": F(0)}) == 0


class TestPivotalAndFrequency:
    def test_pivotal_decomposition_identity(self):
        sf = lincon_f_structure(["a", "b", "c"], 2)
        probs = {"a": F(1, 3), "b": F(2, 5), "c": F(3, 7)}
        a = oracle_availability(sf, probs)
        for cid in sf.ids:
            up, down = oracle_pivotal(sf, probs, cid)
            assert a == probs[cid] * up + (1 - probs[cid]) * down

    def test_frequency_single_component(self):
        sf = StructureFunction(("a",), lambda x: x == 1)
        assert oracle_frequency(sf, {"a": F(3, 4)}, {"a": F(2)}) == F(3, 2)

    def test_frequency_series(self):
        sf = StructureFunction(("a", "b"), lambda x: x == 0b11)
        probs = {"a": F(1, 2), "b": F(2, 3)}
        rates = {"a": F(3), "b": F(5)}
        assert oracle_frequency(sf, probs, rates) == (3 + 5) * F(1, 2) * F(2, 3)

    def test_frequency_ignores_rate_of_fixed_components(self):
        sf = kofn_g_structure(["a", "b"], 1)
        probs = {"a": F(0), "b": F(1, 2)}
        rates = {"a": F(999), "b": F(1)}
        assert oracle_frequency(sf, probs, rates) == F(1) * F(1, 2)

    @pytest.mark.parametrize(
        "p_a, lam_a",
        [(F(3, 2), F(0)), (F(-1, 2), F(0)), (F(1, 2), F(-1)), (F(1), F(5))],
        ids=["p-above-one", "p-below-zero", "negative-rate", "rate-at-p-one"],
    )
    def test_rejects_what_component_rejects(self, p_a, lam_a):
        sf = kofn_g_structure(["a", "b"], 2)
        with pytest.raises(OracleError):
            oracle_solve(sf, {"a": p_a, "b": F(1, 2)}, {"a": lam_a, "b": F(1)})

    @given(
        st.integers(1, 4),
        st.lists(
            st.tuples(st.integers(1, 9), st.integers(0, 5)), min_size=4, max_size=4
        ),
    )
    @settings(max_examples=30, deadline=None)
    def test_frequency_nonnegative_for_monotone(self, k, params):
        ids = [f"c{i}" for i in range(4)]
        sf = kofn_g_structure(ids, k)
        probs = {i: F(pn, 10) for i, (pn, _) in zip(ids, params)}
        rates = {i: F(r) for i, (_, r) in zip(ids, params)}
        assert oracle_frequency(sf, probs, rates) >= 0


def _availability_by_definition(ids, table, probs):
    """Sum over the up states of prod p_i (up) and 1 - p_i (down)."""
    total = F(0)
    for bits in itertools.product((True, False), repeat=len(ids)):
        if table[bits]:
            term = F(1)
            for cid, up in zip(ids, bits):
                term *= probs[cid] if up else 1 - probs[cid]
            total += term
    return total


@st.composite
def truth_table_cases(draw):
    """Any truth table over 1-6 ids, monotone or not, with p in [0, 1]."""
    n = draw(st.integers(1, 6))
    ids = [f"c{i}" for i in range(n)]
    outcomes = draw(st.lists(st.booleans(), min_size=2**n, max_size=2**n))
    table = dict(zip(itertools.product((True, False), repeat=n), outcomes))
    p_values = st.sampled_from([F(0), F(1)]) | st.fractions(0, 1, max_denominator=12)
    probs = {cid: draw(p_values) for cid in ids}
    # a perfect component has no failure rate (``Component`` requires it)
    rates = {
        cid: F(0) if probs[cid] == 1 else draw(st.fractions(0, 10, max_denominator=9))
        for cid in ids
    }
    return ids, table, probs, rates


class TestAgainstTheDefinition:
    @given(truth_table_cases())
    @settings(max_examples=200, deadline=None)
    def test_solve_equals_naive_sums(self, case):
        ids, table, probs, rates = case
        want_a = _availability_by_definition(ids, table, probs)
        want_nu = F(0)
        for cid in ids:
            up = _availability_by_definition(ids, table, {**probs, cid: F(1)})
            down = _availability_by_definition(ids, table, {**probs, cid: F(0)})
            want_nu += rates[cid] * probs[cid] * (up - down)
        sf = truth_table_structure(ids, table)
        assert oracle_solve(sf, probs, rates) == (want_a, want_nu)
