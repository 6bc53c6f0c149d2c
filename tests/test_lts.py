"""Exploration-engine tests over a toy integer calculus: bounded
breadth-first graphs, truncation accounting, shortest traces, and the
three-valued weak-observation search, and exploration cut short by a stop
predicate."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhopi.lts import Lts, Verdict, explore, weak_barb_search


def chain_step(limit):
    """n -> n+1 up to limit: a simple finite chain."""

    def step(n):
        return [n + 1] if n < limit else []

    return step


def branching_step(n):
    """Each state has two successors, doubling the frontier per level."""
    return [2 * n, 2 * n + 1] if n < 32 else []


def looping_step(n):
    return [(n + 1) % 4]


# ---------------------------------------------------------------------------
# explore
# ---------------------------------------------------------------------------


def test_explore_collects_a_finite_chain():
    g = explore(0, chain_step(5))
    assert g.states == [0, 1, 2, 3, 4, 5]
    assert g.edges == [[1], [2], [3], [4], [5], []]
    assert g.depths == [0, 1, 2, 3, 4, 5]
    assert not g.truncated


def test_explore_is_breadth_first_and_deterministic():
    g1 = explore(1, branching_step)
    g2 = explore(1, branching_step)
    assert g1.states == g2.states
    assert g1.edges == g2.edges
    # BFS: depths never decrease along the discovery order
    assert all(a <= b for a, b in zip(g1.depths, g1.depths[1:]))


def test_explore_folds_cycles_without_truncation():
    g = explore(0, looping_step)
    assert len(g.states) == 4
    assert g.edges[3] == [0]
    assert not g.truncated


def test_explore_truncates_on_state_budget():
    g = explore(0, chain_step(100), max_states=10)
    assert g.truncated
    assert len(g.states) == 10
    assert g.truncated_reason is not None


def test_explore_truncates_on_depth_budget():
    g = explore(0, chain_step(100), max_depth=3)
    assert g.truncated
    assert len(g.states) == 4  # depths 0..3


def test_depth_frontier_still_links_known_states():
    # at the depth bound, edges to already-known states are kept: the cycle
    # closing back to the root is visible even when discovery stops
    g = explore(0, looping_step, max_depth=3)
    assert g.edges[3] == [0]


def test_trace_to_follows_shortest_paths():
    g = explore(1, branching_step)
    i = g.index[9]  # 1 -> 2 -> 4 -> 9  (binary expansion)
    assert g.trace_to(i) == [1, 2, 4, 9]
    assert g.trace_to(0) == [1]


def test_index_maps_states_to_positions():
    g = explore(0, chain_step(3))
    assert all(g.states[g.index[s]] == s for s in g.states)


def test_a_graph_is_read_only():
    # equiv hands one check's graphs to the next, so no field may be rebound
    g = explore(0, chain_step(3))
    for name in Lts._fields:
        with pytest.raises(AttributeError):
            setattr(g, name, None)
    # a graph built without an index shares one default, which is read-only
    bare = Lts([0], [[]], [0], [None], False)
    assert bare.index == {} and bare.index is Lts([1], [[]], [0], [None], False).index
    with pytest.raises(TypeError):
        bare.index[0] = 0


# ---------------------------------------------------------------------------
# explore with a stop predicate
# ---------------------------------------------------------------------------


def test_stop_at_the_root_expands_nothing():
    g = explore(0, chain_step(10), stop=lambda n: n == 0)
    assert g.hit == 0
    assert g.states == [0]
    assert g.edges == [[]]


def test_stop_mid_graph_gives_a_shortest_trace():
    g = explore(1, branching_step, stop=lambda n: n == 9)
    assert g.states[g.hit] == 9
    assert g.trace_to(g.hit) == [1, 2, 4, 9]
    assert g.depths[g.hit] == 3
    # the hit is not expanded: 9's successors are never discovered
    assert 18 not in g.index and 19 not in g.index


def test_stop_never_true_matches_plain_explore():
    plain = explore(1, branching_step, max_states=40)
    stopped = explore(1, branching_step, max_states=40, stop=lambda n: False)
    assert stopped.hit is None and plain.hit is None
    assert stopped.states == plain.states
    assert stopped.edges == plain.edges
    assert stopped.truncated == plain.truncated


def random_step(seed):
    """A step function over a seeded random graph on 0..n-1: a chain n ->
    n+1 so depth grows, plus random edges, among them edges back to smaller
    states, which close cycles across any depth bound."""
    rng = random.Random(seed)
    n = rng.randrange(2, 40)
    adj = {
        s: [s + 1] * (s + 1 < n)
        + [rng.randrange(s + 1)]
        + [rng.randrange(n) for _ in range(rng.randrange(3))]
        for s in range(n)
    }
    return adj.__getitem__


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 10_000),
    st.integers(1, 40),
    st.integers(0, 8),
    st.frozensets(st.integers(0, 60), max_size=3),
)
def test_a_search_agrees_with_plain_exploration(seed, max_states, max_depth, stops):
    step = random_step(seed)
    plain = explore(0, step, max_states=max_states, max_depth=max_depth)
    stepped = []

    def counting_step(s):
        stepped.append(s)
        return step(s)

    search = explore(
        0, counting_step, max_states=max_states, max_depth=max_depth, stop=stops.__contains__
    )
    n = len(search.states)
    assert search.states == plain.states[:n]
    assert search.depths == plain.depths[:n]
    assert search.parents == plain.parents[:n]
    if search.hit is None:
        assert n == len(plain.states)
        assert search.truncated == plain.truncated
        assert search.truncated_reason == plain.truncated_reason
    # an expanded state has its plain edges; a skipped one has none
    for i, s in enumerate(search.states):
        assert search.edges[i] == (plain.edges[plain.index[s]] if s in stepped else [])
    # a successor missing from the final graph was dropped, so the first
    # step that yields one is the cut; no depth-bound state is stepped after it
    cut = next((k for k, s in enumerate(stepped) if set(step(s)) - set(search.index)), None)
    assert search.truncated == (cut is not None)
    if cut is not None:
        assert all(search.depths[search.index[s]] < max_depth for s in stepped[cut + 1 :])


# ---------------------------------------------------------------------------
# weak_barb_search
# ---------------------------------------------------------------------------


def test_search_yes_carries_a_shortest_trace():
    r = weak_barb_search(0, chain_step(10), lambda n: n == 4)
    assert r.verdict is Verdict.YES
    assert r.depth == 4
    assert r.trace == [0, 1, 2, 3, 4]


def test_search_on_the_root_itself():
    r = weak_barb_search(7, chain_step(10), lambda n: n == 7)
    assert r.verdict is Verdict.YES
    assert r.depth == 0
    assert r.trace == [7]


def test_search_no_requires_exhaustive_exploration():
    r = weak_barb_search(0, chain_step(5), lambda n: n == 99)
    assert r.verdict is Verdict.NO
    assert not r.truncated
    assert r.explored == 6


def test_search_unknown_when_truncated():
    r = weak_barb_search(0, chain_step(100), lambda n: n == 99, max_states=5)
    assert r.verdict is Verdict.UNKNOWN
    assert r.truncated
    assert r.truncated_reason == "max_states"
    r = weak_barb_search(0, chain_step(100), lambda n: n == 99, max_depth=5)
    assert r.verdict is Verdict.UNKNOWN
    assert r.truncated_reason == "max_depth"


def test_search_yes_beats_truncation():
    # the witness sits inside the bound, so truncation elsewhere is harmless
    r = weak_barb_search(1, branching_step, lambda n: n == 3, max_states=6)
    assert r.verdict is Verdict.YES
    assert r.depth == 1
