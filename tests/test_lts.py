"""Exploration-engine tests over a toy integer calculus: bounded
breadth-first graphs, truncation accounting, shortest traces, and the
three-valued weak-observation search, and exploration cut short by a stop
predicate."""

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


def test_search_yes_beats_truncation():
    # the witness sits inside the bound, so truncation elsewhere is harmless
    r = weak_barb_search(1, branching_step, lambda n: n == 3, max_states=6)
    assert r.verdict is Verdict.YES
    assert r.depth == 1
