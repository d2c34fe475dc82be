"""validate_linkage reports what the clause-by-clause validator reported
before its one-pass accept on cube hosts.

``reference_validate_linkage`` below is that validator, kept verbatim as the
reference (only its name differs).  Valid linkages of cube and fixture hosts
are drawn, mutated the ways a broken solver could break them, and checked
against it field by field.
"""

from __future__ import annotations

from hypothesis import assume, given, settings, strategies as st

from cubelink import cube_core
from cubelink.cube_core import CubeGraph
from cubelink.path_oracle import (
    LINKED,
    HostGraph,
    Linkage,
    Pairing,
    ValidationReport,
    avoid_path,
    decide_linked,
    pyramid2_quad,
    validate_linkage,
)


def reference_validate_linkage(G: HostGraph, Y: Pairing, L: Linkage) -> ValidationReport:
    """Check every linkage invariant; report the first violated clause.

    Clauses, in check order: PATH_COUNT, ENDPOINTS (each path's endpoint set
    is its pair, either orientation), MEMBERSHIP (vertices exist and are not
    forbidden), REPEAT (paths are simple), ADJACENCY (consecutive hops are
    edges), DISJOINTNESS (no vertex on two paths).
    """
    # MEMBERSHIP has passed every vertex of a path before its hops are read.
    if isinstance(G, CubeGraph):
        hop = cube_core.adjacent
    else:
        def hop(a, b):
            return b in G.adjacency[a]
    if len(L) != Y.k:
        return ValidationReport(
            False, "PATH_COUNT", len(L), f"expected {Y.k} paths, got {len(L)}"
        )
    for i, (path, (s, t)) in enumerate(zip(L, Y.pairs)):
        if not path or {path[0], path[-1]} != {s, t}:
            return ValidationReport(
                False, "ENDPOINTS", i,
                f"path {i} endpoints {path[:1]}...{path[-1:]} do not match pair {(s, t)}",
            )
        for v in path:
            if not G.has_vertex(v):
                return ValidationReport(
                    False, "MEMBERSHIP", v,
                    f"path {i} uses {v!r}, which is not a usable host vertex",
                )
        if len(set(path)) != len(path):
            seen: set = set()
            dup = next(v for v in path if v in seen or seen.add(v))
            return ValidationReport(
                False, "REPEAT", dup, f"path {i} repeats vertex {dup!r}"
            )
        for a, b in zip(path, path[1:]):
            if not hop(a, b):
                return ValidationReport(
                    False, "ADJACENCY", (a, b), f"path {i} hop {a!r}-{b!r} is not an edge"
                )
    placed: dict = {}
    for i, path in enumerate(L):
        for v in path:
            if v in placed:
                return ValidationReport(
                    False, "DISJOINTNESS", v,
                    f"vertex {v!r} lies on paths {placed[v]} and {i}",
                )
            placed[v] = i
    return ValidationReport(True)


def _pick(draw, seq, count=1):
    return draw(st.lists(st.sampled_from(range(len(seq))), min_size=count,
                         max_size=count, unique=True))


def _drop_path(draw, G, L, spare):
    del L[_pick(draw, L)[0]]


def _reverse_path(draw, G, L, spare):
    L[_pick(draw, L)[0]].reverse()


def _swap_ends(draw, G, L, spare):
    if len(L) > 1:
        i, j = _pick(draw, L, 2)
        L[i][0], L[j][-1] = L[j][-1], L[i][0]


def _replace_end(draw, G, L, spare):
    path = L[_pick(draw, L)[0]]
    path[draw(st.sampled_from([0, -1]))] = draw(st.sampled_from(spare))


def _insert(draw, path, v):
    # inside the path, so that its ends stay put
    path.insert(draw(st.integers(1, max(1, len(path) - 1))), v)


def _insert_foreign(draw, G, L, spare):
    # a vertex off the host, or one the host removes
    if isinstance(G, CubeGraph):
        outside = [-1, 1 << G.d, (1 << G.d) + 1]
    else:
        outside = ["z", "s1t1"]
    _insert(draw, L[_pick(draw, L)[0]],
            draw(st.sampled_from(outside + sorted(G.removed))))


def _repeat_vertex(draw, G, L, spare):
    path = L[_pick(draw, L)[0]]
    _insert(draw, path, draw(st.sampled_from(path)))


def _break_hop(draw, G, L, spare):
    path = L[_pick(draw, L)[0]]
    if len(path) > 2:
        j = draw(st.integers(1, len(path) - 2))
        if draw(st.booleans()):
            del path[j]
        else:
            path[j] = draw(st.sampled_from(spare))


def _share_vertex(draw, G, L, spare):
    # reroute path i through a vertex of path j along shortest paths, so
    # that its hops stay edges; a vertex that an earlier mutation put off
    # the host, or removed from it, has no shortest path to it
    if len(L) > 1:
        i, j = _pick(draw, L, 2)
        on_host = [v for v in L[j] if G.has_vertex(v)]
        if not on_host or not all(map(G.has_vertex, (L[i][0], L[i][-1]))):
            return
        v = draw(st.sampled_from(on_host))
        head = avoid_path(G, L[i][0], v, ())
        tail = avoid_path(G, v, L[i][-1], ())
        if head and tail:
            L[i] = head + tail[1:]


MUTATIONS = (_drop_path, _reverse_path, _swap_ends, _replace_end,
             _insert_foreign, _repeat_vertex, _break_hop, _share_vertex)


@st.composite
def linkage_cases(draw):
    """(host, pairing, linkage): a linkage found by decide_linked, then zero
    to two mutations."""
    if draw(st.integers(0, 3)):
        d = draw(st.integers(2, 6))
        k = draw(st.sampled_from(range(max(1, (d + 1) // 2), 0, -1)))
        vertices = list(range(1 << d))
    else:
        d, k = 0, draw(st.sampled_from((2, 1)))
        vertices = pyramid2_quad().vertex_list()
    r = draw(st.integers(0, min(2, len(vertices) - 2 * k)))
    chosen = draw(st.lists(st.sampled_from(vertices), min_size=2 * k + r,
                           max_size=2 * k + r, unique=True))
    terminals, removed = chosen[:2 * k], frozenset(chosen[2 * k:])
    G = CubeGraph(d, removed) if d else pyramid2_quad().without(removed)
    Y = Pairing(tuple(zip(terminals[::2], terminals[1::2])))
    out = decide_linked(G, Y)
    assume(out.status == LINKED)
    L = [list(path) for path in out.linkage]
    for _ in range(draw(st.sampled_from((0, 1, 1, 1, 2)))):
        if L:
            draw(st.sampled_from(MUTATIONS))(draw, G, L, vertices)
    return G, Y, L


@settings(max_examples=400, deadline=None)
@given(linkage_cases())
def test_reports_match_the_reference(case):
    G, Y, L = case
    try:
        want = reference_validate_linkage(G, Y, L)
    except TypeError:
        assume(False)
    assert validate_linkage(G, Y, L) == want
