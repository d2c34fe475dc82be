from __future__ import annotations

import ast
import hashlib
import inspect
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from enum import IntEnum
from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

from cubelink import path_oracle
from cubelink.certifier import sample_instances
from cubelink.cube_core import CubeGraph, link_graph
from cubelink.path_oracle import (
    BUDGET_EXCEEDED,
    DEFAULT_NODE_BUDGET,
    LINKED,
    NEIGHBORHOOD,
    NOT_SEPARATOR,
    UNLINKED,
    InvariantError,
    Pairing,
    avoid_path,
    check_separator_structure,
    decide_linked,
    fixture_graph,
    host_from_json,
    host_to_json,
    instance_to_json,
    linkage_from_json,
    linkage_to_json,
    max_shared_neighbors,
    menger_disjoint_paths,
    pairing_from_json,
    parse_instance,
    pyramid2_quad,
    validate_linkage,
)


class TestPairing:
    def test_fields(self):
        Y = Pairing(((0, 7), (1, 6)))
        assert Y.k == 2
        assert Y.terminals == (0, 7, 1, 6)

    def test_duplicate_terminal_rejected(self):
        with pytest.raises(ValueError, match="0"):
            Pairing(((0, 7), (0, 6)))
        with pytest.raises(ValueError):
            Pairing(((3, 3),))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Pairing(())

    def test_list_input_normalized(self):
        Y = Pairing(tuple([[0, 7], [1, 6]]))
        assert Y.pairs == ((0, 7), (1, 6))


class TestAvoidPath:
    def test_shortest_detour(self):
        G = CubeGraph(3)
        assert avoid_path(G, 0b000, 0b011, {0b001, 0b010}) == [0, 4, 5, 7, 3]
        assert avoid_path(G, 0b000, 0b111, {0b001, 0b010}) == [0, 4, 5, 7]

    def test_trivial_and_direct(self):
        G = CubeGraph(3)
        assert avoid_path(G, 5, 5, set()) == [5]
        assert avoid_path(G, 0, 1, set()) == [0, 1]

    def test_disconnected(self):
        G = CubeGraph(2)
        assert avoid_path(G, 0, 3, {1, 2}) is None

    def test_endpoint_errors(self):
        G = CubeGraph(3)
        with pytest.raises(ValueError):
            avoid_path(G, 0, 7, {0})
        with pytest.raises(ValueError):
            avoid_path(G, 0, 9, set())

    def test_respects_removed_vertices(self):
        G = CubeGraph(3, frozenset({1, 2}))
        assert avoid_path(G, 0, 3, set()) == [0, 4, 5, 7, 3]


class TestMenger:
    def test_fan_from_one_vertex(self):
        r = menger_disjoint_paths(CubeGraph(3), [0], [7], 3)
        assert r.complete
        assert r.paths == [[0, 1, 3, 7], [0, 2, 6, 7], [0, 4, 5, 7]]

    def test_fan_separator_is_neighborhood(self):
        r = menger_disjoint_paths(CubeGraph(3), [0], [7], 4)
        assert not r.complete
        assert r.flow == 3
        assert sorted(r.separator) == [1, 2, 4]

    def test_fan_allows_shared_start(self):
        r = menger_disjoint_paths(CubeGraph(4), [0, 15], [5, 10], 2)
        assert r.complete
        assert r.paths == [[0, 1, 5], [0, 2, 10]]

    def test_strict_distinct_starts(self):
        r = menger_disjoint_paths(CubeGraph(4), [0, 15], [5, 10], 2, strict=True)
        assert r.paths == [[0, 1, 5], [15, 11, 10]]
        r = menger_disjoint_paths(CubeGraph(3), [0, 1], [6, 7], 2, strict=True)
        assert r.paths == [[0, 2, 6], [1, 3, 7]]

    def test_overlap_becomes_trivial_path(self):
        r = menger_disjoint_paths(CubeGraph(3), [0, 3], [3, 7], 2)
        assert r.complete
        assert [3] in r.paths

    def test_strict_incomplete_has_no_separator(self):
        # only two strict paths fit from a 3-set into {0}'s neighborhood
        r = menger_disjoint_paths(CubeGraph(3), [3, 5, 6], [1, 2], 3, strict=True)
        assert not r.complete
        assert r.separator is None

    def test_paths_meet_terminal_sets_only_at_ends(self):
        A, B = [0, 3], [12, 15]
        r = menger_disjoint_paths(CubeGraph(4), A, B, 2, strict=True)
        assert r.complete
        for p in r.paths:
            assert p[0] in A and p[-1] in B
            assert not set(p[1:]) & set(A)
            assert not set(p[:-1]) & set(B)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            menger_disjoint_paths(CubeGraph(3), [0], [7], 0)
        with pytest.raises(ValueError):
            menger_disjoint_paths(CubeGraph(3), [], [7], 1)
        with pytest.raises(ValueError):
            menger_disjoint_paths(CubeGraph(3), [0], [9], 1)

    def test_adjacent_sets_have_no_separator_witness(self):
        # an A-B edge makes a separating set outside A and B impossible
        with pytest.raises(ValueError, match="no separator"):
            menger_disjoint_paths(CubeGraph(2), [0], [1, 2], 3)

    def test_named_edge_is_independent_of_the_hash_seed(self):
        # three A-B edges on string vertices: the message names the least
        # one, a1-b1, whatever order the hash seed gives the set A
        script = (
            "from cubelink.path_oracle import fixture_graph, menger_disjoint_paths\n"
            "G = fixture_graph('abx', [('a1', 'b1'), ('a2', 'b2'), ('a3', 'b3'),"
            " ('a1', 'x')])\n"
            "try:\n"
            "    menger_disjoint_paths(G, ['a1', 'a2', 'a3'], ['b1', 'b2', 'b3'], 4)\n"
            "except ValueError as exc:\n"
            "    print(exc)\n")
        src = os.path.dirname(os.path.dirname(path_oracle.__file__))
        messages = set()
        for seed in ("1", "2", "3", "4", "5"):
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
            proc = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, timeout=60)
            assert proc.returncode == 0, proc.stderr
            messages.add(proc.stdout.strip())
        assert len(messages) == 1
        assert "(edge 'a1'-'b1')" in messages.pop()

    def test_even_reduction_shape(self):
        # a 2k-set routes onto a facet with distinct landing spots
        d = 6
        F_vertices = frozenset(v for v in range(1 << d) if not v >> (d - 1) & 1)
        X = [0, 63, 1, 62, 3, 60]
        r = menger_disjoint_paths(CubeGraph(d), X, F_vertices, len(X), strict=True)
        assert r.complete
        starts = [p[0] for p in r.paths]
        assert sorted(starts) == sorted(X)
        ends = [p[-1] for p in r.paths]
        assert len(set(ends)) == len(ends)
        for p in r.paths:
            # only the landing vertex lies in the facet
            assert [v for v in p if v in F_vertices] == [p[-1]]

    def test_outputs_match_pinned_digest(self):
        rows = []
        for G, A, B, count, strict in _menger_draws():
            try:
                r = menger_disjoint_paths(G, A, B, count, strict=strict)
            except ValueError as exc:
                # pinned up to the named A-B edge, which, when this digest
                # was recorded, followed the hash seed's set order
                rows.append(["ValueError", str(exc).split(" (edge")[0]])
            else:
                rows.append([r.paths, r.separator, r.complete])
        kinds = Counter("error" if row[0] == "ValueError" else
                        "complete" if row[2] else
                        "cut" if row[1] is not None else "strict" for row in rows)
        assert (kinds["complete"], kinds["strict"], kinds["cut"],
                kinds["error"]) == PINNED_MENGER_KINDS
        assert _sha256(rows) == PINNED_MENGER_DIGEST


@st.composite
def menger_fixture_cases(draw):
    """(host, A, B): a random graph on 3-9 string vertices, disjoint
    nonempty terminal sets A and B, and up to two other vertices removed;
    in about half the draws no edge joins A to B."""
    names = [f"v{i}" for i in range(draw(st.integers(3, 9)))]
    A = draw(st.lists(st.sampled_from(names), min_size=1, max_size=3, unique=True)
             .filter(lambda A: len(A) < len(names)))
    rest = [v for v in names if v not in A]
    B = draw(st.lists(st.sampled_from(rest), min_size=1, max_size=3, unique=True))
    inner = [v for v in rest if v not in B]
    removed = draw(st.lists(st.sampled_from(inner), max_size=2)) if inner else []
    touching = draw(st.booleans())
    pairs = [(u, w) for u, w in combinations(names, 2) if touching
             or not (u in A and w in B or u in B and w in A)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    G = fixture_graph("random", [e for e, k in zip(pairs, keep) if k], names)
    return G.without(removed), A, B


class TestMengerFixtureCuts:
    @settings(max_examples=300, deadline=None)
    @given(menger_fixture_cases())
    def test_fan_separator_is_a_minimum_cut(self, case):
        G, A, B = case
        V = G.vertex_list()
        touching = any(b in G.neighbors(a) for a in A for b in B)
        try:
            r = menger_disjoint_paths(G, A, B, len(V))
        except ValueError as exc:
            assert touching and "no separator witness" in str(exc)
            return
        # only A-B edges are paths without an inner vertex of their own,
        # so without one len(V) paths never fit
        if r.complete:
            assert touching
            return
        sep = set(r.separator)
        assert not sep & (set(A) | set(B) | G.removed)
        assert all(G.has_vertex(v) for v in sep)
        assert len(sep) == r.flow
        assert all(avoid_path(G, a, b, sep) is None for a in A for b in B)
        inner = [v for v in V if v not in A and v not in B]
        for S in combinations(inner, r.flow - 1) if r.flow else ():
            assert any(avoid_path(G, a, b, S) is not None for a in A for b in B), S


def _menger_draws():
    """A seeded set of (host, A, B, count, strict) for menger_disjoint_paths:
    Q2-Q5 and random fixture graphs of 3-12 vertices, each minus 0-2
    vertices, with terminal sets that may overlap or touch, in fan and
    strict mode."""
    rng = random.Random("menger_disjoint_paths/golden")
    out = []
    for i in range(2400):
        if i % 2:
            G = CubeGraph(rng.randint(2, 5))
        else:
            names = [f"v{j}" for j in range(rng.randint(3, 12))]
            p = rng.uniform(0.2, 0.7)
            G = fixture_graph("random", [e for e in combinations(names, 2)
                                         if rng.random() < p], names)
        G = G.without(rng.sample(G.vertex_list(), rng.randint(0, 2)))
        V = G.vertex_list()
        A = rng.sample(V, rng.randint(1, min(3, len(V))))
        pool = [v for v in V if v not in A] if rng.random() < 0.8 else V
        pool = pool or V
        B = rng.sample(pool, rng.randint(1, min(3, len(pool))))
        out.append((G, A, B, rng.randint(1, 6), rng.random() < 0.5))
    return out


# Recorded with the router that rebuilt a flow map from the decomposed paths
# and ran a second residual search to find the cut.
PINNED_MENGER_KINDS = (919, 907, 134, 440)
PINNED_MENGER_DIGEST = "1438bf31b4a43a6526c9cc3556a9c956cfd064aed6b7fcf22e88116432d3315e"


class _Vertex(IntEnum):
    ONE = 1
    SIX = 6


class TestDecideLinked:
    def test_linked_q3(self):
        out = decide_linked(CubeGraph(3), Pairing(((0b000, 0b110), (0b011, 0b101))))
        assert out.status == LINKED
        assert bool(out)
        report = validate_linkage(CubeGraph(3), Pairing(((0, 6), (3, 5))), out.linkage)
        assert report.ok

    def test_unlinked_q3(self):
        out = decide_linked(CubeGraph(3), Pairing(((0b000, 0b110), (0b100, 0b010))))
        assert out.status == UNLINKED
        assert not bool(out)
        assert out.linkage is None
        assert out.pair_order

    def test_exactly_six_unlinked_q3_pairings(self):
        from cubelink.certifier import exhaustive_instances

        bad = []
        for inst in exhaustive_instances("cube:3", 2):
            if decide_linked(CubeGraph(3), inst.pairing).status == UNLINKED:
                bad.append(inst.pairing.pairs)
        assert bad == [
            ((0, 3), (1, 2)),
            ((0, 5), (1, 4)),
            ((0, 6), (2, 4)),
            ((1, 7), (3, 5)),
            ((2, 7), (3, 6)),
            ((4, 7), (5, 6)),
        ]

    def test_budget_exhaustion_is_distinct(self):
        out = decide_linked(CubeGraph(4), Pairing(((0, 15), (1, 14))), budget=3)
        assert out.status == BUDGET_EXCEEDED
        assert not bool(out)
        assert out.nodes_used >= 3

    def test_terminal_validation(self):
        with pytest.raises(ValueError):
            decide_linked(CubeGraph(3, frozenset({1})), Pairing(((0, 1),)))

    @pytest.mark.parametrize("G, terminal, other", [
        (CubeGraph(3), True, 6),
        (CubeGraph(3), 1.0, 6),
        (CubeGraph(3), "1", 6),
        (CubeGraph(3), 8, 6),
        (CubeGraph(3), -1, 6),
        (CubeGraph(3, frozenset({1})), 1, 6),
        (pyramid2_quad(), 1, "y"),
        (pyramid2_quad().without({"x"}), "x", "y"),
    ], ids=["bool", "float", "str", "past-top", "negative", "removed",
            "fixture-int", "fixture-removed"])
    def test_terminals_follow_the_membership_rule(self, G, terminal, other):
        # validate_linkage's MEMBERSHIP rule, before any search: a bool
        # terminal once gave a LINKED witness that validate_linkage rejects,
        # and a float or str one a TypeError from inside the search
        Y = Pairing(((terminal, other),))
        assert validate_linkage(G, Y, [[terminal, other]]).clause == "MEMBERSHIP"
        with pytest.raises(ValueError) as info:
            decide_linked(G, Y)
        assert type(info.value) is ValueError
        assert str(info.value) == \
            f"terminal {terminal!r} is not a usable vertex of the host"

    def test_int_subclass_terminals_are_usable(self):
        # _member accepts any int but a bool, so a terminal that fails the
        # plain-int fast test is still usable when it is an int subclass
        G = CubeGraph(4, frozenset({5}))
        Y = Pairing(((_Vertex.ONE, _Vertex.SIX), (0, 15)))
        out = decide_linked(G, Y)
        assert out.status == LINKED
        assert out.linkage[0][0] is _Vertex.ONE
        assert validate_linkage(G, Y, out.linkage).ok
        assert out == decide_linked(G, Pairing(((1, 6), (0, 15))))

    def test_interior_never_crosses_other_terminals(self):
        out = decide_linked(CubeGraph(4), Pairing(((0, 15), (5, 10))))
        assert out.status == LINKED
        terms = {0, 15, 5, 10}
        for path, (s, t) in zip(out.linkage, ((0, 15), (5, 10))):
            assert not (set(path[1:-1]) & terms)

    def test_deterministic(self):
        Y = Pairing(((0, 30), (3, 29), (7, 24)))
        a = decide_linked(CubeGraph(5), Y)
        b = decide_linked(CubeGraph(5), Y)
        assert a.linkage == b.linkage


class TestSeparatorStructure:
    def test_neighborhood_detected(self):
        rep = check_separator_structure(3, [1, 2, 4])
        assert rep.kind == NEIGHBORHOOD
        assert rep.center == 0

    def test_non_separator(self):
        rep = check_separator_structure(3, [1, 2, 3])
        assert rep.kind == NOT_SEPARATOR

    def test_exhaustive_q3_triples(self):
        from itertools import combinations

        kinds = {NEIGHBORHOOD: 0, NOT_SEPARATOR: 0}
        for S in combinations(range(8), 3):
            rep = check_separator_structure(3, S)
            kinds[rep.kind] += 1
        # separating triples are exactly the eight vertex neighborhoods
        assert kinds == {NEIGHBORHOOD: 8, NOT_SEPARATOR: 48}

    def test_size_must_match_dimension(self):
        with pytest.raises(ValueError):
            check_separator_structure(3, [1, 2])


class TestSharedNeighbors:
    def test_distance_two_pairs_share_two(self):
        assert max_shared_neighbors(3, 0, 3) == 2
        assert max_shared_neighbors(4, 0b0101, 0b0110) == 2

    def test_other_distances_share_none(self):
        assert max_shared_neighbors(3, 0, 1) == 0
        assert max_shared_neighbors(3, 0, 7) == 0
        assert max_shared_neighbors(4, 0, 15) == 0

    def test_identical_rejected(self):
        with pytest.raises(ValueError):
            max_shared_neighbors(3, 5, 5)

    def test_bound_exhaustive_q4(self):
        from itertools import combinations

        assert all(
            max_shared_neighbors(4, u, v) <= 2 for u, v in combinations(range(16), 2)
        )


class TestValidateLinkage:
    G = CubeGraph(3)
    Y = Pairing(((0, 3), (4, 6)))
    good = [[0, 1, 3], [4, 6]]

    def test_valid(self):
        report = validate_linkage(self.G, self.Y, self.good)
        assert report.ok
        assert bool(report)

    def test_path_count(self):
        report = validate_linkage(self.G, self.Y, [[0, 1, 3]])
        assert report.clause == "PATH_COUNT"

    def test_endpoints_either_orientation(self):
        report = validate_linkage(self.G, self.Y, [[3, 1, 0], [6, 4]])
        assert report.ok

    def test_endpoint_mismatch(self):
        report = validate_linkage(self.G, self.Y, [[0, 1, 3], [4, 5]])
        assert report.clause == "ENDPOINTS"

    def test_membership(self):
        host = CubeGraph(3, frozenset({1}))
        report = validate_linkage(host, self.Y, self.good)
        assert report.clause == "MEMBERSHIP"
        assert report.witness == 1

    def test_repeat(self):
        report = validate_linkage(self.G, self.Y, [[0, 1, 0, 1, 3], [4, 6]])
        assert report.clause == "REPEAT"

    def test_adjacency(self):
        report = validate_linkage(self.G, self.Y, [[0, 3], [4, 6]])
        assert report.clause == "ADJACENCY"

    def test_disjointness(self):
        Y = Pairing(((0, 3), (1, 5)))
        report = validate_linkage(self.G, Y, [[0, 2, 3], [1, 3, 7, 5]])
        assert report.clause == "DISJOINTNESS"
        assert report.witness == 3

    def test_clause_order_endpoints_before_adjacency(self):
        # both endpoint and adjacency defects: the endpoint clause wins
        report = validate_linkage(self.G, self.Y, [[0, 5], [4, 6]])
        assert report.clause == "ENDPOINTS"

    def test_fixture_hop_that_is_no_edge(self):
        G = pyramid2_quad()
        report = validate_linkage(G, Pairing((("s1", "t1"),)), [["s1", "t1"]])
        assert report.clause == "ADJACENCY"
        assert report.witness == ("s1", "t1")

    def test_clause_order_membership_before_adjacency(self):
        # hop 0-5 is no edge and comes first on the path, but vertex 1 is
        # forbidden: the membership clause wins
        host = CubeGraph(3, frozenset({1}))
        report = validate_linkage(host, self.Y, [[0, 5, 1, 3], [4, 6]])
        assert report.clause == "MEMBERSHIP"
        assert report.witness == 1

    def test_out_of_range_cube_vertex(self):
        # every hop flips one bit, but 8 and 9 lie outside Q3
        report = validate_linkage(self.G, self.Y, [[0, 8, 9, 1, 3], [4, 6]])
        assert report.clause == "MEMBERSHIP"
        assert report.witness == 8

    @pytest.mark.parametrize("G, pair, path, clause, witness", [
        # on a cube a vertex is what check_vertex accepts: an int, not a bool
        (CubeGraph(3), (0, 3), [0, 1.0, 3], "MEMBERSHIP", 1.0),
        (CubeGraph(3), (0, 3), [0, "1", 3], "MEMBERSHIP", "1"),
        (CubeGraph(3), (0, 1), [0, True], "MEMBERSHIP", True),
        (CubeGraph(3), (0, 3), [[0], 1, 3], "ENDPOINTS", 0),
        (pyramid2_quad(), ("s1", "t1"), ["s1", ["x"], "t1"], "MEMBERSHIP", ["x"]),
        (pyramid2_quad(), ("s1", "t1"), [["s1"], "x", "t1"], "ENDPOINTS", 0),
        (CubeGraph(3), (0, 2), [0, -1, 2], "MEMBERSHIP", -1),
        (CubeGraph(3), (0, 8), [0, 8], "MEMBERSHIP", 8),
        (CubeGraph(3, frozenset({1})), (0, 3), [0, 1, 3], "MEMBERSHIP", 1),
    ])
    def test_non_vertex_elements_are_reported(self, G, pair, path, clause, witness):
        report = validate_linkage(G, Pairing((pair,)), [path])
        assert (report.ok, report.clause, report.witness) == (False, clause, witness)
        assert type(report.witness) is type(witness)


class TestFixtures:
    def test_pyramid_shape(self):
        G = pyramid2_quad()
        assert G.vertex_count == 6
        assert G.vertex_list() == ["s1", "s2", "t1", "t2", "x", "y"]
        assert G.neighbors("x") == ["s1", "s2", "t1", "t2", "y"]
        assert G.neighbors("s1") == ["s2", "t2", "x", "y"]
        assert "t1" not in G.neighbors("s1")
        assert G.without({"y", "t2"}).neighbors("x") == ["s1", "s2", "t1"]

    def test_pyramid_is_2_linked_but_not_strongly(self):
        G = pyramid2_quad()
        crossing = Pairing((("s1", "t1"), ("s2", "t2")))
        assert decide_linked(G, crossing).status == LINKED
        assert decide_linked(G.without({"x"}), crossing).status == UNLINKED

    def test_fixture_graph_rejects_self_loop(self):
        with pytest.raises(ValueError):
            fixture_graph("bad", [("a", "a")])

    def test_isolated_vertex(self):
        G = fixture_graph("iso", [("a", "b")], vertices=("c",))
        assert G.vertex_list() == ["a", "b", "c"]
        assert G.neighbors("c") == []


class TestJson:
    def test_cube_host_round_trip(self):
        G = CubeGraph(4, frozenset({3}))
        obj = host_to_json(G)
        assert obj == {"type": "cube", "d": 4, "forbidden": ["0011"]}
        assert host_from_json(obj) == G

    def test_graph_host_round_trip(self):
        G = pyramid2_quad().without({"y"})
        back = host_from_json(host_to_json(G))
        assert back.vertex_list() == G.vertex_list()
        assert back.neighbors("x") == G.neighbors("x")

    def test_instance_round_trip(self):
        G = CubeGraph(3)
        Y = Pairing(((0, 7), (1, 6)))
        obj = instance_to_json(G, Y)
        G2, Y2 = parse_instance(obj)
        assert G2 == G
        assert Y2 == Y

    def test_linkage_round_trip(self):
        G = CubeGraph(3)
        L = [[0, 1, 3], [4, 6]]
        assert linkage_from_json(G, linkage_to_json(G, L)) == L

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_instance({"pairs": []})
        with pytest.raises(ValueError):
            host_from_json({"type": "torus"})
        with pytest.raises(ValueError):
            pairing_from_json(CubeGraph(3), [["000"]])


class TestOracleProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_decide_symmetric_under_swaps(self, data):
        terms = data.draw(
            st.lists(st.integers(0, 15), min_size=4, max_size=4, unique=True)
        )
        Y1 = Pairing(((terms[0], terms[1]), (terms[2], terms[3])))
        Y2 = Pairing(((terms[1], terms[0]), (terms[2], terms[3])))
        Y3 = Pairing(((terms[2], terms[3]), (terms[0], terms[1])))
        G = CubeGraph(4)
        s1 = decide_linked(G, Y1).status
        assert decide_linked(G, Y2).status == s1
        assert decide_linked(G, Y3).status == s1

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_linked_witness_validates(self, data):
        terms = data.draw(
            st.lists(st.integers(0, 31), min_size=6, max_size=6, unique=True)
        )
        Y = Pairing(((terms[0], terms[1]), (terms[2], terms[3]), (terms[4], terms[5])))
        out = decide_linked(CubeGraph(5), Y)
        assert out.status == LINKED
        assert validate_linkage(CubeGraph(5), Y, out.linkage).ok


@st.composite
def reach_cases(draw):
    """(host, s, t, used, blocked): a cube minus vertices, a vertex link, or
    a random fixture graph, with s != t and random used and blocked sets
    that hold neither t nor s, except that used may hold s, as it holds
    the path end in decide_linked."""
    kind = draw(st.sampled_from(["cube", "link", "fixture"]))
    if kind == "cube":
        d = draw(st.integers(1, 8))
        G = CubeGraph(d, frozenset(draw(
            st.lists(st.integers(0, (1 << d) - 1), max_size=1 << (d - 1)))))
    elif kind == "link":
        d = draw(st.integers(2, 8))
        G = link_graph(d, draw(st.integers(0, (1 << d) - 1)))
    else:
        names = [f"v{i}" for i in range(draw(st.integers(2, 12)))]
        edges = draw(st.lists(st.tuples(st.sampled_from(names),
                                        st.sampled_from(names))
                              .filter(lambda e: e[0] != e[1]), max_size=30))
        G = fixture_graph("random", edges, names)
        G = G.without(draw(st.lists(st.sampled_from(names),
                                    max_size=len(names) - 2)))
    vertices = G.vertex_list()
    assume(len(vertices) >= 2)
    s, t = draw(st.lists(st.sampled_from(vertices), min_size=2, max_size=2,
                         unique=True))
    rest = [v for v in vertices if v not in (s, t)]
    pick = st.lists(st.sampled_from(rest), max_size=len(rest)) if rest else st.just([])
    used = set(draw(pick)) | ({s} if draw(st.booleans()) else set())
    return G, s, t, used, frozenset(draw(pick))


def _check_bfs_witness(G, s, t, used, blocked):
    """_bfs_witness finds a path exactly when avoid_path does, and its
    witness is a simple path from s of allowed vertices that ends at t."""
    want = avoid_path(G, s, t, (used | blocked) - {s}) is not None
    witness = path_oracle._bfs_witness(G, s, t, used, blocked)
    assert (witness is not None) == want
    if witness is not None:
        route = [s] + witness
        assert route[-1] == t and len(set(route)) == len(route)
        for a, b in zip(route, route[1:]):
            assert b in G.neighbors(a)
            assert G.has_vertex(b) and b not in used and b not in blocked


@st.composite
def cut_cases(draw):
    """(host, s, t, used, blocked, start_used, detour) on Q2-Q8, Q_d minus
    one vertex, or a vertex link.  s and t lie outside used and blocked;
    start_used takes s out of the allowed set too, as the path end is in
    decide_linked.  About a third of the draws (detour) block every
    neighbour of s closer to t and keep a path through a farther neighbour
    u = s ^ e free, so the walk sticks at once while t stays reachable."""
    kind = draw(st.sampled_from(["cube", "removed", "link"]))
    detour = draw(st.integers(0, 2)) == 0
    d = draw(st.integers(3 if detour else 2, 8))
    n = 1 << d
    if kind == "cube":
        G = CubeGraph(d)
    elif kind == "removed":
        G = CubeGraph(d, frozenset({draw(st.integers(0, n - 1))}))
    else:
        G = link_graph(d, draw(st.integers(0, n - 1)))
    vertices = G.vertex_list()
    s = draw(st.sampled_from(vertices))
    keep = {s}
    forced = set()
    if detour:
        bits = draw(st.permutations([1 << i for i in range(d)]))
        split = draw(st.integers(2, d - 1))
        differ, e = sum(bits[:split]), bits[split]
        t = s ^ differ
        route = [s ^ e]
        for b in bits[:split]:
            route.append(route[-1] ^ b)
        route.append(t)
        assume(all(G.has_vertex(v) for v in route))
        keep.update(route)
        forced = {s ^ b for b in bits[:split] if G.has_vertex(s ^ b)}
    else:
        t = draw(st.sampled_from([v for v in vertices if v != s]))
        keep.add(t)
    rest = [v for v in vertices if v not in keep]
    pick = st.lists(st.sampled_from(rest), max_size=len(rest)) if rest else st.just([])
    used = frozenset(draw(pick))
    blocked = frozenset(draw(pick)) | forced
    return G, s, t, used, blocked, draw(st.booleans()), detour


class TestBfsWitness:
    @settings(max_examples=300, deadline=None)
    @given(reach_cases())
    def test_matches_avoid_path(self, case):
        _check_bfs_witness(*case)

    @settings(max_examples=300, deadline=None)
    @given(cut_cases())
    def test_matches_avoid_path_on_cut_cases(self, case):
        G, s, t, used, blocked, start_used, _ = case
        used = set(used) | ({s} if start_used else set())
        _check_bfs_witness(G, s, t, used, blocked | G.removed)


class TestCutTest:
    """The incremental search's reachability test answers exactly what a
    plain BFS does, and every witness it returns is a path of allowed
    vertices; every walk that arrives is a shortest one."""

    @settings(max_examples=300, deadline=None)
    @given(cut_cases())
    def test_matches_avoid_path(self, case):
        G, s, t, used, blocked, start_used, detour = case
        used = set(used) | ({s} if start_used else set())
        barred = blocked | G.removed
        want = avoid_path(G, s, t, (used | blocked) - {s}) is not None
        witness = path_oracle._reach(G, s, t, used, barred)
        assert (witness is not None) == want
        if witness is not None:
            route = [s] + witness
            assert route[-1] == t and len(set(route)) == len(route)
            for a, b in zip(route, route[1:]):
                assert (a ^ b).bit_count() == 1
                assert G.has_vertex(b) and b not in used | blocked
        trail = path_oracle._cube_walk(G.d, s, t, used, barred)
        walk = [s] + trail
        for a, b in zip(walk, walk[1:]):  # arrived or stuck, each step
            assert (a ^ b).bit_count() == 1  # is a hop one step closer to t
            assert (b ^ t).bit_count() == (a ^ t).bit_count() - 1
            assert G.has_vertex(b) and b not in used | blocked
        if walk[-1] == t:  # an arriving walk is a shortest s-t path
            assert len(walk) == (s ^ t).bit_count() + 1
        if detour:
            assert not trail and want

    def test_free_descent_runs_no_bfs(self, monkeypatch):
        # no 2^d work on a free descent: the walks answer every re-test
        def refuse(*args):
            raise AssertionError("a free descent fell back to the BFS")

        monkeypatch.setattr(path_oracle, "_bfs_witness", refuse)
        top = (1 << 20) - 1
        out = decide_linked(CubeGraph(20), Pairing(((0, top), (1, top ^ 1))))
        assert (out.status, out.nodes_used) == (LINKED, 42)

    def test_stuck_walk_falls_back_to_the_bfs(self, monkeypatch):
        hosts = []
        bfs = path_oracle._bfs_witness
        monkeypatch.setattr(path_oracle, "_bfs_witness",
                            lambda G, *args: hosts.append(G) or bfs(G, *args))
        out = decide_linked(CubeGraph(3), Pairing(((0b000, 0b110), (0b100, 0b010))))
        assert out.status == UNLINKED
        assert hosts and set(hosts) == {CubeGraph(3)}

    @pytest.mark.parametrize("end", ["target", "source"])
    def test_enclosed_end_of_q20_is_cut_at_the_first_node(self, end):
        # every neighbour of one end of pair 0 is a foreign terminal: the
        # walks stick and the BFS grown from that end runs out at once,
        # where a BFS from the other end alone would visit nearly all of Q20
        d, top = 20, (1 << 20) - 1
        enclosed = top if end == "target" else 0
        ring = [enclosed ^ 1 << i for i in range(d)]
        Y = Pairing(((0, top),) + tuple(zip(ring[::2], ring[1::2])))
        start = time.perf_counter()
        out = decide_linked(CubeGraph(d), Y)
        elapsed = time.perf_counter() - start
        assert (out.status, out.nodes_used) == (UNLINKED, 1)
        assert elapsed < 0.5


def _cubelink_imports(tree) -> set:
    """The cubelink modules that a module's import statements name."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:  # relative: inside the cubelink package
                module = "cubelink" + (f".{node.module}" if node.module else "")
            else:
                module = node.module
            if module == "cubelink":
                found.update(f"cubelink.{alias.name}" for alias in node.names)
            else:
                found.add(module)
    return {m for m in found if m == "cubelink" or m.startswith("cubelink.")}


class TestOracleIndependence:
    def test_imports_only_cube_core_from_cubelink(self):
        # The oracle is ground truth for the engine, so it may share the
        # cube's facts and nothing the engine computes with.
        tree = ast.parse(inspect.getsource(path_oracle))
        assert _cubelink_imports(tree) == {"cubelink.cube_core"}

    @pytest.mark.parametrize("line, module", [
        ("from .linkage_engine import _descent", "cubelink.linkage_engine"),
        ("from . import linkage_engine", "cubelink.linkage_engine"),
        ("import cubelink.linkage_engine", "cubelink.linkage_engine"),
        ("from cubelink import certifier", "cubelink.certifier"),
        ("import cubelink", "cubelink"),
    ])
    def test_finds_other_cubelink_imports(self, line, module):
        assert _cubelink_imports(ast.parse(f"def f():\n    {line}\n")) == {module}


def _closer_first(d, cur, t) -> list:
    return sorted((cur ^ (1 << i) for i in range(d)),
                  key=lambda w: ((w ^ t).bit_count(), w))


class TestCubeSteps:
    def test_matches_sort_key_exhaustively(self):
        for d in range(1, 8):
            for cur in range(1 << d):
                for t in range(1 << d):
                    assert list(path_oracle._cube_steps(d, cur, t)) == \
                        _closer_first(d, cur, t)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_sort_key_up_to_q20(self, data):
        d = data.draw(st.integers(1, 20))
        cur = data.draw(st.integers(0, (1 << d) - 1))
        t = data.draw(st.integers(0, (1 << d) - 1))
        assert list(path_oracle._cube_steps(d, cur, t)) == _closer_first(d, cur, t)

    def test_filters_as_the_sorted_order_exhaustively(self):
        rng = random.Random("cube_steps/filtered")
        for d in range(1, 6):
            every = range(1 << d)
            for cur in every:
                for t in every:
                    for _ in range(2):
                        used = set(rng.sample(every, rng.randrange(1 << d)))
                        blocked = set(rng.sample(every, rng.randrange(1 << d)))
                        assert list(path_oracle._cube_steps(d, cur, t, used, blocked)) == [
                            w for w in _closer_first(d, cur, t)
                            if w not in used and w not in blocked]

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_filters_as_the_sorted_order_up_to_q64(self, data):
        # no table bounds d: the order is read off the bits at any dimension
        d = data.draw(st.integers(1, 64))
        cur = data.draw(st.integers(0, (1 << d) - 1))
        t = data.draw(st.integers(0, (1 << d) - 1))
        bits = st.sets(st.integers(0, d - 1))
        used = {cur ^ 1 << i for i in data.draw(bits)}
        blocked = {cur ^ 1 << i for i in data.draw(bits)}
        assert list(path_oracle._cube_steps(d, cur, t, used, blocked)) == [
            w for w in _closer_first(d, cur, t) if w not in used and w not in blocked]

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_walk_takes_the_first_free_neighbour(self, data):
        # decide_linked returns the first node's walks as the search's own
        # first path; that rests on this equality, for arrived and stuck walks
        d = data.draw(st.integers(1, 64))
        s = data.draw(st.integers(0, (1 << d) - 1))
        t = data.draw(st.integers(0, (1 << d) - 1))
        density = st.sampled_from([0.0, 0.1, 0.3, 0.6])
        used = _CoinSet(data.draw(st.integers(0, 2**32)), data.draw(density))
        blocked = _CoinSet(data.draw(st.integers(0, 2**32)), data.draw(density))
        walk = [s] + _check_walk(d, s, t, used, blocked)
        if s != t:  # bar every closer neighbour of a vertex before t: stuck there
            j = data.draw(st.integers(0, len(walk) - 1 - (walk[-1] == t)))
            blocked.add.update(w for w in _closer_first(d, walk[j], t)
                               if (w ^ t).bit_count() < (walk[j] ^ t).bit_count())
            assert [s] + _check_walk(d, s, t, used, blocked) == walk[:j + 1]
            blocked.add.clear()
        while walk[-1] != t:  # free the stuck end's first closer neighbour
            free = _closer_first(d, walk[-1], t)[0]
            used.free.add(free)
            blocked.free.add(free)
            longer = [s] + _check_walk(d, s, t, used, blocked)
            assert longer[:len(walk) + 1] == walk + [free]
            walk = longer
        assert len(walk) == (s ^ t).bit_count() + 1


class _CoinSet:
    """A vertex set of any cube, each vertex in it by a seeded coin, except
    those in ``add`` (always in) and in ``free`` (never in)."""

    def __init__(self, seed: int, density: float) -> None:
        self.seed, self.cut = seed, int(density * 2**16)
        self.add, self.free = set(), set()

    def __contains__(self, w) -> bool:
        if w in self.free:
            return False
        return w in self.add or hash((self.seed, w)) & 0xFFFF < self.cut


def _check_walk(d, s, t, used, blocked) -> list:
    """_cube_walk(d, s, t, used, blocked), checked step by step: each step
    takes the first free neighbour in _closer_first order, and the walk
    stops exactly at t, or where that neighbour is missing or no closer."""
    trail = path_oracle._cube_walk(d, s, t, used, blocked)
    v = s
    for w in trail + [None]:
        free = [u for u in _closer_first(d, v, t) if u not in used and u not in blocked]
        closer = bool(free) and (free[0] ^ t).bit_count() < (v ^ t).bit_count()
        if w is None:
            assert v == t or not closer
        else:
            assert v != t and closer and w == free[0]
            v = w
    return trail


def _golden_instances():
    """A seeded set of (host, pairing, budget) covering every decide_linked
    branch: cube and fixture hosts, forbidden vertices, linked and unlinked
    verdicts, and a budget cut-off."""
    rng = random.Random("decide_linked/golden")
    out = []

    def random_pairing(G, k):
        X = rng.sample(G.vertex_list(), 2 * k)
        return Pairing(tuple(zip(X[::2], X[1::2])))

    for _ in range(120):
        G = CubeGraph(3)
        out.append((G, random_pairing(G, 2), DEFAULT_NODE_BUDGET))
    for forbidden in (0, 1, 2):
        for _ in range(40):
            G = CubeGraph(4, frozenset(rng.sample(range(16), forbidden)))
            out.append((G, random_pairing(G, 2), DEFAULT_NODE_BUDGET))
    for _ in range(20):
        G = CubeGraph(4)
        out.append((G, random_pairing(G, 3), DEFAULT_NODE_BUDGET))
    for _ in range(30):
        G = CubeGraph(5)
        out.append((G, random_pairing(G, 3), DEFAULT_NODE_BUDGET))
    for _ in range(30):
        G = link_graph(5, rng.randrange(32))
        out.append((G, random_pairing(G, 2), DEFAULT_NODE_BUDGET))
    pyramid = pyramid2_quad()
    for G in (pyramid, pyramid.without({"x"}), pyramid.without({"x", "y"})):
        for a, b, c, e in combinations(G.vertex_list(), 4):
            for pairs in (((a, b), (c, e)), ((a, c), (b, e)), ((a, e), (b, c))):
                out.append((G, Pairing(pairs), DEFAULT_NODE_BUDGET))
    out.append((CubeGraph(5), Pairing(((0, 31), (1, 30), (2, 29))), 10))
    return out


def _sha256(obj) -> str:
    return hashlib.sha256(json.dumps(obj, separators=(",", ":")).encode()).hexdigest()


PINNED_STATUSES = (377, 6, 1)
# The verdict list alone, recorded with the lowest-neighbor-first search that
# preceded the closer-to-target order: a neighbor order may move witnesses
# and node counts, never a verdict.
PINNED_STATUS_DIGEST = "b1995d9c4c9c9f2ddcf5ba1ff7f7a230c87d06653d23fac7a1d85dc5edff1b68"
# Recorded with the closer-to-target neighbor order.
PINNED_NODES = 2449
PINNED_DIGEST = "5321a367eb519c5429aa44de892c21a42cae457352abb7d820d7c7bf3729078e"


class TestDecideGolden:
    """decide_linked's search is pinned node for node: any change to its
    pruning must keep the same verdicts, witnesses and node counts."""

    def test_outcomes_match_pinned_digest(self):
        rows = []
        for G, Y, budget in _golden_instances():
            out = decide_linked(G, Y, budget=budget)
            rows.append([out.status, out.linkage, list(out.pair_order),
                         out.nodes_used])
        statuses = Counter(row[0] for row in rows)
        assert (statuses[LINKED], statuses[UNLINKED],
                statuses[BUDGET_EXCEEDED]) == PINNED_STATUSES
        assert _sha256([row[0] for row in rows]) == PINNED_STATUS_DIGEST
        assert sum(row[3] for row in rows) == PINNED_NODES
        assert _sha256(rows) == PINNED_DIGEST

    def test_antipodal_pairs_take_a_straight_descent(self):
        for d, nodes in ((12, 26), (16, 34), (20, 42)):
            top = (1 << d) - 1
            out = decide_linked(CubeGraph(d), Pairing(((0, top), (1, top ^ 1))))
            assert out.status == LINKED
            assert len(out.linkage[0]) == d + 1
            assert out.nodes_used == nodes

    # (host, k, strong, samples, seed): nodes and sha256 of [status, linkage]
    # per instance, recorded with the search that tested every unfinished
    # pair afresh at every node.
    SAMPLED_PINS = (
        ("cube:5", 3, False, 3000, 101, 32630,
         "eafde87255f92a531201e3a366ea1e72de6b5e4b516a1bf2684afc618a5f49fa"),
        ("cube:5", 2, True, 2000, 102, 14242,
         "2b0f41cd40c9c529b6cfaebb5343f3fc419dbe6e5cc686c8ed5b94584def314c"),
        ("link:6", 3, False, 1000, 103, 12164,
         "ed89f8d14f4521f2d04aa3fb59566e55ba8f3edc81aa5f40c0feeb9a70f08d83"),
        ("cube:6", 3, False, 1000, 104, 12320,
         "21647910b480a7d729cce26f14a9182257f290fa4947b06003dd9248b07f69ef"),
        ("pyramid2-quad", 2, True, 500, 105, 2096,
         "f7d5ff52d4bf78439517b48c7ce0efd544f6e9d5af414fd7ec7f2245d76d8866"),
    )

    @pytest.mark.parametrize("host, k, strong, n, seed, nodes, digest", SAMPLED_PINS,
                             ids=[f"{p[0]}-k{p[1]}" + "-strong" * p[2]
                                  for p in SAMPLED_PINS])
    def test_sampled_streams_match_pins(self, host, k, strong, n, seed, nodes, digest):
        rows, total = [], 0
        for inst in sample_instances(host, k, n, seed, strong=strong):
            out = decide_linked(inst.host_graph(), inst.pairing)
            rows.append([out.status, out.linkage])
            total += out.nodes_used
        assert total == nodes
        assert _sha256(rows) == digest

    def test_long_bare_path_fixture(self, monkeypatch):
        # One end-to-end pair on a 1,200-vertex path: the first node's BFS
        # grows from both ends until they meet, and its witness is the path
        # that every later node follows.
        calls = []
        bfs = path_oracle._bfs_witness
        monkeypatch.setattr(path_oracle, "_bfs_witness",
                            lambda *args: calls.append(args) or bfs(*args))
        names = [f"v{i:04d}" for i in range(1200)]
        G = fixture_graph("bare-path", zip(names, names[1:]))
        start = time.perf_counter()
        out = decide_linked(G, Pairing(((names[0], names[-1]),)))
        elapsed = time.perf_counter() - start
        assert out.status == LINKED
        assert out.linkage == [names]
        assert out.nodes_used == 1200
        assert elapsed < 10
        assert len(calls) == 1


def _reference_decide(G, Y) -> tuple:
    """(status, linkage, nodes_used) of a plain recursive search for a
    linkage, which re-tests every unfinished pair afresh at every node.

    It counts one node per placed path end, each pair's source included
    when that pair starts.  At every node short of its target it runs
    avoid_path for each unfinished pair, the routed pair from its end and
    the later pairs from their sources, around the used vertices and the
    other terminals, and gives up the node when one of them finds no path.
    It tries an end's neighbours in order of (distance to the target,
    vertex): Hamming distance on a cube, BFS distance on a fixture host,
    with the vertices that cannot reach the target last."""
    pairs = Y.pairs
    k = len(pairs)
    others = [frozenset(Y.terminals) - set(pair) for pair in pairs]
    if isinstance(G, CubeGraph):
        def order(v, t):
            return sorted(G.neighbors(v), key=lambda w: ((w ^ t).bit_count(), w))
    else:
        dist = {}
        for _, t in pairs:
            dist[t] = {t: 0}
            queue = [t]
            for v in queue:
                for w in G.neighbors(v):
                    if w not in dist[t]:
                        dist[t][w] = dist[t][v] + 1
                        queue.append(w)

        def order(v, t):
            return sorted(G.neighbors(v),
                          key=lambda w: (dist[t].get(w, len(G.adjacency)), w))

    paths, used, nodes = [[pairs[0][0]]], {pairs[0][0]}, 0

    def place(i, v) -> bool:  # v is the new end of pair i's path
        nonlocal nodes
        nodes += 1
        if v == pairs[i][1]:
            if i + 1 == k:
                return True
            s = pairs[i + 1][0]
            paths.append([s])
            used.add(s)
            if place(i + 1, s):
                return True
            paths.pop()
            used.discard(s)
            return False
        for j in range(i, k):
            s = v if j == i else pairs[j][0]
            if avoid_path(G, s, pairs[j][1], (used | others[j]) - {s}) is None:
                return False
        for w in order(v, pairs[i][1]):
            if w in used or w in others[i]:
                continue
            paths[i].append(w)
            used.add(w)
            if place(i, w):
                return True
            paths[i].pop()
            used.discard(w)
        return False

    if place(0, pairs[0][0]):
        return LINKED, paths, nodes
    return UNLINKED, None, nodes


def _reference_draws(n: int) -> list:
    """n seeded (host, pairing) draws: Q2-Q5 with 0-2 removed vertices,
    vertex links of Q3-Q5, and random fixture graphs on 4-10 vertices, each
    with k = 1..3 pairs (as many as the host's vertices allow)."""
    rng = random.Random("decide_linked/reference")
    out = []
    for _ in range(n):
        kind = rng.choice(["cube", "link", "fixture"])
        if kind == "cube":
            d = rng.randint(2, 5)
            G = CubeGraph(d, frozenset(rng.sample(range(1 << d), rng.randint(0, 2))))
        elif kind == "link":
            d = rng.randint(3, 5)
            G = link_graph(d, rng.randrange(1 << d))
        else:
            names = [f"v{i}" for i in range(rng.randint(4, 10))]
            density = rng.uniform(0.2, 0.8)
            G = fixture_graph("random", [e for e in combinations(names, 2)
                                         if rng.random() < density], names)
        vertices = G.vertex_list()
        k = rng.randint(1, min(3, len(vertices) // 2))
        X = rng.sample(vertices, 2 * k)
        out.append((G, Pairing(tuple(zip(X[::2], X[1::2])))))
    return out


class TestDecideReference:
    """decide_linked's node counts, verdicts and witnesses are those of a
    search that re-tests every pair at every node: its witnesses only skip
    re-tests whose answer they already know."""

    def test_matches_reference_search(self):
        mismatches = []
        for G, Y in _reference_draws(20000):
            out = decide_linked(G, Y)
            got = (out.status, out.linkage, out.nodes_used)
            if got != _reference_decide(G, Y):
                mismatches.append((G, Y))
        assert not mismatches, (len(mismatches), mismatches[:3])

    def test_popped_pair_on_a_link(self):
        # backtracking pops the paths of pairs 1 and 2 here; a witness kept
        # from a popped path would spare a cut state and cost nodes
        G = link_graph(4, 4)
        assert G.removed == {4, 11}
        Y = Pairing(((13, 1), (5, 0), (3, 12)))
        out = decide_linked(G, Y)
        assert (out.status, out.linkage, out.nodes_used) == _reference_decide(G, Y)
        assert out.nodes_used == 21

    # (host, k, samples, seed): nodes, _cube_witness calls, _bfs_witness calls
    RETEST_PINS = (
        ("cube:5", 3, 5000, 11, 54292, 2321, 39),
        ("pyramid2-quad", 2, 2000, 11, 8532, 0, 4048),
    )

    @pytest.mark.parametrize("host, k, n, seed, nodes, cube, bfs", RETEST_PINS,
                             ids=[p[0] for p in RETEST_PINS])
    def test_retest_counts_match_pins(self, monkeypatch, host, k, n, seed,
                                      nodes, cube, bfs):
        calls = Counter()
        for name in ("_cube_witness", "_bfs_witness"):
            def spy(*args, name=name, test=getattr(path_oracle, name)):
                calls[name] += 1
                return test(*args)
            monkeypatch.setattr(path_oracle, name, spy)
        total = sum(decide_linked(inst.host_graph(), inst.pairing).nodes_used
                    for inst in sample_instances(host, k, n, seed))
        assert (total, calls["_cube_witness"], calls["_bfs_witness"]) == (nodes, cube, bfs)


class TestFirstNodeWalks:
    """On a cube, decide_linked returns the first node's walks unsearched
    when they are disjoint and fit the budget; the outcome is the one the
    search reaches by stepping along them."""

    def test_budget_boundary(self, monkeypatch):
        calls = []
        for name in ("_cube_witness", "_bfs_witness"):
            def spy(*args, test=getattr(path_oracle, name)):
                calls.append(args)
                return test(*args)
            monkeypatch.setattr(path_oracle, name, spy)
        answered = 0
        for inst in sample_instances("cube:5", 3, 300, 21):
            G, Y = inst.host_graph(), inst.pairing
            calls.clear()
            out = decide_linked(G, Y)
            if calls:  # a pair was re-tested, so the walks did not answer
                continue
            answered += 1
            n = out.nodes_used
            assert out.status == LINKED
            assert n == 3 + sum(len(path) - 1 for path in out.linkage)
            assert decide_linked(G, Y, budget=n) == out
            over = decide_linked(G, Y, budget=n - 1)
            assert (over.status, over.linkage, over.nodes_used) == (BUDGET_EXCEEDED, None, n)
        assert answered >= 150

    # (host, k, strong, samples, seed, nodes): sha256 of [status, linkage,
    # nodes_used] per instance, recorded before the first node's walks
    # could answer, when every instance ran the search.
    SEARCH_PINS = (
        ("cube:9", 5, False, 500, 301, 13796,
         "d5ce91c235bb5f9aedb8b1fd0f9ba94e2ffc0aa89213162d5a1f7f12656af723"),
        ("cube:13", 7, False, 500, 302, 26101,
         "e9284025fe50dfe37e3ad380f1f5813a880ea3edb8ef160646bfcbe26e7415fe"),
        ("link:13", 6, False, 500, 303, 22398,
         "43edf5c909c42682ecbf17d6036648e0c432e26850e6fe5f786db4ec90cb211f"),
        ("cube:11", 5, True, 500, 304, 16310,
         "7a975308d4de24b6f7bba29b388c872ee20a2d4fc02dea2a8c7f89c9a09a638e"),
        ("cube:20", 10, False, 100, 305, 11014,
         "bb58f3d1b046dfff5c5c49c32aefe016e1224b0558d44738d59258ae9c9f5b42"),
    )

    @pytest.mark.parametrize("host, k, strong, n, seed, nodes, digest", SEARCH_PINS,
                             ids=[f"{p[0]}-k{p[1]}" + "-strong" * p[2]
                                  for p in SEARCH_PINS])
    def test_outcomes_match_the_search_pins(self, host, k, strong, n, seed,
                                            nodes, digest):
        rows = []
        for inst in sample_instances(host, k, n, seed, strong=strong):
            out = decide_linked(inst.host_graph(), inst.pairing)
            rows.append([out.status, out.linkage, out.nodes_used])
        assert sum(row[2] for row in rows) == nodes
        assert _sha256(rows) == digest
