from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import re
from collections import Counter
from enum import IntEnum
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import cubelink.linkage_engine as linkage_engine
from cubelink import cube_core
from cubelink.certifier import sample_instances
from cubelink.cube_core import (
    CubeGraph,
    Face,
    associated,
    face_vertices,
    free_bit,
    link_graph,
    opposite,
)
from cubelink.path_oracle import (
    InvariantError,
    Pairing,
    avoid_path,
    menger_disjoint_paths,
    validate_linkage,
)
from cubelink.linkage_engine import (
    UnsupportedInstanceError,
    _astar,
    _construction,
    _descent,
    _facet_routes,
    _free_direction,
    _projection,
    _route,
    base_solve,
    detect_config_3F,
    scenario3_context,
    solve_avoiding,
    solve_link,
    solve_linkage,
    solve_strong,
)


def check(res):
    report = validate_linkage(res.host, res.pairing, res.linkage)
    assert report.ok, report
    return res


class TestDispatch:
    """Each construction leaves its label in the trace; outputs are pinned
    because the whole pipeline is deterministic."""

    def test_trivial_pair(self):
        res = check(solve_linkage(5, Pairing(((6, 25),))))
        assert res.trace == ("Q5:trivial_pair",)

    def test_base_case(self):
        res = check(solve_linkage(4, Pairing(((0, 15), (5, 10)))))
        assert res.trace == ("Q4:base",)

    def test_scenario1_all_antipodal(self):
        res = check(solve_linkage(5, Pairing(((0, 31), (1, 30), (2, 29)))))
        assert res.trace == ("Q5:scenario1", "Q4:trivial_pair", "Q4:base")
        assert res.linkage == [
            [0, 8, 24, 25, 27, 31],
            [1, 9, 11, 10, 26, 30],
            [2, 6, 4, 5, 13, 29],
        ]

    def test_scenario2_common_facet(self):
        res = check(solve_linkage(5, Pairing(((0, 3), (1, 2), (4, 8)))))
        assert res.trace == ("Q5:scenario2", "Q4:base")
        assert res.linkage == [
            [0, 16, 17, 19, 3],
            [1, 5, 7, 6, 2],
            [4, 20, 28, 24, 8],
        ]

    def test_scenario3_general(self):
        res = check(solve_linkage(5, Pairing(((0, 31), (1, 30), (2, 28)))))
        assert res.trace == ("Q5:scenario3", "Q4:base")
        assert res.linkage == [
            [0, 4, 5, 21, 23, 31],
            [1, 3, 7, 15, 14, 30],
            [2, 6, 22, 20, 28],
        ]

    def test_even_reduction(self):
        res = check(solve_linkage(6, Pairing(((0, 63), (1, 62), (2, 61)))))
        assert res.trace == ("Q6:even_menger", "Q5:scenario1", "Q4:trivial_pair", "Q4:base")
        assert res.linkage == [
            [0, 8, 24, 25, 27, 31, 63],
            [1, 9, 11, 10, 26, 30, 62],
            [2, 6, 4, 5, 13, 29, 61],
        ]

    def test_projection_on_slack(self):
        res = check(solve_linkage(6, Pairing(((0, 63), (5, 58)))))
        assert res.trace == ("Q6:projection", "Q5:projection", "Q4:base")
        assert res.linkage == [
            [0, 8, 24, 28, 60, 62, 63],
            [5, 4, 12, 44, 40, 56, 58],
        ]

    def test_orientation_matches_pairs(self):
        for pairs in [((9, 20), (3, 30)), ((20, 9), (30, 3))]:
            res = check(solve_linkage(5, Pairing(pairs)))
            for path, (s, t) in zip(res.linkage, pairs):
                assert path[0] == s and path[-1] == t

    def test_high_dimension_smoke(self):
        res = check(solve_linkage(9, Pairing(
            ((0, 511), (1, 510), (2, 509), (4, 507), (8, 503)))))
        assert res.trace[0].startswith("Q9:")


class _Vertex(IntEnum):
    ZERO = 0
    SEVEN = 7
    TOP = 31


class TestPreconditions:
    def test_q3_two_pairs_unsupported(self):
        with pytest.raises(UnsupportedInstanceError) as info:
            solve_linkage(3, Pairing(((0, 3), (1, 2))))
        cert = info.value.certificate
        assert cert.face == Face(1 << 2, 0)
        assert cert.witness_terminal == 0

    def test_pair_budget(self):
        with pytest.raises(ValueError):
            solve_linkage(4, Pairing(((0, 15), (1, 14), (2, 13))))
        with pytest.raises(ValueError):
            solve_linkage(5, Pairing(((0, 31), (1, 30), (2, 29), (4, 27))))

    def test_terminal_range(self):
        with pytest.raises(ValueError):
            solve_linkage(3, Pairing(((0, 9),)))

    @pytest.mark.parametrize("bad, error, message", [
        (True, TypeError, "vertex must be an int, got True"),
        (1.0, TypeError, "vertex must be an int, got 1.0"),
        (-1, ValueError, "vertex -1 outside Q_5 (need 0 <= v < 32)"),
        (32, ValueError, "vertex 32 outside Q_5 (need 0 <= v < 32)"),
    ], ids=["bool", "float", "negative", "past-top"])
    def test_vertex_errors_name_the_first_bad_vertex(self, bad, error, message):
        # cube_core.check_vertex words the error for the first vertex in
        # input order that is no usable int: the terminals in pair order,
        # then the forbidden vertex, whatever else is wrong after it
        Y = Pairing(((3, bad), (99, 12)))
        for call in (lambda: solve_linkage(5, Y),
                     lambda: solve_strong(5, Y, -5),
                     lambda: solve_strong(5, Pairing(((3, 7),)), bad)):
            with pytest.raises(error) as info:
                call()
            assert type(info.value) is error
            assert str(info.value) == message

    def test_int_subclass_vertices_are_accepted(self):
        # check_vertex accepts any int but a bool; the plain-int fast test
        # in front of it must not turn an int subclass away
        Y = Pairing(((_Vertex.ZERO, _Vertex.TOP), (3, 28)))
        plain = Pairing(((0, 31), (3, 28)))
        for solve, args in ((solve_linkage, ()), (solve_strong, (_Vertex.SEVEN,))):
            res = check(solve(5, Y, *args))
            assert res.linkage == solve(5, plain, *map(int, args)).linkage

    def test_avoid_budget(self):
        with pytest.raises(ValueError):
            solve_avoiding(5, Pairing(((0, 31), (1, 30), (2, 29))), {4})
        with pytest.raises(ValueError):
            solve_avoiding(4, Pairing(((0, 15), (1, 14))), {2, 3})

    def test_avoid_terminal_overlap(self):
        with pytest.raises(ValueError):
            solve_avoiding(5, Pairing(((0, 31),)), {31})

    def test_avoid_small_dimension_single_pair(self):
        res = check(solve_avoiding(3, Pairing(((0, 3),)), {5}))
        assert res.trace == ("Q3:trivial_pair",)
        assert res.linkage == [[0, 1, 3]]
        assert 5 not in res.linkage[0]

    def test_avoid_projection(self):
        res = check(solve_avoiding(5, Pairing(((0, 31), (3, 28))), {7}))
        assert res.trace == ("Q5:projection", "Q4:base")
        assert all(7 not in p for p in res.linkage)

    def test_base_solve_rejects_large_dimension(self):
        with pytest.raises(ValueError):
            base_solve(CubeGraph(5), Pairing(((0, 31),)))

    def test_exhausted_free_direction_is_an_invariant_failure(self):
        # {0, 1, 2, 4, 8, 16} associates all five directions of Q5: only an
        # engine fault can hand such a set to free_direction.
        with pytest.raises(InvariantError) as info:
            _projection((1 << 5) - 1, [(0, 1), (2, 4), (8, 16)], frozenset(),
                        {0: 1, 1: 0, 2: 4, 4: 2, 8: 16, 16: 8}, [])
        assert not isinstance(info.value, ValueError)
        assert info.value.context == {"d": 5, "Z": [0, 1, 2, 4, 8, 16]}

    def test_vertex_outside_the_face_is_an_invariant_failure(self):
        # the face's fixed bits are the first terminal's: 32 leaves Q5, and
        # the avoid vertex 1 leaves the face "bit 0 == 0"
        with pytest.raises(InvariantError, match="leaves its face") as info:
            linkage_engine._solve((1 << 5) - 1, [(0, 31), (1, 32)], frozenset(), [])
        assert not isinstance(info.value, ValueError)
        assert info.value.context["vertex"] == 32
        with pytest.raises(InvariantError, match="leaves its face") as info:
            linkage_engine._solve(0b11110, [(0, 6)], frozenset({1}), [])
        assert info.value.context["vertex"] == 1

    def test_contract_check_rejects_colliding_terminals(self):
        check_contract = _construction
        with pytest.raises(InvariantError, match="colliding terminals") as info:
            check_contract((1 << 5) - 1, [(0, 3), (3, 5)], frozenset())
        assert info.value.context == {"d": 5, "pairs": [(0, 3), (3, 5)], "avoid": []}
        with pytest.raises(InvariantError, match="colliding terminals") as info:
            check_contract((1 << 5) - 1, [(0, 3), (5, 6)], frozenset({5}))
        assert info.value.context == {"d": 5, "pairs": [(0, 3), (5, 6)], "avoid": [5]}

    def test_contract_check_rejects_instances_over_budget(self):
        check_contract = _construction
        for free, pairs, avoid, k in [
                ((1 << 5) - 1, [(0, 31), (1, 30), (2, 29), (4, 27)], frozenset(), 4),
                ((1 << 5) - 1, [], frozenset(), 0),
                ((1 << 3) - 1, [(0, 3), (1, 2)], frozenset(), 2),
                (0b11110, [(0, 6), (2, 12)], frozenset({8, 10}), 2)]:
            with pytest.raises(InvariantError, match="exceeds the solver contract") as info:
                check_contract(free, pairs, avoid)
            assert info.value.context == {"d": free.bit_count(), "k": k,
                                          "avoid": sorted(avoid)}

    def test_contract_check_names_the_first_vertex_off_the_face(self):
        # The face's fixed bits are the first terminal's.  The vertex named
        # is the first one off the face in pair order, then in the avoid
        # set's iteration order, whichever other vertices are off it too.
        check_contract = _construction
        for free, pairs, avoid, vertex in [
                (0b111110, [(0, 6), (3, 5)], frozenset({7}), 3),
                (0b111110, [(0, 6), (2, 12)], frozenset({1}), 1),
                (0b11111110, [(0, 6), (2, 12)], frozenset({65, 9, 3}), 65),
                (0b11111110, [(0, 6), (2, 512)], frozenset({65, 9, 3}), 512)]:
            with pytest.raises(InvariantError, match="leaves its face") as info:
                check_contract(free, pairs, avoid)
            assert info.value.context == {"free": free, "pairs": pairs,
                                          "avoid": sorted(avoid), "vertex": vertex}
        check_contract(0b11111110, [(0, 6), (2, 12)], frozenset({64, 8, 2 | 1 << 7}))

    def test_construction_matches_pinned_digest(self):
        rows = [list(_construction(free, pairs, avoid)[:2])
                for free, pairs, avoid in _contract_stream()]
        assert dict(Counter(label for label, _ in rows)) == PINNED_CONSTRUCTION_LABELS
        assert all(b == 0 for label, b in rows if label != "scenario2")
        digest = hashlib.sha256(
            json.dumps(rows, separators=(",", ":")).encode()).hexdigest()
        assert digest == PINNED_CONSTRUCTION_DIGEST

    def test_construction_returns_the_partner_map(self):
        # rho[s] = t and rho[t] = s, pair by pair, in pair order
        for free, pairs, avoid in _contract_stream():
            rho = _construction(free, pairs, avoid)[2]
            assert list(rho.items()) == [
                (x, y) for s, t in pairs for x, y in ((s, t), (t, s))]

    def test_self_check_rejects_a_path_leaving_its_face(self):
        # a valid path of Q3, but 1, 3 and 7 leave the face "bit 0 == 0"
        with pytest.raises(InvariantError, match="leaves its face") as info:
            linkage_engine._self_check(0b110, [(0, 6)], frozenset(),
                                       [[0, 1, 3, 7, 6]])
        assert info.value.context["outside"] == [1, 3, 7]
        linkage_engine._self_check(0b110, [(0, 6)], frozenset(), [[0, 2, 6]])


class TestFaultContext:
    """An InvariantError raised in a level leaves _solve with that level's
    free mask, pairs, sorted avoid set and trace so far as context["level"],
    next to the raise site's own keys.  The innermost level sets it; the
    levels around it leave it as it is."""

    @pytest.mark.parametrize("site, label, solve", [
        ("_facet_routes", "even_menger",
         lambda: solve_linkage(9, next(sample_instances("cube:9", 5, 1, 3)).pairing)),
        ("_build_omega", "scenario3",
         lambda: solve_linkage(10, next(sample_instances("cube:10", 5, 1, 3)).pairing)),
        ("_base", "base", lambda: solve_link(5, 0, Pairing(((1, 2), (4, 8))))),
        ("_link_one_side", "link_case1",
         lambda: solve_link(6, 0, Pairing(((46, 52), (14, 4), (16, 54))))),
    ])
    def test_planted_fault_names_its_level(self, monkeypatch, site, label, solve):
        monkeypatch.setattr(linkage_engine, "SELF_CHECK", False)
        trace = solve().trace
        depth = next(i for i, x in enumerate(trace) if x.endswith(f":{label}"))
        real = linkage_engine._construction
        levels = []

        def recording(free, pairs, avoid, apex=None):
            levels.append((free, pairs, sorted(avoid)))
            return real(free, pairs, avoid, apex)

        def planted(*args):
            raise InvariantError("planted fault", {"site": site})

        monkeypatch.setattr(linkage_engine, "_construction", recording)
        monkeypatch.setattr(linkage_engine, site, planted)
        with pytest.raises(InvariantError, match="planted fault") as info:
            solve()
        # the planted site runs before its level starts any sub-solve, so
        # the last level entered is the one that fails
        free, pairs, avoid = levels[-1]
        assert trace[depth] == f"Q{free.bit_count()}:{label}"
        assert info.value.context == {
            "site": site,
            "level": {"free": free, "pairs": pairs, "avoid": avoid,
                      "trace": list(trace[:depth + 1])}}
        # only the link construction fails at the top level
        assert (len(levels) == 1) == (site == "_link_one_side")
        if site == "_base":
            assert avoid  # a link's second removed vertex reaches the base


class TestConfig3F:
    BAD = [
        ((0, 3), (1, 2)),
        ((0, 5), (1, 4)),
        ((0, 6), (2, 4)),
        ((1, 7), (3, 5)),
        ((2, 7), (3, 6)),
        ((4, 7), (5, 6)),
    ]

    def test_detects_all_blocked_pairings(self):
        for pairs in self.BAD:
            cert = detect_config_3F(Pairing(pairs))
            assert cert is not None
            # the witness terminal and its partner sit on the named 2-face,
            # and the other pair straddles it
            assert cert.witness_terminal in {v for p in pairs for v in p}
            assert 3 - cert.face.fixed_mask.bit_count() == 2

    def test_clean_pairings_pass(self):
        assert detect_config_3F(Pairing(((0, 6), (3, 5)))) is None
        assert detect_config_3F(Pairing(((0, 7), (1, 6)))) is None

    def test_frozen_certificate(self):
        cert = detect_config_3F(Pairing(((0, 3), (1, 2))))
        assert cert.face == Face(1 << 2, 0)
        assert cert.witness_terminal == 0
        assert cert.to_json() == {"face": "0**", "witness_terminal": "000"}

    def test_rejects_a_vertex_outside_q3(self):
        # 9 lies in Q4 but not in Q3
        with pytest.raises(ValueError, match="outside Q_3"):
            detect_config_3F(Pairing(((0, 9), (1, 2))))

    def test_matches_exact_search_everywhere(self):
        from cubelink.certifier import exhaustive_instances
        from cubelink.path_oracle import UNLINKED, decide_linked

        for inst in exhaustive_instances("cube:3", 2):
            blocked = decide_linked(CubeGraph(3), inst.pairing).status == UNLINKED
            assert (detect_config_3F(inst.pairing) is not None) == blocked


def _scenario3_contexts():
    """Seeded scenario-3 set-ups at maximal k in Q5, Q7, Q9 and Q11, 40 per
    dimension.  Every second instance plants a terminal y on the special
    pair's side of F and a terminal of another pair at y's neighbour across
    F, which forces omega entries to move; plain sampling rarely does."""
    rng = random.Random("scenario3/context")
    out = []
    for d in (5, 7, 9, 11):
        n, k = 1 << d, (d + 1) // 2
        for i in range(40):
            while True:
                X = rng.sample(range(n), 2 * k)
                if i % 2:
                    first = next((j for j in range(k)
                                  if X[2 * j] ^ X[2 * j + 1] != n - 1), None)
                    if first is None:
                        continue
                    s1, t1 = X[2 * first], X[2 * first + 1]
                    agree = (n - 1) & ~(s1 ^ t1)
                    b = agree & -agree  # F's fixed bit
                    p, q = rng.sample([j for j in range(k) if j != first], 2)
                    y = rng.randrange(n) & ~b | s1 & b
                    if y in X or y ^ b in X:
                        continue
                    X[2 * p], X[2 * q] = y, y ^ b
                try:
                    out.append((d, scenario3_context(d, pairing(X))))
                    break
                except ValueError:
                    continue
    return out


def _omega_skip_contexts():
    """Seeded scenario-3 set-ups at maximal k in Q5, Q7, Q9 and Q11, 40 per
    dimension, planted so that _build_omega passes over candidate entry
    vertices.  The special pair comes first, so F is the facet of the
    lowest bit b its terminals agree on; x is a random F-side terminal,
    blocked by a terminal of another pair at x ^ b.  Even draws plant a
    second blocked terminal y next to x's smallest neighbour in F, x's
    first candidate, which one of them takes before the other looks.  Odd
    draws put a foreign terminal across F from x's first candidate, a
    foreign projection.  The other pairs are random."""
    rng = random.Random("scenario3/omega-skips")
    out = []
    for d in (5, 7, 9, 11):
        n, k = 1 << d, (d + 1) // 2
        for i in range(40):
            while True:
                s1, t1 = rng.sample(range(n), 2)
                agree = (n - 1) & ~(s1 ^ t1)
                if not agree:
                    continue
                b = agree & -agree
                others = [1 << c for c in range(d) if 1 << c != b]
                x = rng.randrange(n) & ~b | s1 & b
                first = min(x ^ c for c in others)  # x's first candidate
                if i % 2 == 0:
                    y = first ^ rng.choice([c for c in others if c != first ^ x])
                    planted = [x, y ^ b, y, x ^ b]
                else:
                    planted = [x, rng.randrange(n), x ^ b, first ^ b]
                X = [s1, t1] + planted
                while len(X) < 2 * k:
                    X.append(rng.randrange(n))
                if len(set(X)) < 2 * k:
                    continue
                try:
                    out.append((d, scenario3_context(d, pairing(X))))
                    break
                except ValueError:
                    continue
    return out


def _omega_skips(ctx) -> Counter:
    """The candidates _build_omega passed over for each moved entry: a
    neighbour n of x in F, smaller than omega(x) and no terminal, that an
    earlier entry had taken or whose n ^ b is a foreign terminal."""
    b = ctx.face.fixed_mask
    skips: Counter = Counter()
    taken: set = set()
    for x in ctx.X_beta:
        w = ctx.omega[x]
        for c in (1 << i for i in range(ctx.d)):
            n = x ^ c
            if w == x or c == b or n >= w or n in ctx.rho:
                continue
            if n in taken:
                skips["taken"] += 1
            elif n ^ b in ctx.rho and n ^ b != ctx.rho[x]:
                skips["foreign"] += 1
        taken.add(w)
    return skips


def _check_omega(ctx) -> int:
    """Assert what _build_omega states without testing it: omega is
    injective, each value is x or an in-facet neighbour of x that is no
    terminal, and neither omega(x) nor omega(x) ^ b is a foreign terminal.
    Returns the number of moved entries."""
    b = ctx.face.fixed_mask
    moved = 0
    assert len(set(ctx.omega.values())) == len(ctx.omega)
    for x, w in ctx.omega.items():
        assert ctx.face.contains(w)
        if w != x:
            moved += 1
            assert (w ^ x).bit_count() == 1
            assert w not in ctx.rho
        foreign = ctx.rho.keys() - {x, ctx.rho[x]}
        assert w not in foreign and w ^ b not in foreign
    return moved


# Recorded before facets became one-bit masks inside the engine.
PINNED_CONTEXT_MOVED = 85
PINNED_CONTEXT_DIGEST = "320166978fb10e29626244c6db7d50fe9555a9ec11fb81ad1664c0d58102dec7"


def _contract_stream():
    """Seeded contract instances (free, pairs, avoid) on d-dimensional faces
    of Q_D, d = 2..13 and D up to d + 3.  Odd draws take any k and avoid
    size the budget allows; even draws with odd d >= 5 are tight and
    avoid-free, a third of them confined to one facet of a random free bit
    and a third all antipodal, so every label and many scenario2 bits come
    up."""
    rng = random.Random("contract/stream")
    out = []
    for d in range(2, 14):
        for i in range(120):
            D = d + rng.randrange(4)
            free = sum(1 << c for c in rng.sample(range(D), d))
            base = rng.getrandbits(D) & ~free
            tight = d % 2 == 1 and d >= 5 and i % 2 == 0
            if tight:
                k, a = (d + 1) // 2, 0
            else:
                k = 1 if d == 3 else rng.randint(1, (d + 1) // 2)
                a = rng.randint(0, d + 1 - 2 * k)
            shared = rng.choice([c for c in range(D) if free >> c & 1])
            side = rng.getrandbits(1) << shared
            vertices: list = []
            while len(vertices) < 2 * k + a:
                x = base | rng.getrandbits(D) & free
                if tight and i % 6 == 0:
                    x = x & ~(1 << shared) | side
                new = [x, x ^ free] if tight and i % 6 == 2 else [x]
                if not set(new) & set(vertices):
                    vertices += new
            pairs = list(zip(vertices[:2 * k:2], vertices[1:2 * k:2]))
            out.append((free, pairs, frozenset(vertices[2 * k:])))
    return out


# Recorded when the contract check, the classifier and the scenario2 bit
# were three functions: the label, and the bit for scenario2 (else 0).
PINNED_CONSTRUCTION_LABELS = {
    "base": 66, "even_menger": 66, "projection": 492, "scenario1": 100,
    "scenario2": 104, "scenario3": 157, "trivial_pair": 455}
PINNED_CONSTRUCTION_DIGEST = (
    "6c41e38cd409a8e37428bccc740432ed7d12c51b69790d72ffd5380d40b91bc2")


class TestScenario3Context:
    def test_frozen_fields(self):
        ctx = scenario3_context(5, Pairing(((0, 31), (1, 30), (2, 28))))
        assert ctx.d == 5
        assert ctx.first == 2
        assert ctx.face == Face(1 << 0, 0)
        assert ctx.rho == {0: 31, 31: 0, 1: 30, 30: 1, 2: 28, 28: 2}
        assert ctx.omega == {0: 4, 30: 14}
        assert ctx.X_F == frozenset({0, 30})
        assert ctx.X_beta == (0, 30)
        assert ctx.X_alpha == frozenset()
        assert ctx.S == frozenset({0, 4, 14, 30})

    @pytest.mark.parametrize("d", [5, 7, 9])
    def test_special_path_stays_in_face_and_avoids_S(self, d):
        rng = random.Random(f"scenario3/special/{d}")
        k = (d + 1) // 2
        checked = 0
        while checked < 30:
            X = rng.sample(range(1 << d), 2 * k)
            Y = Pairing(tuple(zip(X[::2], X[1::2])))
            try:
                ctx = scenario3_context(d, Y)
            except ValueError:
                continue
            res = check(solve_linkage(d, Y))
            assert res.trace[0] == f"Q{d}:scenario3"
            special = res.linkage[ctx.first]
            assert all(ctx.face.contains(v) for v in special)
            assert not ctx.S & set(special)
            assert len(ctx.S) <= d - 1
            checked += 1

    def test_omega_lands_in_face_near_source(self):
        """The facts _build_omega states without testing them, on every
        seeded context: omega is injective, each value is x or an in-facet
        neighbour of x that is no terminal, and neither omega(x) nor
        omega(x) ^ b is a foreign terminal."""
        moved = sum(_check_omega(ctx) for _, ctx in _scenario3_contexts())
        assert moved == PINNED_CONTEXT_MOVED

    def test_omega_skips_taken_and_foreign_candidates(self):
        """The same facts on contexts planted so that _build_omega passes
        over a smaller candidate because an earlier entry took it, and
        because it is a foreign projection; both skips must occur, or a
        fault in either test would go unseen."""
        skips: Counter = Counter()
        for _, ctx in _omega_skip_contexts():
            _check_omega(ctx)
            skips += _omega_skips(ctx)
        assert skips["taken"] > 0 and skips["foreign"] > 0, skips

    def test_contexts_match_pinned_digest(self):
        rows = []
        moved = 0
        for d, ctx in _scenario3_contexts():
            rows.append([d, ctx.first, ctx.face.fixed_mask, ctx.face.fixed_values,
                         sorted(ctx.rho.items()), sorted(ctx.omega.items()),
                         sorted(ctx.S)])
            moved += sum(1 for x, w in ctx.omega.items() if w != x)
        assert len(rows) == 160
        assert moved == PINNED_CONTEXT_MOVED
        digest = hashlib.sha256(
            json.dumps(rows, separators=(",", ":")).encode()).hexdigest()
        assert digest == PINNED_CONTEXT_DIGEST

    def test_rejects_all_antipodal(self):
        with pytest.raises(ValueError):
            scenario3_context(5, Pairing(((0, 31), (1, 30), (2, 29))))

    def test_missing_special_pair_is_an_invariant_failure(self):
        # _solve never sends an all-antipodal level here (scenario 1 takes
        # it); a call that does is an engine fault, not a fall-through
        pairs = [(0, 31), (1, 30), (2, 29)]
        with pytest.raises(InvariantError, match="non-antipodal pair") as info:
            linkage_engine._scenario3_context((1 << 5) - 1, pairs,
                                              {0: 31, 31: 0, 1: 30, 30: 1, 2: 29, 29: 2})
        assert not isinstance(info.value, ValueError)
        assert info.value.context == {"free": 31, "pairs": pairs}

    def test_rejects_common_facet(self):
        with pytest.raises(ValueError):
            scenario3_context(5, Pairing(((0, 3), (1, 2), (4, 8))))

    def test_rejects_input_out_of_range(self):
        # checked as solve_linkage checks it, before any classification
        with pytest.raises(ValueError, match="vertex -7 outside Q_5"):
            scenario3_context(5, Pairing(((0, -7), (1, 2), (3, 12))))
        with pytest.raises(ValueError, match="Q5 supports k <= 3 pairs, got k = 4"):
            scenario3_context(5, Pairing(((0, 3), (5, 6), (9, 12), (17, 24))))

    def test_rejects_other_constructions(self):
        with pytest.raises(ValueError, match="even_menger"):
            scenario3_context(6, Pairing(((0, 63), (1, 62), (2, 60))))
        with pytest.raises(ValueError, match="projection"):
            scenario3_context(7, Pairing(((0, 3), (5, 96))))


class TestStrong:
    def test_odd_dimension_route(self):
        res = check(solve_strong(5, Pairing(((0, 31), (3, 28))), 7))
        assert res.trace == ("Q5:projection", "Q4:base")
        assert all(7 not in p for p in res.linkage)
        assert res.linkage == [
            [0, 4, 12, 14, 30, 31],
            [3, 2, 6, 22, 20, 28],
        ]

    def test_projection_route(self):
        res = check(solve_strong(6, Pairing(((0, 63), (5, 58), (9, 54))), 17))
        assert res.trace == ("Q6:projection", "Q5:scenario1",
                             "Q4:trivial_pair", "Q4:base")
        assert all(17 not in p for p in res.linkage)
        assert res.linkage == [
            [0, 16, 48, 52, 60, 62, 63],
            [5, 4, 20, 28, 24, 56, 58],
            [9, 8, 10, 2, 6, 22, 54],
        ]

    def test_host_excludes_forbidden(self):
        res = solve_strong(5, Pairing(((0, 31), (3, 28))), 7)
        assert res.host.removed == frozenset({7})

    def test_solves_of_one_shape_share_their_host(self):
        first = solve_strong(5, Pairing(((0, 31), (3, 28))), 7)
        again = solve_strong(5, Pairing(((1, 30), (2, 29))), 7)
        other = solve_strong(5, Pairing(((0, 31), (3, 28))), 8)
        assert first.host is again.host
        assert first.host == CubeGraph(5, frozenset({7}))
        assert other.host == CubeGraph(5, frozenset({8}))

    def test_forbidden_terminal_rejected(self):
        with pytest.raises(ValueError) as info:
            solve_strong(5, Pairing(((0, 31), (3, 7))), 3)
        assert type(info.value) is ValueError
        assert str(info.value) == "forbidden vertex 3 is a terminal"

    def test_pair_bound_is_floor_half(self):
        with pytest.raises(ValueError):
            solve_strong(5, Pairing(((0, 31), (3, 7), (9, 22))), 12)
        check(solve_strong(7, Pairing(((0, 127), (3, 124), (9, 118))), 12))


class TestAvoidSets:
    def test_every_shape_with_two_or_more_avoided(self):
        # _projection's induction on avoid sets of two or more, which no
        # certify job draws: 50 seeded solves of every (d, k, a) in the
        # contract 2k + a <= d + 1, each level self-checked.
        assert linkage_engine.SELF_CHECK
        shapes = [(d, k, a) for d in range(4, 12) for k in range(1, d)
                  for a in range(2, d + 2 - 2 * k)]
        assert len(shapes) == 94
        rng = random.Random(13)
        for d, k, a in shapes:
            for _ in range(50):
                picks = rng.sample(range(1 << d), 2 * k + a)
                Y = Pairing(tuple(zip(picks[:2 * k:2], picks[1:2 * k:2])))
                avoid = frozenset(picks[2 * k:])
                res = check(solve_avoiding(d, Y, avoid))
                assert res.host.removed == avoid
                assert res.trace[0] == (f"Q{d}:trivial_pair" if k == 1
                                        else f"Q{d}:projection")


class TestLink:
    def test_single_pair_bfs(self):
        res = check(solve_link(6, 0, Pairing(((3, 48),))))
        assert res.trace == ("Q6:trivial_pair",)
        assert res.linkage == [[3, 1, 17, 16, 48]]

    def test_small_dimension_base(self):
        res = check(solve_link(5, 0, Pairing(((1, 2), (4, 8)))))
        assert res.trace == ("Q5:projection", "Q4:base")
        assert res.linkage == [[1, 3, 2], [4, 5, 13, 9, 8]]

    def test_case_two_sides(self):
        res = check(solve_link(6, 0, Pairing(((3, 48), (5, 40), (6, 33)))))
        assert res.trace == ("Q6:link_case2", "Q5:scenario3", "Q4:base")
        assert res.linkage == [
            [3, 1, 17, 16, 48],
            [5, 4, 12, 14, 10, 42, 40],
            [6, 2, 34, 32, 33],
        ]

    def test_case_one_side_with_detour(self):
        res = check(solve_link(6, 0, Pairing(((46, 52), (14, 4), (16, 54)))))
        assert res.trace == ("Q6:link_case1", "Q5:scenario3", "Q4:base",
                             "Q6:link_detour")
        assert res.linkage == [
            [46, 38, 36, 52],
            [14, 10, 8, 9, 1, 5, 4],
            [16, 18, 50, 54],
        ]

    @pytest.mark.parametrize("D", [6, 8, 10, 12])
    def test_forced_detours(self, D):
        """All terminals on one side of bit 0 send the tight even link to
        link_case1; draw until 20 solves reroute around the removed vertex
        on that side."""
        rng = random.Random(f"link/detour/{D}")
        detours = 0
        while detours < 20:
            v = rng.getrandbits(D)
            side = rng.getrandbits(1)
            X: list = []
            while len(X) < D:
                x = rng.getrandbits(D) & ~1 | side
                if x not in X and x != v and x != opposite(D, v):
                    X.append(x)
            res = check(solve_link(D, v, Pairing(tuple(zip(X[::2], X[1::2])))))
            assert res.trace[0] == f"Q{D}:link_case1"
            detours += f"Q{D}:link_detour" in res.trace

    @pytest.mark.parametrize("D, ties", [(6, 82), (8, 76), (10, 68)])
    def test_apex_breaks_the_case2_tie(self, D, ties):
        """The tight even link solves in the facet holding the removed vertex
        with more terminals on its side of b, and on a tie in the one holding
        the apex v.  So solve_link(D, v, Y) and solve_link(D, opposite(v), Y)
        differ on exactly the ties: an avoid set {v, opposite(v)} could not
        say which removed vertex breaks them."""
        seen = 0
        for inst in sample_instances(f"link:{D}", D // 2, 300, 5):
            v, Y = inst.apex, inst.pairing
            res = check(solve_link(D, v, Y))
            other = check(solve_link(D, opposite(D, v), Y))
            b = _free_direction((1 << D) - 1, set(Y.terminals))
            tie = 2 * sum(1 for x in Y.terminals if x & b == v & b) == 2 * Y.k
            if tie:
                assert res.trace[0] == f"Q{D}:link_case2"
            assert (res.linkage != other.linkage) == tie
            seen += tie
        assert seen == ties

    def test_apex_dispatch(self):
        """With the apex, a tight even link's top level (2k = D) runs
        link_case1 or link_case2 through the terminals' free direction b,
        case 1 exactly when every terminal lies on one side of b; without
        it that level is over the contract.  Every other link level names
        the construction it would name without the apex."""
        labels = Counter()
        for D in range(5, 11):
            free = (1 << D) - 1
            for k in range(1, D // 2 + 1):
                for inst in sample_instances(f"link:{D}", k, 20, 36):
                    v, pairs = inst.apex, list(inst.pairing.pairs)
                    avoid = frozenset({v, opposite(D, v)})
                    label, b, _ = _construction(free, pairs, avoid, v)
                    labels[label] += 1
                    if 2 * k != D:
                        assert (label, b) == _construction(free, pairs, avoid)[:2]
                        continue
                    X = set(inst.pairing.terminals)
                    assert b == _free_direction(free, X)
                    one_side = len({x & b == v & b for x in X}) == 1
                    assert label == ("link_case1" if one_side else "link_case2")
                    with pytest.raises(InvariantError, match="solver contract"):
                        _construction(free, pairs, avoid)
        assert labels["link_case1"] and labels["link_case2"]
        assert sum(labels.values()) == 20 * sum(D // 2 for D in range(5, 11))

    def test_case_two_sides_tail_fallback(self):
        # instances picked to drive the guide vertex back onto the first
        # source, forcing the direct tail route instead of the lifted one
        for apex, pairs in [
            (47, ((45, 58), (31, 52), (59, 56))),
            (43, ((40, 36), (51, 21), (29, 62))),
            (57, ((63, 62), (37, 16), (52, 25))),
        ]:
            res = check(solve_link(6, apex, Pairing(pairs)))
            assert res.trace[0] == "Q6:link_case2"

    def test_avoids_apex_and_antipode(self):
        apex = 9
        res = check(solve_link(6, apex, Pairing(((3, 48), (5, 40), (6, 33)))))
        banned = {apex, opposite(6, apex)}
        assert all(not (set(p) & banned) for p in res.linkage)
        assert res.host.removed == frozenset(banned)

    def test_host_is_link_graph(self):
        res = solve_link(6, 0, Pairing(((3, 48),)))
        assert res.host == link_graph(6, 0)

    def test_dimension_and_bound_errors(self):
        with pytest.raises(ValueError):
            solve_link(4, 0, Pairing(((1, 2), (4, 8))))
        with pytest.raises(ValueError):
            solve_link(6, 0, Pairing(((1, 2), (4, 8), (16, 32), (3, 5))))
        with pytest.raises(ValueError):
            solve_link(6, 0, Pairing(((0, 3),)))
        with pytest.raises(ValueError):
            solve_link(6, 0, Pairing(((63, 3),)))

    def test_errors_come_in_a_fixed_order(self):
        # the dimension, the apex, the link's pair bound, then the terminals
        # and the removed vertices, whichever else is wrong too
        for D, v, pairs, message in [
                (0, 99, ((1, 200),), "dimension 0 outside"),
                (4, 99, ((1, 200), (4, 8)), "vertex 99 outside Q_4"),
                (4, 0, ((1, 200), (4, 8)), "link hosts need dimension 3"),
                (6, 0, ((1, 200), (4, 8), (16, 32), (3, 5)), "supports k <= 3"),
                (6, 0, ((1, 200), (4, 63)), "vertex 200 outside Q_6"),
                (6, 0, ((1, 2), (4, 63)), "forbidden vertex 63 is a terminal"),
                (6, 0, ((1, 2), (4, 8), (16, 63)), "forbidden vertex 63 is a terminal")]:
            with pytest.raises(ValueError, match=message):
                solve_link(D, v, Pairing(pairs))


class TestEngineProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_instances_validate(self, data):
        d = data.draw(st.integers(5, 7))
        k = data.draw(st.integers(1, (d + 1) // 2))
        terms = data.draw(st.lists(
            st.integers(0, (1 << d) - 1), min_size=2 * k, max_size=2 * k,
            unique=True))
        Y = Pairing(tuple((terms[2 * i], terms[2 * i + 1]) for i in range(k)))
        check(solve_linkage(d, Y))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_construction_names_the_first_step(self, data):
        d = data.draw(st.integers(2, 9).filter(lambda d: d != 3))
        k = data.draw(st.integers(1, (d + 1) // 2))
        picks = data.draw(st.lists(
            st.integers(0, (1 << d) - 1), min_size=2 * k,
            max_size=d + 1, unique=True))
        pairs = list(zip(picks[:2 * k:2], picks[1:2 * k:2]))
        avoid = frozenset(picks[2 * k:])
        res = check(solve_avoiding(d, Pairing(tuple(pairs)), avoid))
        label, _, _ = _construction((1 << d) - 1, pairs, avoid)
        assert res.trace[0] == f"Q{d}:{label}"

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_deterministic(self, data):
        terms = data.draw(st.lists(
            st.integers(0, 63), min_size=6, max_size=6, unique=True))
        Y = Pairing(((terms[0], terms[1]), (terms[2], terms[3]),
                     (terms[4], terms[5])))
        a = solve_linkage(6, Y)
        b = solve_linkage(6, Y)
        assert a.linkage == b.linkage and a.trace == b.trace

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_strong_random(self, data):
        d = data.draw(st.integers(5, 7))
        k = d // 2
        picks = data.draw(st.lists(
            st.integers(0, (1 << d) - 1), min_size=2 * k + 1,
            max_size=2 * k + 1, unique=True))
        x = picks[-1]
        Y = Pairing(tuple((picks[2 * i], picks[2 * i + 1]) for i in range(k)))
        res = check(solve_strong(d, Y, x))
        assert all(x not in p for p in res.linkage)


def _golden_routes():
    """About 2,000 seeded _route calls: face dimension 3-20, whole cubes and
    proper faces of cubes up to Q20, and 0 to 2d avoided vertices drawn
    around s and t (on shortest s-t paths, next to s or t, or anywhere in
    the face).  Every tenth call also avoids all neighbours of s."""
    rng = random.Random("route/golden")
    out = []
    for i in range(2000):
        d = rng.randint(3, 20)
        if i % 2 == 0:
            D, free = d, (1 << d) - 1
        else:
            D = rng.randint(d, 20)
            free = sum(1 << c for c in rng.sample(range(D), d))
        base = rng.getrandbits(D) & ~free
        bits = [1 << c for c in range(D) if free >> c & 1]

        def point():
            return base | rng.getrandbits(D) & free

        s = point()
        t = point()
        while t == s:
            t = point()
        diff = [b for b in bits if (s ^ t) & b]
        avoid = set()
        if i % 10 == 9:
            avoid.update(s ^ b for b in bits)
        for _ in range(rng.randint(0, 2 * d - len(avoid))):
            kind = rng.randrange(4)
            if kind == 0:
                v = s
                for b in rng.sample(diff, rng.randint(1, len(diff))):
                    v ^= b
            elif kind == 1:
                v = s ^ rng.choice(bits)
            elif kind == 2:
                v = t ^ rng.choice(bits)
            else:
                v = point()
            avoid.add(v)
        avoid -= {s, t}
        out.append((free, s, t, avoid))
    return out


def _golden_facet_routes() -> list:
    """Seeded _facet_routes calls (free, X, b): Q5-Q16, every third one on
    the whole cube and the rest on a proper face of a cube of up to 20
    dimensions, b any free bit.  Each call forces 0-3 blocked sources (a
    terminal whose drop across b is a terminal too); every seventh call also
    has a source each of whose other neighbours is a terminal or drops onto
    one, so it can leave only by a longer path."""
    rng = random.Random("facet_routes")
    out = []
    for i in range(720):
        d = 5 + i % 12
        if i % 3 == 0:
            D, free = d, (1 << d) - 1
        else:
            D = rng.randint(d + 1, 20)
            free = sum(1 << c for c in rng.sample(range(D), d))
        base = rng.getrandbits(D) & ~free
        bits = [1 << c for c in range(D) if free >> c & 1]
        b = rng.choice(bits)

        def point():
            return base | rng.getrandbits(D) & free

        X: list = []

        def add(v):
            if v not in X:
                X.append(v)

        if i % 7 == 6:
            a = point() | b
            add(a)
            add(a ^ b)
            for c in bits:
                if c != b:
                    add(a ^ c if rng.random() < 0.5 else a ^ c ^ b)
        for _ in range(rng.randint(0, 3)):
            a = point() | b
            add(a)
            add(a ^ b)
        for _ in range(rng.randint(0, max(0, d - len(X)))):
            add(point())
        rng.shuffle(X)
        out.append((free, X, b))
    return out


def _facet_route_layers(free: int, X: list, b: int) -> tuple:
    """(blocked sources, the picks), read off the instance as _facet_routes'
    docstring describes them: the blocked sources (terminals whose drop
    across b is a terminal) ascending, and the picks {a: u} giving each in
    order its first neighbour u, ascending, that is no terminal, drops onto
    none and no earlier pick took.  The picks are None when one source has
    no such u."""
    terminals = set(X)
    blocked = sorted(a for a in X if a & b and a ^ b in terminals)
    picks: dict | None = {}
    for a in blocked:
        u = next((u for u in sorted(a ^ c for c in linkage_engine._bits(free))
                  if u not in terminals and u ^ b not in terminals
                  and u not in picks.values()), None)
        if u is None:
            picks = None
            break
        picks[a] = u
    return blocked, picks


def _facet_paths(free: int, X: list, b: int) -> dict:
    """_facet_routes' answer as {x: path starting at x}, rebuilt from the
    facet ends and two-step-drop middles it returns."""
    ends, picks = _facet_routes(free, X, b)
    return {x: [x] if end == x else [x, picks[x], end] if x in picks else [x, end]
            for x, end in ends.items()}


def _oracle_facet_routes(free: int, X: list, b: int) -> dict:
    """_facet_routes' answer from the oracle: the strict Menger routing of X
    onto the facet "x & b == 0", run on the face mapped to Q_d (its fixed
    coordinates deleted) and mapped back.  Fewer paths than terminals come
    back only when no full routing exists."""
    positions = [c for c in range(free.bit_length()) if free >> c & 1]
    fixed = X[0] & ~free

    def compress(v):
        return sum(1 << i for i, c in enumerate(positions) if v >> c & 1)

    def expand(u):
        return fixed | sum(1 << c for i, c in enumerate(positions) if u >> i & 1)

    d = len(positions)
    sink = face_vertices(d, Face(1 << positions.index(b.bit_length() - 1), 0))
    ref = menger_disjoint_paths(CubeGraph(d), [compress(x) for x in X], sink,
                                len(X), strict=True)
    return {expand(p[0]): [expand(u) for u in p] for p in ref.paths}


# Recorded on _facet_routes while it still ran a unit-capacity flow where a
# blocked source had no two-step drop; those calls now take their rows from
# the oracle (_oracle_facet_routes).
PINNED_FACET_ROUTE_DIGEST = (
    "2444463fceb3c803195686d95547f5f61d9265725f7b5a9ddf8f4fa30da79512")


def _order_list_descent(s: int, t: int, avoid: set | frozenset) -> list | None:
    """_descent as written with an order list, the reference for
    test_descent_matches_order_list: the flips are listed once, in reverse
    of the order they are tried in, and each step pops one near the end."""
    order = []
    up = t & ~s
    while up:
        high = 1 << (up.bit_length() - 1)
        order.append(high)
        up ^= high
    down = s & ~t
    while down:
        low = down & -down
        order.append(low)
        down ^= low
    path = [s]
    v = s
    while order:
        i = len(order) - 1
        while v ^ order[i] in avoid:
            if not i:
                return None
            i -= 1
        v ^= order.pop(i)
        path.append(v)
    return path


# Recorded before _route tried the straight descent ahead of its A* search.
PINNED_ROUTE_DIGEST = "847b438ab8aac915edc0f1e33d760812bf615b25f5046592b04be8e836c23c32"


class TestRouting:
    """The engine's own routers agree with the oracle's BFS and max-flow."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_route_matches_oracle_bfs(self, data):
        d = data.draw(st.integers(2, 10))
        s, t = data.draw(st.lists(st.integers(0, (1 << d) - 1),
                                  min_size=2, max_size=2, unique=True))
        # up to twice the d - 1 connectivity budget, so disconnections occur
        avoid = data.draw(st.sets(
            st.integers(0, (1 << d) - 1).filter(lambda v: v not in (s, t)),
            max_size=2 * d))
        mine = _route((1 << d) - 1, s, t, avoid)
        theirs = avoid_path(CubeGraph(d), s, t, avoid)
        assert (mine is None) == (theirs is None)
        if len(avoid) <= d - 1:
            assert mine is not None
        if mine is not None:
            assert len(mine) == len(theirs)
            host = CubeGraph(d, frozenset(avoid))
            assert validate_linkage(host, Pairing(((s, t),)), [mine]).ok
            assert mine[0] == s and mine[-1] == t

    def test_route_trivial_and_blocked(self):
        assert _route((1 << 4) - 1, 5, 5, set()) == [5]
        assert _route((1 << 3) - 1, 0, 3, {1, 2}) == [0, 4, 5, 7, 3]
        assert _route((1 << 3) - 1, 0, 7, {1, 2, 4}) is None
        assert _route((1 << 3) - 1, 0, 7, set()) == [0, 1, 3, 7]

    def test_route_descent_dead_ends_midway(self):
        # 0 -> 1 -> 3, then both flips left (to 7 and 11) are avoided; the A*
        # backtracks to a shortest path through 5 instead.
        assert _descent(0, 15, {7, 11}) is None
        assert _route((1 << 4) - 1, 0, 15, {7, 11}) == [0, 1, 5, 13, 15]
        assert _descent(0, 15, {7}) == [0, 1, 3, 11, 15]

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_descent_matches_astar(self, data):
        free, positions, expand = TestFaceEquivariance.draw_face(
            data, min_free=1, max_free=12, max_dim=12)
        d = len(positions)
        s, t = data.draw(st.lists(st.integers(0, (1 << d) - 1),
                                  min_size=2, max_size=2, unique=True))
        # vertices on shortest s-t paths block the descent; others need not
        on_path = st.integers(0, (1 << d) - 1).map(lambda m: s ^ m & (s ^ t))
        vertex = st.one_of(st.integers(0, (1 << d) - 1), on_path)
        avoid = data.draw(st.sets(vertex.filter(lambda v: v not in (s, t)),
                                  max_size=2 * d))
        args = expand(s), expand(t), set(map(expand, avoid))
        ref = _astar(free, *args)
        descent = _descent(*args)
        if descent is not None:
            assert descent == ref
        assert _route(free, *args) == ref

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_descent_matches_order_list(self, data):
        """_descent reads the flips left off v at each step; the reference
        builds their order once.  Both give the same path, or None, up to
        Q64: with avoided vertices anywhere, on the straight path and next
        to it, or with a wall of every flip left at one step of it."""
        d = data.draw(st.integers(1, 64))
        vertex = st.integers(0, (1 << d) - 1)
        s, t = data.draw(vertex), data.draw(vertex)
        straight = _order_list_descent(s, t, set())
        wall = len(straight) > 2 and data.draw(st.booleans())
        if wall:
            # the descent reaches v, and every step on from it is avoided
            v = data.draw(st.sampled_from(straight[:-2]))
            avoid = {v ^ 1 << c for c in range(d) if (v ^ t) >> c & 1}
        else:
            beside = st.builds(lambda v, c: v ^ 1 << c, st.sampled_from(straight),
                               st.integers(0, d - 1))
            avoid = data.draw(st.sets(
                st.one_of(vertex, st.sampled_from(straight), beside)
                .filter(lambda v: v not in (s, t)), max_size=2 * d))
        ref = _order_list_descent(s, t, avoid)
        assert _descent(s, t, avoid) == ref
        if wall:
            assert ref is None

    def test_routes_match_pinned_digest(self):
        calls = _golden_routes()
        rows = [_route(free, s, t, avoid) for free, s, t, avoid in calls]
        digest = hashlib.sha256(
            json.dumps(rows, separators=(",", ":")).encode()).hexdigest()
        assert digest == PINNED_ROUTE_DIGEST
        # the calls reach the A* and its dead ends, not just the descent
        blocked = [(row, s, t) for row, (_, s, t, avoid) in zip(rows, calls)
                   if _descent(s, t, avoid) is None]
        assert len(blocked) == 426
        assert sum(row is None for row in rows) == 199
        # blocked descents that still have a shortest path around the block
        assert sum(row is not None and len(row) - 1 == (s ^ t).bit_count()
                   for row, s, t in blocked) == 137

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_facet_routes_match_oracle_flow(self, data):
        # at most d terminals, as every engine level gives _facet_routes
        d = data.draw(st.integers(4, 10))
        w = data.draw(st.integers(0, d - 1))
        vertex = st.integers(0, (1 << d) - 1)
        forced = []
        if data.draw(st.booleans()):
            # a blocked source up to all but one of whose other neighbours
            # are terminals or drop onto one: at d - 2 such neighbours a
            # single two-step drop leaves it
            a = data.draw(vertex) | 1 << w
            forced += [a, a ^ 1 << w]
            others = [c for c in range(d) if c != w]
            walls = data.draw(st.integers(0, d - 2))
            for c in data.draw(st.permutations(others))[:walls]:
                forced.append(a ^ 1 << c ^ data.draw(st.sampled_from([0, 1 << w])))
        # up to four sources whose straight drop is a terminal
        for a in data.draw(st.lists(vertex, max_size=4)):
            forced += [a | 1 << w, a & ~(1 << w)]
        X = data.draw(st.lists(vertex, min_size=1, max_size=d, unique=True))
        X = list(dict.fromkeys(forced + X))[:d]
        routes = _facet_paths((1 << d) - 1, X, 1 << w)
        sink = frozenset(face_vertices(d, Face(1 << w, 0)))
        ref = menger_disjoint_paths(CubeGraph(d), X, sink, len(X), strict=True)
        assert len(routes) == ref.flow == len(X)
        assert routes == {p[0]: p for p in ref.paths}
        terminals = set(X)
        placed: set = set()
        for x, path in routes.items():
            assert path[0] == x
            assert [v for v in path if v in sink] == [path[-1]]
            assert not terminals & set(path[1:])
            if len(path) > 1:
                assert validate_linkage(CubeGraph(d), Pairing(((x, path[-1]),)),
                                        [path]).ok
            assert not placed & set(path)
            placed |= set(path)

    def test_facet_routes_match_pinned_digest(self):
        calls = _golden_facet_routes()
        layers = [_facet_route_layers(*call) for call in calls]
        rows = []
        raised = []
        for free, X, b in calls:
            try:
                routes = _facet_paths(free, X, b)
            except InvariantError as err:
                assert set(err.context) == {"free", "terminals", "source"}
                raised.append(True)
                routes = _oracle_facet_routes(free, X, b)
            else:
                raised.append(False)
            rows.append(sorted(routes.items()))
        digest = hashlib.sha256(
            json.dumps(rows, separators=(",", ":")).encode()).hexdigest()
        assert digest == PINNED_FACET_ROUTE_DIGEST
        assert Counter(min(len(blocked), 3) for blocked, _ in layers) == {
            0: 138, 1: 190, 2: 199, 3: 193}
        # both branches run: calls whose blocked sources all take a pick,
        # and calls where one has none, with one blocked source or several
        assert sum(bool(blocked) and picks is not None
                   for blocked, picks in layers) == 480
        assert Counter(min(len(blocked), 2) for blocked, picks in layers
                       if picks is None) == {1: 27, 2: 75}
        # exactly the calls without picks raise, and each has more
        # terminals than the face's dimension
        assert raised == [picks is None for _, picks in layers]
        assert all(len(X) > free.bit_count()
                   for hit, (free, X, _) in zip(raised, calls) if hit)
        # calls where no full routing exists
        assert sum(len(row) < len(X) for row, (_, X, _) in zip(rows, calls)) == 1

    def test_facet_routes_one_blocked_source(self):
        # 16's drop 0 is a terminal, and so is 17's drop 1: the two-step
        # drop goes through 18
        assert _facet_paths((1 << 5) - 1, [16, 0, 1, 5], 1 << 4) == {
            0: [0], 1: [1], 5: [5], 16: [16, 18, 2]}
        # 18 takes 16; 20's first free neighbour is 16 too, so it takes 21
        assert _facet_paths((1 << 5) - 1, [2, 4, 7, 18, 20], 1 << 4) == {
            2: [2], 4: [4], 7: [7], 18: [18, 16, 0], 20: [20, 21, 5]}
        # every golden call whose blocked sources all take a pick
        calls = 0
        for free, X, b in _golden_facet_routes():
            blocked, picks = _facet_route_layers(free, X, b)
            if not blocked or picks is None:
                continue
            routes = _facet_paths(free, X, b)
            assert routes == {**{x: [x] for x in X if not x & b},
                              **{x: [x, x ^ b] for x in X if x & b},
                              **{a: [a, u, u ^ b] for a, u in picks.items()}}
            calls += 1
        assert calls == 480
        # seven terminals in Q5: 16 picks 17, which was 25's only neighbour
        # that is no terminal and drops onto none
        with pytest.raises(InvariantError, match="no two-step drop") as err:
            _facet_routes((1 << 5) - 1, [0, 9, 11, 16, 24, 25, 29], 1 << 4)
        assert err.value.context == {
            "free": 31, "terminals": [0, 9, 11, 16, 24, 25, 29], "source": 25}

    def test_facet_routes_walled_in_source_raises(self):
        # five terminals in Q4: 8's drop 0 is a terminal, 9 and 12 are
        # terminals, and 10 drops onto the terminal 2
        with pytest.raises(InvariantError) as err:
            _facet_routes((1 << 4) - 1, [8, 0, 9, 2, 12], 1 << 3)
        assert err.value.context == {
            "free": 15, "terminals": [8, 0, 9, 2, 12], "source": 8}

    def test_facet_routes_get_as_many_terminals_as_dimensions(self, monkeypatch):
        """The pick argument in _facet_routes' docstring needs |X| <= d.  The
        engine calls it only from tight even levels (2k = d), so every call
        of the golden solves and of a seeded even-dimension sweep gets
        exactly d terminals."""
        sizes: Counter = Counter()
        inner = linkage_engine._facet_routes

        def spy(free, X, b):
            sizes[len(X) - free.bit_count()] += 1
            return inner(free, X, b)

        monkeypatch.setattr(linkage_engine, "_facet_routes", spy)
        rng = random.Random("facet_routes/even")
        calls = list(_golden_solves())
        for d in range(6, 17, 2):
            n = 1 << d
            for _ in range(4):
                calls.append((solve_linkage, d, pairing(rng.sample(range(n), d))))
                X = rng.sample(range(n), d + 1)
                calls.append((solve_strong, d, pairing(X[1:]), X[0]))
                v = rng.randrange(n)
                calls.append((solve_link, d, v,
                              pairing(rng.sample(off_link(d, v, range(n)), d))))
        for solver, *args in calls:
            check(solver(*args))
        assert set(sizes) == {0}
        assert sizes[0] > 0

    def test_facet_routes_drop_or_detour(self):
        # 16 and 17 have terminals below them and detour; 18 drops straight.
        assert _facet_paths((1 << 5) - 1, [16, 0, 17, 1, 18], 1 << 4) == {
            0: [0], 1: [1], 16: [16, 20, 4], 17: [17, 19, 3], 18: [18, 2]}

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_scenario2_bit_matches_definition(self, data):
        # tight odd instances, so that only an agreeing bit (scenario2) or
        # all pairs antipodal (scenario1) stops scenario3
        d = data.draw(st.sampled_from(range(5, 20, 2)))
        forced = data.draw(st.booleans())
        X = data.draw(st.lists(st.integers(0, (1 << d - forced) - 1),
                               min_size=d + 1, max_size=d + 1, unique=True))
        if forced:
            # confine X to the facet "bit c == value": insert that bit at c
            c = data.draw(st.integers(0, d - 1))
            value = data.draw(st.integers(0, 1))
            X = [x >> c << c + 1 | value << c | x & (1 << c) - 1 for x in X]
        naive = next((c for c in range(d) if len({x >> c & 1 for x in X}) == 1),
                     None)
        label, b, _ = _construction((1 << d) - 1, list(zip(X[::2], X[1::2])),
                                 frozenset())
        assert (label == "scenario2") == (naive is not None)
        assert b == (0 if naive is None else 1 << naive)

    def test_scenario2_bit_edge_cases(self):
        def bit(free, X):
            label, b, _ = _construction(free, list(zip(X[::2], X[1::2])), frozenset())
            assert label in ("scenario2", "scenario3")
            return b

        assert bit((1 << 7) - 1, [93] + list(range(1, 15, 2))) == 1 << 0
        assert bit((1 << 7) - 1, [5, 5 ^ 127] + list(range(6, 12))) == 0
        assert bit((1 << 19) - 1, [0, (1 << 19) - 1, 12345] + list(range(1, 18))) == 0
        assert bit((1 << 5) - 1, [0b10110, 0b11111, 0b10010, 0b00011, 0b00110,
                                  0b01010]) == 1 << 1
        # a face of Q20 with bit 17 fixed at 0
        assert bit((1 << 20) - 1 ^ 1 << 17,
                   [1 << 19, 3 << 18] + list(range(2, 38, 2))) == 1 << 0

    def test_engine_owns_its_routing(self):
        # path_oracle stays independent ground truth: the engine keeps only
        # the declared shared points (decide_linked, validate_linkage).
        assert not hasattr(linkage_engine, "avoid_path")
        assert not hasattr(linkage_engine, "menger_disjoint_paths")


class TestFaceEquivariance:
    """A level of the recursion works on a face of Q_D in D-bit words.  On
    any face it must do exactly what the whole-cube call does on the
    compressed instance (the face's fixed coordinates deleted), with the
    result expanded back."""

    @staticmethod
    def draw_face(data, min_free=5, max_free=9, max_dim=16, proper=False):
        D = data.draw(st.integers(min_free + proper, max_dim))
        coords = data.draw(st.lists(st.integers(0, D - 1), unique=True,
                                    min_size=min_free,
                                    max_size=min(D - proper, max_free)))
        free = sum(1 << c for c in coords)
        fixed = data.draw(st.integers(0, (1 << D) - 1)) & ~free
        positions = sorted(coords)

        def expand(u):
            return fixed | sum(1 << c for i, c in enumerate(positions) if u >> i & 1)

        return free, positions, expand

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_solve(self, data):
        free, positions, expand = self.draw_face(data)
        d = len(positions)
        k = data.draw(st.integers(1, (d + 1) // 2))
        picks = data.draw(st.lists(st.integers(0, (1 << d) - 1), unique=True,
                                   min_size=2 * k, max_size=d + 1))
        pairs = list(zip(picks[:2 * k:2], picks[1:2 * k:2]))
        avoid = frozenset(picks[2 * k:])
        ref_trace: list = []
        ref = linkage_engine._solve((1 << d) - 1, pairs, avoid, ref_trace)
        trace: list = []
        paths = linkage_engine._solve(
            free, [(expand(s), expand(t)) for s, t in pairs],
            frozenset(map(expand, avoid)), trace)
        assert paths == [[expand(u) for u in p] for p in ref]
        assert trace == ref_trace

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_route(self, data):
        free, positions, expand = self.draw_face(data, min_free=2)
        d = len(positions)
        s, t = data.draw(st.lists(st.integers(0, (1 << d) - 1),
                                  min_size=2, max_size=2, unique=True))
        avoid = data.draw(st.sets(
            st.integers(0, (1 << d) - 1).filter(lambda v: v not in (s, t)),
            max_size=2 * d))
        ref = _route((1 << d) - 1, s, t, avoid)
        mine = _route(free, expand(s), expand(t), set(map(expand, avoid)))
        assert mine == (None if ref is None else [expand(u) for u in ref])

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_facet_routes(self, data):
        free, positions, expand = self.draw_face(data, min_free=4)
        d = len(positions)
        i = data.draw(st.integers(0, d - 1))
        # at most d terminals, as every engine level gives _facet_routes
        X = data.draw(st.lists(st.integers(0, (1 << d) - 1),
                               min_size=1, max_size=d, unique=True))
        if data.draw(st.booleans()):
            # force a source whose straight drop is a terminal
            a = data.draw(st.integers(0, (1 << d) - 1)) | 1 << i
            X = X[:d - 2] + [v for v in (a, a ^ 1 << i) if v not in X[:d - 2]]
        ref = _facet_paths((1 << d) - 1, X, 1 << i)
        mine = _facet_paths(free, [expand(x) for x in X], 1 << positions[i])
        assert mine == {expand(x): [expand(u) for u in p] for x, p in ref.items()}


    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_associated_and_free_direction(self, data):
        free, positions, expand = self.draw_face(data, min_free=1, proper=True)
        d = len(positions)
        Z = set(map(expand, data.draw(st.lists(st.integers(0, (1 << d) - 1),
                                               max_size=min(1 << d, 3 * d)))))
        naive = sum(1 << c for c in positions
                    if any(z ^ 1 << c in Z for z in Z))
        mask = associated(free, Z)
        assert mask == naive
        left = free & ~mask
        assert free_bit(free, Z) == left & -left
        if left:
            assert _free_direction(free, Z) == left & -left
        else:
            with pytest.raises(InvariantError):
                _free_direction(free, Z)


def pairing(X):
    return Pairing(tuple(zip(X[::2], X[1::2])))


def off_link(d, v, X):
    return [u for u in X if u not in (v, opposite(d, v))]


def _golden_solves():
    """Seeded (solver, *args) calls reaching every engine construction: plain,
    strong and link solves in Q5-Q11 at maximal and at random k, plus forced
    all-antipodal and one-facet plain instances and one-facet tight links."""
    rng = random.Random("solve/golden")
    out = []
    for d in range(5, 12):
        n = 1 << d
        for i in range(12):
            k = (d + 1) // 2 if i % 2 == 0 else rng.randint(1, (d + 1) // 2)
            out.append((solve_linkage, d, pairing(rng.sample(range(n), 2 * k))))
        for i in range(12):
            k = d // 2 if i % 2 == 0 else rng.randint(1, d // 2)
            X = rng.sample(range(n), 2 * k + 1)
            out.append((solve_strong, d, pairing(X[1:]), X[0]))
        for i in range(12):
            k = d // 2 if i % 2 == 0 else rng.randint(1, d // 2)
            v = rng.randrange(n)
            X = rng.sample(off_link(d, v, range(n)), 2 * k)
            out.append((solve_link, d, v, pairing(X)))
    for d in (5, 7, 9, 11):
        n, k = 1 << d, (d + 1) // 2
        for _ in range(6):
            S = rng.sample(range(n >> 1), k)
            out.append((solve_linkage, d,
                        Pairing(tuple((s, opposite(d, s)) for s in S))))
        for _ in range(6):
            c = rng.randrange(d)
            F = Face(1 << c, rng.randrange(2) << c)
            X = rng.sample(list(face_vertices(d, F)), 2 * k)
            out.append((solve_linkage, d, pairing(X)))
    for d in (6, 8, 10):
        for _ in range(6):
            c = rng.randrange(d)
            F = Face(1 << c, rng.randrange(2) << c)
            v = rng.randrange(1 << d)
            X = rng.sample(off_link(d, v, face_vertices(d, F)), d)
            out.append((solve_link, d, v, pairing(X)))
    return out


def _deep_golden_solves():
    """Seeded plain, strong and link solves at maximal k in Q12 and Q13, seven
    of each per dimension: the deepest recursions under the default cap."""
    rng = random.Random("solve/golden/deep")
    out = []
    for d in (12, 13):
        n = 1 << d
        for _ in range(7):
            out.append((solve_linkage, d,
                        pairing(rng.sample(range(n), 2 * ((d + 1) // 2)))))
        for _ in range(7):
            X = rng.sample(range(n), 2 * (d // 2) + 1)
            out.append((solve_strong, d, pairing(X[1:]), X[0]))
        for _ in range(7):
            v = rng.randrange(n)
            X = rng.sample(off_link(d, v, range(n)), 2 * (d // 2))
            out.append((solve_link, d, v, pairing(X)))
    return out


def _cap_golden_solves():
    """Seeded plain, strong and link solves at maximal k in Q32 and Q64,
    twelve of each per dimension: dimensions above the default cap (the
    caller patches cube_core.MAX_DIM), so paths run to dozens of vertices
    and cross many levels."""
    rng = random.Random("solve/golden/cap")
    out = []
    for d in (32, 64):

        def distinct(m, skip=()):
            X: list = []
            while len(X) < m:
                x = rng.getrandbits(d)
                if x not in X and x not in skip:
                    X.append(x)
            return X

        for _ in range(12):
            out.append((solve_linkage, d, pairing(distinct(2 * ((d + 1) // 2)))))
            X = distinct(2 * (d // 2) + 1)
            out.append((solve_strong, d, pairing(X[1:]), X[0]))
            v = rng.getrandbits(d)
            X = distinct(2 * (d // 2), (v, opposite(d, v)))
            out.append((solve_link, d, v, pairing(X)))
    return out


def _solve_digest(calls) -> str:
    rows = []
    for solver, *args in calls:
        res = check(solver(*args))
        rows.append([res.linkage, list(res.trace)])
    return hashlib.sha256(
        json.dumps(rows, separators=(",", ":")).encode()).hexdigest()


# Both digests are recorded with the Q4 base solving one representative per
# Aut(Q4) orbit (linkage_engine._base), by decide_linked trying the
# neighbors closer to the target first.  Its shorter sub-paths pass the
# removed vertex of a link host less often, so link_detour runs less.
PINNED_SOLVE_LABELS = {
    "base": 281, "even_menger": 296, "link_case1": 7, "link_case2": 33,
    "link_detour": 2, "projection": 482, "scenario1": 35, "scenario2": 53,
    "scenario3": 365, "trivial_pair": 72,
}
PINNED_SOLVE_DIGEST = "87511e7830fb162811601bb72426a8f78cc29c43b90955cdc0970a81534efd52"

# Scenario-3 levels of _golden_solves() that take each branch of the entry
# step, read off the set-up (see _scenario3_branches).  Recorded when
# _scenario3 kept its entry paths in a dict and joined them in a second pass.
PINNED_SCENARIO3_BRANCHES = {
    "levels": 365, "moved_entry": 34, "alpha_pair": 31,
    "source_completes": 12, "target_completes": 9,
}


PINNED_DEEP_SOLVE_DIGEST = "ccc1372cd032050933b3263a5d2bbaf76141d569ee5e31caead440634a1af868"

# Recorded while every level still copied each path it extended.
PINNED_CAP_SOLVE_DIGEST = "26e956e258f3e2df1989a90f8f0616d2cdc4137bd1f9a17f1e05836ef741083b"


class TestSolveGolden:
    """The engine's output is pinned path for path and label for label:
    a refactor of the constructions must keep every linkage and trace."""

    def test_deep_solves_match_pinned_digest(self):
        assert _solve_digest(_deep_golden_solves()) == PINNED_DEEP_SOLVE_DIGEST

    def test_solves_above_the_cap_match_pinned_digest(self, monkeypatch):
        monkeypatch.setattr(cube_core, "MAX_DIM", 64)
        assert _solve_digest(_cap_golden_solves()) == PINNED_CAP_SOLVE_DIGEST

    def test_solves_match_pinned_digest(self):
        rows = []
        labels: Counter = Counter()
        for solver, *args in _golden_solves():
            res = check(solver(*args))
            rows.append([res.linkage, list(res.trace)])
            labels.update(label.split(":", 1)[1] for label in res.trace)
        assert set(labels) == {
            "trivial_pair", "base", "projection", "even_menger", "scenario1",
            "scenario2", "scenario3", "link_case1", "link_detour", "link_case2"}
        assert dict(labels) == PINNED_SOLVE_LABELS
        digest = hashlib.sha256(
            json.dumps(rows, separators=(",", ":")).encode()).hexdigest()
        assert digest == PINNED_SOLVE_DIGEST

    def test_levels_extend_their_childs_paths(self, monkeypatch):
        """A level owns the lists its child _solve returns and extends them
        in place: at every even_menger, scenario3, projection and scenario1
        level of the golden solves, each path a child returned comes back
        from the level as the very same list."""
        LEVELS = ("even_menger", "scenario3", "projection", "scenario1")
        inner = linkage_engine._solve
        returned = [[]]  # per open level, what its children returned
        levels: Counter = Counter()

        def spy(free, pairs, avoid, trace, apex=None):
            depth = len(trace)
            returned.append([])
            paths = inner(free, pairs, avoid, trace, apex)
            children = returned.pop()
            label = trace[depth].split(":", 1)[1]
            if label in LEVELS:
                # scenario 3 solves no child when entry paths complete every
                # pair; scenario 1 solves one in each facet
                assert len(children) == (2 if label == "scenario1" else 1) or (
                    label == "scenario3" and not children)
                written = {id(p) for p in paths}
                for child in children:
                    assert all(id(p) in written for p in child)
                levels[label] += 1
            returned[-1].append(paths)
            return paths

        monkeypatch.setattr(linkage_engine, "_solve", spy)
        for solver, *args in _golden_solves():
            check(solver(*args))
        assert dict(levels) == {label: PINNED_SOLVE_LABELS[label] for label in LEVELS}

    def test_levels_build_their_partner_map_once(self, monkeypatch):
        """_construction's one pass builds a level's partner map, and the
        construction reads that very map: at every even_menger level of the
        golden solves _facet_routes gets it as its terminals, and at every
        scenario3 level _scenario3_context gets it as rho."""
        built = []
        seen: Counter = Counter()
        construction = linkage_engine._construction
        facet_routes = linkage_engine._facet_routes
        context = linkage_engine._scenario3_context

        def recording(free, pairs, avoid, apex=None):
            out = construction(free, pairs, avoid, apex)
            built.append(out[2])
            return out

        # each runs before its level starts a sub-solve, so the last map
        # built is its own level's
        def routes_spy(free, X, b):
            assert X is built[-1]
            seen["even_menger"] += 1
            return facet_routes(free, X, b)

        def context_spy(free, pairs, rho):
            assert rho is built[-1]
            seen["scenario3"] += 1
            return context(free, pairs, rho)

        monkeypatch.setattr(linkage_engine, "_construction", recording)
        monkeypatch.setattr(linkage_engine, "_facet_routes", routes_spy)
        monkeypatch.setattr(linkage_engine, "_scenario3_context", context_spy)
        for solver, *args in _golden_solves():
            check(solver(*args))
        assert dict(seen) == {label: PINNED_SOLVE_LABELS[label]
                              for label in ("even_menger", "scenario3")}

    def test_returned_paths_are_not_shared(self):
        """In-place extension is safe only while no returned list is also
        held by a cache.  Clearing every path of a result, one whose Q4
        level hit the base table included, leaves a repeat solve unchanged,
        and the base table keeps its paths as tuples."""
        hits = 0
        for solver, *args in _golden_solves():
            paths = [list(p) for p in solver(*args).linkage]
            for _ in range(2):  # the first solve stored every Q4 key: all hit
                res = solver(*args)
                assert res.linkage == paths
                for p in res.linkage:
                    p.clear()
            hits += any(x.endswith(":base") for x in res.trace)
        assert hits > 0
        assert all(type(p) is tuple for v in linkage_engine._BASE.values()
                   for p in (v, *v))

    def test_scenario3_branches_are_exercised(self, monkeypatch):
        """The digest covers these branches only if the golden solves run
        them: a moved omega entry (a three-vertex entry path), an alpha
        pair, and a pair that one terminal's entry path completes, from
        either end.  Each is counted from the set-up alone."""
        seen: Counter = Counter()
        inner = linkage_engine._scenario3_context

        def spy(free, pairs, rho):
            ctx = inner(free, pairs, rho)
            _, b, v, first, _, _, _, Y_alpha, _, omega, _ = ctx

            def end(x):  # the last vertex of x's entry path
                return x if x & b != v else omega[x] ^ b

            rest = [(s, t) for i, (s, t) in enumerate(pairs)
                    if i != first and i not in Y_alpha]
            by_source = [end(s) == t for s, t in rest]
            by_target = [not hit and end(t) == s
                         for hit, (s, t) in zip(by_source, rest)]
            seen.update(label for label, hit in (
                ("levels", True),
                ("moved_entry", any(w != x for x, w in omega.items())),
                ("alpha_pair", bool(Y_alpha)),
                ("source_completes", any(by_source)),
                ("target_completes", any(by_target))) if hit)
            return ctx

        monkeypatch.setattr(linkage_engine, "_scenario3_context", spy)
        for solver, *args in _golden_solves():
            solver(*args)
        assert dict(seen) == PINNED_SCENARIO3_BRANCHES
        assert min(seen.values()) > 0


# The paths of all 35,490 face-local Q4 keys, read on a second 4-face of Q8
# (TestOrbitBase.test_face_table_matches_the_orbit_path).
PINNED_BASE_DIGEST = "880c1bcf1e23cef24e74b3c91cf538dd747e7d2666c6c81db4c453e585e1e657"


def _face_instance(rng, with_avoid):
    """Two pairs and at most one avoid vertex, all distinct, in a random
    4-dimensional face of Q8: (free, pairs, avoid)."""
    free = sum(1 << c for c in rng.sample(range(8), 4))
    fixed = rng.randrange(256) & ~free
    words = linkage_engine._spread(linkage_engine._bits(free))
    X = [words[i] | fixed for i in rng.sample(range(16), 5 if with_avoid else 4)]
    return free, [(X[0], X[1]), (X[2], X[3])], frozenset(X[4:])


class TestOrbitBase:
    """The Q4 base solves one representative per Aut(Q4) orbit and maps its
    paths back; every mapped linkage must be a linkage of the instance.  One
    face-local table holds the representatives' paths and answers repeat
    instances."""

    @staticmethod
    def _cold(monkeypatch):
        """Empty the face-local table for this test."""
        monkeypatch.setattr(linkage_engine, "_BASE", {})

    @staticmethod
    def _searches(monkeypatch):
        """The avoid sets of every base_solve call from here on."""
        calls = []
        real = linkage_engine.base_solve
        monkeypatch.setattr(linkage_engine, "base_solve",
                            lambda *a: calls.append(tuple(a[2])) or real(*a))
        return calls

    @staticmethod
    def _check(D, free, pairs, avoid, paths):
        host = CubeGraph(D).without(avoid)
        assert validate_linkage(host, Pairing(tuple(pairs)), paths).ok
        fixed = pairs[0][0] & ~free
        for path, (s, t) in zip(paths, pairs):
            assert path[0] == s and path[-1] == t
            assert all(v & ~free == fixed for v in path)

    def test_every_two_pair_q4_instance(self, monkeypatch):
        calls = self._searches(monkeypatch)
        self._cold(monkeypatch)
        instances = [[(s0, t0), (s1, t1)]
                     for s0, t0, s1, t1 in itertools.permutations(range(16), 4)]
        assert len(instances) == 43_680
        first = []
        for pairs in instances:
            paths = linkage_engine._base(15, pairs, frozenset())
            self._check(4, 15, pairs, frozenset(), paths)
            first.append(paths)
        # 169 orbits: one exact search each, however many instances share it.
        assert len(calls) == 169
        # One face-local key per (t0, s1, t1) relative to s0: 15 * 14 * 13.
        assert len(linkage_engine._BASE) == 2_730
        orbit_calls = []
        orbit = linkage_engine._orbit_paths
        monkeypatch.setattr(linkage_engine, "_orbit_paths",
                            lambda *a: orbit_calls.append(a) or orbit(*a))
        again = [linkage_engine._base(15, pairs, frozenset()) for pairs in instances]
        # A hit is one lookup: the second sweep never reaches the orbit path.
        assert orbit_calls == []
        assert again == first

    def test_one_avoid_vertex_on_faces_of_q8(self, monkeypatch):
        calls = self._searches(monkeypatch)
        self._cold(monkeypatch)
        rng = random.Random("base/orbits/avoid")
        for _ in range(20_000):
            free, pairs, avoid = _face_instance(rng, with_avoid=True)
            self._check(8, free, pairs, avoid, linkage_engine._base(free, pairs, avoid))
        # Q4 with k = 2 and |A| <= 1 has 1,744 orbits in all.
        assert len(calls) <= 1_744

    def test_output_does_not_depend_on_the_memo(self, monkeypatch):
        rng = random.Random("base/orbits/memo")
        instances = [_face_instance(rng, with_avoid=i % 2 == 1) for i in range(300)]
        self._cold(monkeypatch)
        cold = []
        for free, pairs, avoid in instances:
            linkage_engine._BASE.clear()
            cold.append(linkage_engine._base(free, pairs, avoid))
        for _ in range(3_000):
            X = rng.sample(range(32), 7)
            if rng.random() < 0.5:
                check(solve_linkage(5, pairing(X[1:])))
            else:
                check(solve_strong(5, pairing(X[1:5]), X[0]))
        assert len(linkage_engine._BASE) > 100
        warm = [linkage_engine._base(*inst) for inst in instances]
        assert warm == cold

    def test_face_table_matches_the_orbit_path(self, monkeypatch):
        """Every face-local Q4 key, 2,730 with no avoid vertex and 32,760
        with one, is stored from one 4-face of Q8 and read on another, each
        with free bits that are not contiguous, fixed bits that are not 0
        and a translation that varies.  Each answer the table gives must be
        a linkage, all of them together must hash to PINNED_BASE_DIGEST, and
        the exact search must run once per orbit."""
        calls = self._searches(monkeypatch)
        self._cold(monkeypatch)
        keys = []
        for t0, s1, t1 in itertools.permutations(range(1, 16), 3):
            keys.append((t0, s1, t1, ()))
            keys += [(t0, s1, t1, (a,)) for a in range(1, 16)
                     if a not in (t0, s1, t1)]
        assert len(keys) == 2_730 + 32_760

        def instance(free, fixed, u, t0, s1, t1, a):
            words = linkage_engine._spread(linkage_engine._bits(free))
            x = [words[y ^ u] | fixed for y in (0, t0, s1, t1, *a)]
            return [(x[0], x[1]), (x[2], x[3])], frozenset(x[4:])

        for n, key in enumerate(keys):
            linkage_engine._base(0b11000101, *instance(0b11000101, 0b00110000,
                                                        (7 * n + 3) % 16, *key))
        assert len(linkage_engine._BASE) == len(keys)
        # Q4 with k = 2 has 169 orbits with no avoid vertex, 1,575 with one.
        assert len(calls) == 1_744
        assert sum(1 for avoid in calls if not avoid) == 169
        free, fixed = 0b10110010, 0b01001001
        hosts = {}
        rows = []
        for n, key in enumerate(keys):
            pairs, avoid = instance(free, fixed, n % 16, *key)
            paths = linkage_engine._base(free, pairs, avoid)
            rows.append(paths)
            if avoid not in hosts:
                hosts[avoid] = CubeGraph(8).without(avoid)
            assert validate_linkage(hosts[avoid], Pairing(tuple(pairs)), paths).ok
            assert all(v & ~free == fixed for path in paths for v in path)
        # Every call on the second face was a hit.
        assert len(linkage_engine._BASE) == len(keys)
        digest = hashlib.sha256(
            json.dumps(rows, separators=(",", ":")).encode()).hexdigest()
        assert digest == PINNED_BASE_DIGEST


def test_readme_library_example():
    """README's library example prints what its comments say."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    code = re.search(r"## Library\n\n```python\n(.*?)```", readme, re.S).group(1)
    expected = re.findall(r"^print\(.*\)\s+# (.*)$", code, re.M)
    assert len(expected) == 2
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    assert out.getvalue().splitlines() == expected


def test_solve_result_json_shape():
    res = solve_linkage(4, Pairing(((0, 15),)))
    obj = res.to_json()
    assert obj["host"] == {"type": "cube", "d": 4, "forbidden": []}
    assert obj["pairs"] == [["0000", "1111"]]
    assert obj["paths"][0][0] == "0000"
    assert obj["scenario_trace"] == ["Q4:trivial_pair"]
