"""Constructive linkage solvers for cube graphs.

The entry points solve three problems on Q_d hosts:

  solve_linkage(d, Y)      k disjoint paths for any pairing, k <= (d+1)//2
  solve_strong(d, Y, x)    the same avoiding one forbidden vertex, k <= d//2
  solve_link(D, v, Y)      a linkage in Q_D minus {v, opposite(v)}

Every solver reduces along facets until instances are small enough for the
exact search in path_oracle (dimension at most four), so the recursion is
paved with guaranteed cases.  The internal contract is uniform: a call on
Q_d with k pairs and an avoid set A is legal when 2k + |A| <= d + 1 and
d != 3, and within that budget the solver never fails.  Violations of the
construction's internal facts raise InvariantError with a replayable
context; they indicate bugs, not unsolvable inputs.

The variants are avoid-set instances of that contract.  A strong solve is
solve_avoiding(d, Y, {x}): k <= d//2 gives 2k + 1 <= d + 1.  A link solve is
solve_avoiding(D, Y, {v, opposite(v)}) whenever 2k + 2 <= D + 1; only the
tight even case k = D/2 falls outside it and keeps its own construction
(_link_one_side / _link_two_sides).

The dispatch, in order (_construction names the choice): single pairs go to
the engine's A* router (Hamming heuristic, see _route); d <= 4 goes to the
oracle search; slack instances (k below the maximum, or a nonempty avoid
set) project into a facet chosen through a free direction; tight even d
splits off a facet by disjoint-path routing onto it (_facet_routes); tight
odd d classifies into one of three scenario constructions (all pairs
antipodal / all terminals in one facet / the rest).  Each recursion level appends a label to the scenario trace of
the result, e.g. "Q7:scenario3", so a solve is auditable after the fact.
scenario3_context returns the scenario-3 set-up that the solver itself
uses (special pair, facet F, entry map omega, and the special pair's avoid
set S with its |S| <= d - 1 bound); the omega_conditions suite inspects it.

Set SELF_CHECK = True (tests do) to validate every internal recursion
level's output against its own sub-instance, not just the final linkage.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import reduce
from heapq import heappop, heappush
from operator import and_, or_
from typing import Iterable

from . import cube_core
from .cube_core import (
    CubeGraph,
    Face,
    delete_coordinate,
    face_vertices,
    facet,
    free_direction,
    insert_coordinate,
    link_graph,
    opposite,
    project,
)
from .path_oracle import (
    LINKED,
    HostGraph,
    InvariantError,
    Pairing,
    decide_linked,
    instance_to_json,
    validate_linkage,
)

# When True, every recursion level validates its own output against the
# sub-instance it solved (dimension, pairing, avoid set).  Tests enable it.
SELF_CHECK = False


class UnsupportedInstanceError(ValueError):
    """The instance falls outside the guaranteed range (e.g. two pairs in Q3)."""

    def __init__(self, message: str, certificate: object = None) -> None:
        super().__init__(message)
        self.certificate = certificate


@dataclass(frozen=True)
class SolveResult:
    """A solved instance: host, pairing, the linkage, and the case trace."""

    host: CubeGraph
    pairing: Pairing
    linkage: list
    trace: tuple

    def to_json(self) -> dict:
        out = instance_to_json(self.host, self.pairing)
        out["paths"] = [[self.host.format_vertex(v) for v in p] for p in self.linkage]
        out["scenario_trace"] = list(self.trace)
        return out


@dataclass(frozen=True)
class Config3F:
    """The Q3 obstruction: a 2-face whose four vertices are terminals, with
    witness_terminal's partner sitting at face-distance 2."""

    face: Face
    witness_terminal: int

    def to_json(self) -> dict:
        return {
            "face": cube_core.format_face(3, self.face),
            "witness_terminal": cube_core.format_vertex(3, self.witness_terminal),
        }


# ---------------------------------------------------------------------------
# Small helpers


def _bit(v: int, c: int) -> int:
    return (v >> c) & 1


def _oriented(path: list, s: int, t: int) -> list:
    if path and path[0] == s and path[-1] == t:
        return path
    if path and path[0] == t and path[-1] == s:
        return path[::-1]
    raise InvariantError(
        "path endpoints disagree with its pair",
        {"path": path, "pair": (s, t)},
    )


def _push(v: int, F: Face, c: int) -> int:
    """Project v into facet F and drop the fixed coordinate."""
    return delete_coordinate(project(v, F), c)


def _lift(path: Iterable[int], c: int, value: int) -> list:
    return [insert_coordinate(u, c, value) for u in path]


def _free_direction(d: int, Z: set) -> int:
    """free_direction on a set the construction keeps within |Z| <= d; a
    ValueError from it is an engine fault, not bad input."""
    try:
        return free_direction(d, Z)
    except ValueError as exc:
        raise InvariantError(str(exc), {"d": d, "Z": sorted(Z)}) from exc


def _terminals(pairs: list) -> list:
    return [v for p in pairs for v in p]


def _lift_attached(pairs: list, sub_paths: list, w: int, side: int) -> list:
    """Lift sub-paths solved in the facet "bit w == side" back into the cube,
    then attach each terminal lying off that facet by its one edge in."""
    out = []
    for (s, t), sub in zip(pairs, sub_paths):
        path = _lift(sub, w, side)
        if _bit(s, w) != side:
            path = [s] + path
        if _bit(t, w) != side:
            path = path + [t]
        out.append(path)
    return out


def _solve_contract_check(d: int, pairs: list, avoid: frozenset) -> None:
    k = len(pairs)
    flat = _terminals(pairs)
    if len(set(flat)) != 2 * k or set(flat) & avoid:
        raise InvariantError(
            "recursive instance has colliding terminals",
            {"d": d, "pairs": pairs, "avoid": sorted(avoid)},
        )
    if 2 * k + len(avoid) > d + 1 or (d == 3 and k >= 2) or k < 1:
        raise InvariantError(
            "recursive instance exceeds the solver contract",
            {"d": d, "k": k, "avoid": sorted(avoid)},
        )
    for v in flat:
        cube_core.check_vertex(d, v)


def _self_check(d: int, pairs: list, avoid: frozenset, paths: list) -> None:
    G = CubeGraph(d, avoid)
    report = validate_linkage(G, Pairing(tuple(pairs)), paths)
    if not report:
        raise InvariantError(
            "self-check: invalid linkage from internal solver",
            {"d": d, "pairs": pairs, "avoid": sorted(avoid),
             "clause": report.clause, "message": report.message},
        )
    for path, (s, t) in zip(paths, pairs):
        if path[0] != s or path[-1] != t:
            raise InvariantError("self-check: path orientation drifted",
                                 {"pair": (s, t), "path": path})


# ---------------------------------------------------------------------------
# Cube-native routing
#
# Both routers work on the implicit cube: neighbours are bit flips and the
# target facet is a bit test, so no call materialises a vertex set of Q_d.
# path_oracle keeps its own BFS and max-flow code as independent ground truth.


def _route(d: int, s: int, t: int, avoid: set | frozenset) -> list | None:
    """Shortest s-t path in Q_d minus `avoid`, or None if there is none.

    A* with the Hamming heuristic h(v) = popcount(v ^ t), which is consistent
    on unit edges, so the first time t is generated its path is shortest.
    The heap key (g + h, -g, v) breaks ties toward the larger g, which keeps
    the search on a straight descent when nothing blocks it, then toward the
    smaller vertex, which makes the result deterministic.
    """
    if s in avoid or t in avoid:
        raise InvariantError("route endpoints lie in the avoid set",
                             {"d": d, "pair": (s, t), "avoid": sorted(avoid)})
    if s == t:
        return [s]
    parent = {s: None}
    best = {s: 0}
    closed = set()
    heap = [((s ^ t).bit_count(), 0, s)]
    while heap:
        _, neg_g, v = heappop(heap)
        if v in closed:
            continue
        closed.add(v)
        g = 1 - neg_g
        for c in range(d):
            u = v ^ (1 << c)
            if u == t:
                path = [t, v]
                while parent[path[-1]] is not None:
                    path.append(parent[path[-1]])
                path.reverse()
                return path
            if u in closed or u in avoid or best.get(u, g + 1) <= g:
                continue
            best[u] = g
            parent[u] = v
            heappush(heap, (g + (u ^ t).bit_count(), -g, u))
    return None


def _facet_routes(d: int, X: list, w: int) -> dict:
    """Disjoint paths from the terminals X to the facet "bit w == 0".

    Returns {x: path starting at x}.  A terminal already in the facet is its
    own one-vertex path; every other path meets the facet only at its last
    vertex, holds no other terminal, and shares no vertex with the rest.
    Fewer paths than terminals come back only when no full routing exists.

    A source a (bit w == 1) whose straight drop u = a ^ 2^w is not a
    terminal takes the edge [a, u] at once.  The flow below would pick the
    same edges: a drop is the only augmenting path of four arcs, so the
    shortest-augmenting search claims every free drop first, in ascending
    source order; and no later path can reroute one, because the only
    neighbour of u off the facet is the terminal a, whose exit is reachable
    only through its own saturated source arc.  So the output is the one
    the flow over all sources gives, and only the blocked sources, those
    whose drop is a terminal, go through the flow.

    That flow is a unit-capacity max-flow on the vertex-split cube, grown
    by shortest augmenting paths.  Node 2v is v's entry and 2v + 1 its exit;
    a facet entry drains to the sink, and an exit leads to the entries of
    its non-terminal neighbours in ascending order.
    """
    source, sink = -1, -2
    terminals = frozenset(X)
    routes = {x: [x] for x in X if not x >> w & 1}
    blocked = []  # ascending
    for a in sorted(x for x in X if x >> w & 1):
        u = a ^ (1 << w)
        if u in terminals:
            blocked.append(a)
        else:
            routes[a] = [a, u]

    def successors(node: int) -> list:
        if node == source:
            return [2 * a for a in blocked]
        v = node >> 1
        if not node & 1:
            return [sink] if not v >> w & 1 else [node + 1]
        return [2 * u for u in sorted(v ^ (1 << c) for c in range(d))
                if u not in terminals]

    flow: set = set()  # saturated arcs; every capacity is one
    into: dict = {}    # node -> the node whose saturated arc enters it
    for _ in blocked:
        parent = {source: None}
        queue = deque([source])
        while queue and sink not in parent:
            node = queue.popleft()
            for succ in successors(node):
                if succ not in parent and (node, succ) not in flow:
                    parent[succ] = (node, True)
                    if succ == sink:
                        break
                    queue.append(succ)
            else:
                pred = into.get(node)
                if pred is not None and pred not in parent:
                    parent[pred] = (node, False)
                    queue.append(pred)
        if sink not in parent:
            break
        node = sink
        while parent[node] is not None:
            prev, forward = parent[node]
            if forward:
                flow.add((prev, node))
                into[node] = prev
            else:  # cancel the saturated arc node -> prev
                flow.remove((node, prev))
                del into[prev]
            node = prev

    for a in blocked:
        if (source, 2 * a) not in flow:
            continue
        path = [a]
        node = 2 * a
        while node != sink:
            node = next((n for n in successors(node) if (node, n) in flow), None)
            if node is None:
                raise InvariantError("facet flow decomposition ran out of arcs",
                                     {"d": d, "terminals": X, "path": path})
            if node != sink and not node & 1:
                path.append(node >> 1)
        routes[a] = path
    return routes


# ---------------------------------------------------------------------------
# The uniform internal solver


def _construction(d: int, pairs: list, avoid: frozenset) -> str:
    """The label of the construction _solve runs on a contract instance."""
    k = len(pairs)
    if k == 1:
        return "trivial_pair"
    if d <= 4:
        return "base"
    if avoid or k < (d + 1) // 2:
        return "projection"
    if d % 2 == 0:
        return "even_menger"
    full = (1 << d) - 1
    if all(s ^ t == full for s, t in pairs):
        return "scenario1"
    if _common_coord(d, _terminals(pairs)) is not None:
        return "scenario2"
    return "scenario3"


def _solve(d: int, pairs: list, avoid: frozenset, trace: list) -> list:
    """k disjoint paths in Q_d avoiding `avoid`; legal when 2k+|avoid| <= d+1,
    d != 3.  Paths come back oriented, path i running pairs[i][0] -> [1]."""
    _solve_contract_check(d, pairs, avoid)
    label = _construction(d, pairs, avoid)
    trace.append(f"Q{d}:{label}")
    if label == "trivial_pair":
        s, t = pairs[0]
        path = _route(d, s, t, avoid)
        if path is None:
            # |avoid| <= d-1 < connectivity, so this cannot happen.
            raise InvariantError("routing failed under the connectivity budget",
                                 {"d": d, "pair": pairs[0], "avoid": sorted(avoid)})
        paths = [path]
    elif label == "base":
        paths = base_solve(CubeGraph(d), Pairing(tuple(pairs)), avoid)
    elif label == "projection":
        paths = _projection(d, pairs, avoid, trace)
    elif label == "even_menger":
        paths = _even_reduction(d, pairs, trace)
    elif label == "scenario1":
        paths = _scenario1(d, pairs, trace)
    elif label == "scenario2":
        paths = _scenario2(d, pairs, trace)
    else:
        paths = _scenario3(d, pairs, trace)
    if SELF_CHECK:
        _self_check(d, pairs, avoid, paths)
    return paths


def _common_coord(d: int, X: list) -> int | None:
    """The smallest coordinate on which every vertex of X (nonempty) agrees,
    or None: the lowest bit set in the AND of X or the AND of complements."""
    full = (1 << d) - 1
    agree = reduce(and_, X) | (full & ~reduce(or_, X))
    return (agree & -agree).bit_length() - 1 if agree else None


# ---------------------------------------------------------------------------
# Base case: exact search on small hosts


def base_solve(G: HostGraph, Y: Pairing, avoid: Iterable[int] = ()) -> list:
    """Solve a small instance exactly; existence is guaranteed here, so UNLINKED
    here means a bug and raises InvariantError."""
    if not isinstance(G, CubeGraph):
        raise ValueError("base_solve expects a cube host")
    if G.d > 4:
        raise ValueError("base_solve is for dimension at most four")
    work = G.without(avoid)
    outcome = decide_linked(work, Y)
    if outcome.status != LINKED:
        raise InvariantError(
            f"exact search reported {outcome.status} on a guaranteed instance",
            instance_to_json(work, Y),
        )
    return [_oriented(p, s, t) for p, (s, t) in zip(outcome.linkage, Y.pairs)]


# ---------------------------------------------------------------------------
# Slack instances: project everything into one facet


def _projection(d: int, pairs: list, avoid: frozenset, trace: list) -> list:
    X = set(_terminals(pairs))
    if avoid:
        z_star = min(avoid)
        rest = avoid - {z_star}
        w = _free_direction(d, X | rest)
        side = 1 - _bit(z_star, w)  # solve on the side away from z_star
    else:
        rest = frozenset()
        w = _free_direction(d, X)
        side = 0
    F = facet(w, side)
    sub_pairs = [(_push(s, F, w), _push(t, F, w)) for s, t in pairs]
    sub_avoid = frozenset(delete_coordinate(a, w) for a in rest if F.contains(a))
    sub_paths = _solve(d - 1, sub_pairs, sub_avoid, trace)
    return _lift_attached(pairs, sub_paths, w, side)


# ---------------------------------------------------------------------------
# Tight even dimension: route terminals onto a facet, solve inside


def _even_reduction(d: int, pairs: list, trace: list) -> list:
    w = d - 1
    X = _terminals(pairs)
    stub = _facet_routes(d, X, w)
    if len(stub) < len(X):
        raise InvariantError(
            "facet routing found fewer paths than the connectivity guarantees",
            {"d": d, "pairs": pairs, "found": len(stub)},
        )
    sub_pairs = [
        (delete_coordinate(stub[s][-1], w), delete_coordinate(stub[t][-1], w))
        for s, t in pairs
    ]
    sub_paths = _solve(d - 1, sub_pairs, frozenset(), trace)
    out = []
    for (s, t), sub in zip(pairs, sub_paths):
        inner = _lift(sub, w, 0)
        path = stub[s] + inner[1:]
        back = stub[t][::-1]
        out.append(path + back[1:])
    return out


# ---------------------------------------------------------------------------
# Scenario 1: every pair antipodal


def _scenario1(d: int, pairs: list, trace: list) -> list:
    k = len(pairs)
    s1 = pairs[0][0]
    X = set(_terminals(pairs))
    w = _free_direction(d, X - {s1})
    side = _bit(s1, w)
    Fo = facet(w, side)  # the facet holding every s_i after orientation
    F = Fo.opposite_facet()
    oriented = [(s, t) if _bit(s, w) == side else (t, s) for s, t in pairs]
    # Pick the second special pair: its F-side terminal must not project
    # back onto s1.  At most one pair can fail this, so a pick exists.
    idx2 = next(
        (i for i in range(1, k) if project(oriented[i][1], Fo) != s1), None
    )
    if idx2 is None:
        raise InvariantError("no usable second pair among antipodal pairs",
                             {"d": d, "pairs": pairs})
    up = [oriented[i] for i in (0, idx2)]
    rest = [i for i in range(1, k) if i != idx2]
    down = [oriented[i] for i in rest]

    down_paths = _solve(
        d - 1,
        [(_push(s, F, w), _push(t, F, w)) for s, t in down],
        frozenset(delete_coordinate(t, w) for _, t in up),
        trace,
    )
    up_paths = _solve(
        d - 1,
        [(_push(s, Fo, w), _push(t, Fo, w)) for s, t in up],
        frozenset(delete_coordinate(s, w) for s, _ in down),
        trace,
    )
    out = dict(zip((0, idx2), _lift_attached(up, up_paths, w, side)))
    out.update(zip(rest, _lift_attached(down, down_paths, w, 1 - side)))
    return [_oriented(out[i], s, t) for i, (s, t) in enumerate(pairs)]


# ---------------------------------------------------------------------------
# Scenario 2: all terminals in one facet


def _scenario2(d: int, pairs: list, trace: list) -> list:
    """Every terminal has bit c == value.  Join the first pair that routes
    inside that facet around the other terminals; solve the rest in the
    opposite facet, which maps to the same Q_{d-1} words once c is dropped."""
    c = _common_coord(d, _terminals(pairs))
    value = _bit(pairs[0][0], c)
    reduced = [(delete_coordinate(s, c), delete_coordinate(t, c)) for s, t in pairs]
    others = set(_terminals(reduced))
    # At most one pair can be blocked, so the first or second try succeeds.
    for idx, (s, t) in enumerate(reduced):
        path = _route(d - 1, s, t, others - {s, t})
        if path is not None:
            break
    else:
        raise InvariantError("every pair is blocked inside the facet",
                             {"d": d, "pairs": pairs})
    sub_paths = _solve(d - 1, reduced[:idx] + reduced[idx + 1:], frozenset(), trace)
    out = _lift_attached(pairs[:idx] + pairs[idx + 1:], sub_paths, c, 1 - value)
    out.insert(idx, _lift(path, c, value))
    return out


# ---------------------------------------------------------------------------
# Scenario 3: the general odd tight case


@dataclass(frozen=True)
class ScenarioContext:
    """The set-up of the general odd-dimension construction: the special
    pair `first` and its facet, the partner involution rho, the in-facet
    terminal classes, the entry map omega into F^o, and the avoid set S of
    the special pair's route inside F."""

    d: int
    face: Face
    first: int
    rho: dict
    X_F: frozenset
    X_alpha: frozenset
    Y_alpha: tuple
    X_beta: tuple
    omega: dict
    S: frozenset


def _scenario3_context(d: int, pairs: list) -> ScenarioContext:
    """The special pair is the first non-antipodal one; F is the facet of
    the first coordinate its two terminals agree on."""
    full = (1 << d) - 1
    first = next(i for i, (s, t) in enumerate(pairs) if s ^ t != full)
    s1, t1 = pairs[first]
    agree = next(c for c in range(d) if _bit(s1, c) == _bit(t1, c))
    F = facet(agree, _bit(s1, agree))
    rho = {}
    for s, t in pairs:
        rho[s] = t
        rho[t] = s
    X_F = frozenset(x for x in rho if x not in (s1, t1) and F.contains(x))
    alpha_idx = tuple(
        i for i, (s, t) in enumerate(pairs)
        if i != first and F.contains(s) and F.contains(t)
        and cube_core.adjacent(s, t)
    )
    X_alpha = frozenset(v for i in alpha_idx for v in pairs[i])
    X_beta = tuple(sorted(X_F - X_alpha))
    omega = _build_omega(d, F, rho, X_beta)
    S = X_F | (frozenset(omega.values()) - frozenset(rho))
    if len(S) > d - 1:
        raise InvariantError("avoid set for the special pair is too large",
                             {"S": sorted(S), "d": d})
    return ScenarioContext(d, F, first, rho, X_F, X_alpha, alpha_idx, X_beta,
                           omega, S)


def _build_omega(d: int, F: Face, rho: dict, X_beta: tuple) -> dict:
    """Assign each blocked F-side terminal an entry vertex in F.

    omega(x) = x unless x's projection into F^o collides with a foreign
    terminal; then omega(x) becomes the smallest neighbor of x in F that
    dodges terminals, foreign projections onto F, and earlier assignments.
    The obstruction set has at most d-2 members, so a candidate survives.
    """
    Fo = F.opposite_facet()
    X = frozenset(rho)
    omega: dict = {}
    for x in X_beta:
        px = project(x, Fo)
        if px not in X or px == rho[x]:
            omega[x] = x
            continue
        nf = [n for n in cube_core.neighbors(d, x) if F.contains(n)]
        foreign = {project(z, F) for z in X if z != rho[x]}
        taken = set(omega.values())
        obstruction = [n for n in nf if n in X or n in foreign or n in taken]
        if len(obstruction) > d - 2:
            raise InvariantError("entry obstruction set is too large",
                                 {"x": x, "obstruction": obstruction})
        candidates = sorted(set(nf) - set(obstruction))
        if not candidates:
            raise InvariantError("no entry vertex available",
                                 {"x": x, "neighbors": nf})
        omega[x] = candidates[0]
    values = list(omega.values())
    if len(set(values)) != len(values):
        raise InvariantError("entry map is not injective", {"omega": omega})
    for x, wx in omega.items():
        clash = {wx, project(wx, Fo)} & (X - {x, rho[x]})
        if clash:
            raise InvariantError("entry vertex touches a foreign terminal",
                                 {"x": x, "omega_x": wx, "clash": sorted(clash)})
    return omega


def scenario3_context(d: int, Y: Pairing) -> ScenarioContext:
    """The set-up _scenario3 builds for Y, without solving.  Handy for
    inspecting the construction.  ValueError when Y runs another one."""
    pairs = list(Y.pairs)
    label = _construction(d, pairs, frozenset())
    if label != "scenario3":
        reason = {"scenario1": "all pairs antipodal",
                  "scenario2": "all terminals share a facet"}.get(
                      label, f"the solver runs {label} on this instance")
        raise ValueError(f"{reason}: no scenario3 context exists")
    return _scenario3_context(d, pairs)


def _scenario3(d: int, pairs: list, trace: list) -> list:
    k = len(pairs)
    ctx = _scenario3_context(d, pairs)
    s1, t1 = pairs[ctx.first]
    agree = ctx.face.fixed_mask.bit_length() - 1  # F's fixed coordinate
    value = _bit(s1, agree)
    Fo = ctx.face.opposite_facet()

    routed = set(ctx.Y_alpha) | {ctx.first}
    M: dict = {}  # terminal -> its entry path into F^o
    for i in range(k):
        if i in routed:
            continue
        for x in pairs[i]:
            if Fo.contains(x):
                M[x] = [x]
            else:
                wx = ctx.omega[x]
                M[x] = [x, project(x, Fo)] if wx == x else [x, wx, project(wx, Fo)]

    out = {i: list(pairs[i]) for i in ctx.Y_alpha}
    complete, open_idx = [], []
    for i in range(k):
        if i in routed:
            continue
        s, t = pairs[i]
        if M[s][-1] == t:
            out[i] = M[s]
            complete.append(i)
        elif M[t][-1] == s:
            out[i] = M[t][::-1]
            complete.append(i)
        else:
            open_idx.append(i)

    sub_avoid = frozenset(
        delete_coordinate(out[i][0] if Fo.contains(out[i][0]) else out[i][-1], agree)
        for i in complete
    )
    if open_idx:
        sub_pairs = [
            (delete_coordinate(M[pairs[i][0]][-1], agree),
             delete_coordinate(M[pairs[i][1]][-1], agree))
            for i in open_idx
        ]
        sub_paths = _solve(d - 1, sub_pairs, sub_avoid, trace)
        for slot, i in enumerate(open_idx):
            s, t = pairs[i]
            mid = _lift(sub_paths[slot], agree, 1 - value)
            out[i] = M[s] + mid[1:] + M[t][::-1][1:]

    L1 = _route(
        d - 1,
        delete_coordinate(s1, agree),
        delete_coordinate(t1, agree),
        {delete_coordinate(v, agree) for v in ctx.S},
    )
    if L1 is None:
        raise InvariantError(
            "special-pair search failed inside the facet",
            {"d": d, "pair": (s1, t1), "S": sorted(ctx.S)},
        )
    out[ctx.first] = _lift(L1, agree, value)
    return [_oriented(out[i], s, t) for i, (s, t) in enumerate(pairs)]


# ---------------------------------------------------------------------------
# Public solvers


def solve_linkage(d: int, Y: Pairing) -> SolveResult:
    """A Y-linkage in Q_d for any pairing with k <= (d+1)//2 pairs (d != 3)."""
    cube_core.check_dim(d)
    for v in Y.terminals:
        cube_core.check_vertex(d, v)
    max_k = (d + 1) // 2
    if Y.k > max_k:
        raise ValueError(f"Q{d} supports at most {max_k} pairs, got {Y.k}")
    if d == 3 and Y.k >= 2:
        cert = detect_config_3F(Y)
        raise UnsupportedInstanceError(
            "two pairs in the 3-cube are not guaranteed linkable",
            certificate=cert,
        )
    trace: list = []
    paths = _solve(d, list(Y.pairs), frozenset(), trace)
    return SolveResult(CubeGraph(d), Y, paths, tuple(trace))


def solve_avoiding(d: int, Y: Pairing, avoid: Iterable[int]) -> SolveResult:
    """A Y-linkage in Q_d dodging a set of forbidden vertices, within the
    budget 2k + |avoid| <= d + 1 (d != 3 unless k == 1 fits)."""
    cube_core.check_dim(d)
    avoid_set = frozenset(avoid)
    if not avoid_set:
        return solve_linkage(d, Y)
    for v in Y.terminals:
        cube_core.check_vertex(d, v)
    for v in avoid_set:
        cube_core.check_vertex(d, v)
    hit = avoid_set & frozenset(Y.terminals)
    if hit:
        raise ValueError(f"forbidden vertex {min(hit)} is a terminal")
    if 2 * Y.k + len(avoid_set) > d + 1:
        raise ValueError(
            f"Q{d} guarantees {Y.k} pairs with at most "
            f"{d + 1 - 2 * Y.k} forbidden vertices, got {len(avoid_set)}"
        )
    trace: list = []
    paths = _solve(d, list(Y.pairs), avoid_set, trace)
    return SolveResult(CubeGraph(d, avoid_set), Y, paths, tuple(trace))


def solve_strong(d: int, Y: Pairing, x: int) -> SolveResult:
    """A Y-linkage in Q_d that avoids the forbidden vertex x, k <= d//2."""
    cube_core.check_dim(d)
    cube_core.check_vertex(d, x)
    for v in Y.terminals:
        cube_core.check_vertex(d, v)
    if Y.k > d // 2:
        raise ValueError(f"strong linkage in Q{d} supports at most {d // 2} pairs")
    if x in Y.terminals:
        raise ValueError(f"forbidden vertex {x} is a terminal")
    return solve_avoiding(d, Y, {x})


def solve_link(d_plus_1: int, v: int, Y: Pairing) -> SolveResult:
    """A Y-linkage in Q_{d+1} minus {v, opposite(v)}: the link of v.

    Requires d := d_plus_1 - 1 >= 2 and d != 3, with k <= (d+1)//2 pairs
    whose terminals avoid both removed vertices.  When 2k + 2 <= d_plus_1 + 1
    this is solve_avoiding on the two removed vertices; only the tight even
    case k = d_plus_1 / 2 needs the link construction.
    """
    cube_core.check_dim(d_plus_1)
    d = d_plus_1 - 1
    if d < 2:
        raise ValueError("link hosts need dimension at least three")
    if d == 3:
        raise ValueError("the link inside Q4 is out of range (d = 3)")
    cube_core.check_vertex(d_plus_1, v)
    vo = opposite(d_plus_1, v)
    for u in Y.terminals:
        cube_core.check_vertex(d_plus_1, u)
        if u in (v, vo):
            raise ValueError(f"terminal {u} collides with a removed vertex")
    if Y.k > (d + 1) // 2:
        raise ValueError(
            f"the link of a vertex in Q{d_plus_1} supports at most {(d + 1) // 2} pairs"
        )
    if 2 * Y.k + 2 <= d_plus_1 + 1:
        return solve_avoiding(d_plus_1, Y, {v, vo})
    pairs = list(Y.pairs)
    X = _terminals(pairs)
    w = _free_direction(d_plus_1, set(X))
    on_v_side = sum(1 for x in X if _bit(x, w) == _bit(v, w))
    construct = _link_one_side if on_v_side in (0, len(X)) else _link_two_sides
    trace: list = []
    paths = construct(d_plus_1, v, vo, pairs, w, trace)
    if SELF_CHECK:
        _self_check(d_plus_1, pairs, frozenset({v, vo}), paths)
    return SolveResult(link_graph(d_plus_1, v), Y, paths, tuple(trace))


def _link_one_side(D: int, v: int, vo: int, pairs: list, w: int, trace: list) -> list:
    trace.append(f"Q{D}:link_case1")
    side = _bit(pairs[0][0], w)
    A = facet(w, side)
    bad_A = v if _bit(v, w) == side else vo
    bad_B = vo if bad_A == v else v
    sub_pairs = [(delete_coordinate(s, w), delete_coordinate(t, w))
                 for s, t in pairs]
    sub_paths = _solve(D - 1, sub_pairs, frozenset(), trace)
    out = [_lift(p, w, side) for p in sub_paths]
    hit = [i for i, p in enumerate(out) if bad_A in p]
    if not hit:
        return out
    if len(hit) > 1:
        raise InvariantError("disjoint paths share the removed vertex", {"hit": hit})
    trace.append(f"Q{D}:link_detour")
    i = hit[0]
    path = out[i]
    j = path.index(bad_A)
    if j == 0 or j == len(path) - 1:
        raise InvariantError("removed vertex surfaced as a terminal",
                             {"path": path, "v": bad_A})
    w1, w2 = path[j - 1], path[j + 1]
    B_side = 1 - side
    p1 = delete_coordinate(w1, w)
    p2 = delete_coordinate(w2, w)
    bad_B_red = delete_coordinate(bad_B, w)
    if p1 == bad_B_red or p2 == bad_B_red:
        raise InvariantError("detour endpoints collide with the opposite removed vertex",
                             {"w1": w1, "w2": w2})
    M = _route(D - 1, p1, p2, {bad_B_red})
    if M is None:
        raise InvariantError("detour routing failed in the opposite facet",
                             {"D": D, "from": w1, "to": w2})
    out[i] = path[:j] + _lift(M, w, B_side) + path[j + 1:]
    return out


def _link_two_sides(D: int, v: int, vo: int, pairs: list, w: int, trace: list) -> list:
    trace.append(f"Q{D}:link_case2")
    X = _terminals(pairs)
    side_v = _bit(v, w)
    count_v_side = sum(1 for x in X if _bit(x, w) == side_v)
    if count_v_side >= len(X) - count_v_side:
        solve_side, bad, bad_tail = side_v, v, vo
    else:
        solve_side, bad, bad_tail = 1 - side_v, vo, v
    SF = facet(w, solve_side)
    tail_terms = [x for x in X if not SF.contains(x)]
    pref = project(bad, SF.opposite_facet())  # the unique tail-side neighbor of bad
    t1 = pref if pref in tail_terms else min(tail_terms)
    j1 = next(i for i, p in enumerate(pairs) if t1 in p)
    s1 = pairs[j1][0] if pairs[j1][1] == t1 else pairs[j1][1]

    others = [i for i in range(len(pairs)) if i != j1]
    sub_pairs = [(_push(s1, SF, w), delete_coordinate(bad, w))]
    sub_pairs += [(_push(pairs[i][0], SF, w), _push(pairs[i][1], SF, w))
                  for i in others]
    sub_paths = _solve(D - 1, sub_pairs, frozenset(), trace)

    M1 = _lift(sub_paths[0], w, solve_side)
    if len(M1) < 2:
        raise InvariantError("guide path degenerated to the removed vertex",
                             {"pair": (s1, t1)})
    guide = M1[-2]
    pw = project(guide, SF.opposite_facet())
    tail_d = D - 1
    tail_side = 1 - solve_side
    S = {bad_tail} | (set(tail_terms) - {t1})
    if pw == s1:
        # The guide path is a single edge out of s1; route directly.
        tail = _route(
            tail_d,
            delete_coordinate(s1, w),
            delete_coordinate(t1, w),
            {delete_coordinate(u, w) for u in S if u != s1},
        )
        if tail is None:
            raise InvariantError("direct tail routing failed", {"pair": (s1, t1)})
        L1 = _lift(tail, w, tail_side)
    else:
        if pw in S:
            raise InvariantError("tail entry vertex is blocked",
                                 {"entry": pw, "S": sorted(S)})
        tail = _route(
            tail_d,
            delete_coordinate(pw, w),
            delete_coordinate(t1, w),
            {delete_coordinate(u, w) for u in S},
        )
        if tail is None:
            raise InvariantError("tail routing failed in the opposite facet",
                                 {"pair": (s1, t1), "S": sorted(S)})
        L1 = M1[:-1] + _lift(tail, w, tail_side)
        if not SF.contains(s1):
            L1 = [s1] + L1
    out = dict(zip(others, _lift_attached([pairs[i] for i in others],
                                          sub_paths[1:], w, solve_side)))
    out[j1] = _oriented(L1, *pairs[j1])
    return [out[i] for i in range(len(pairs))]


# ---------------------------------------------------------------------------
# The Q3 obstruction


def detect_config_3F(Y: Pairing) -> Config3F | None:
    """Scan the six 2-faces of Q3 for the blocking configuration: a face
    whose four vertices are all terminals with one pair on a diagonal."""
    for v in Y.terminals:
        cube_core.check_vertex(3, v)
    if len(Y.terminals) < 4:
        raise ValueError("the configuration needs at least four terminals")
    X = set(Y.terminals)
    for c in range(3):
        for value in (0, 1):
            F = Face(1 << c, value << c)
            corners = list(face_vertices(3, F))
            if any(u not in X for u in corners):
                continue
            # All four corners are terminals, so both face-neighbors of any
            # corner are terminals too; a diagonal pair seals the witness.
            for s, t in Y.pairs:
                if F.contains(s) and F.contains(t) and cube_core.distance(s, t) == 2:
                    return Config3F(F, s)
    return None
