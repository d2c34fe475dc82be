"""Constructive linkage solvers for cube graphs.

The entry points solve three problems on Q_d hosts:

  solve_linkage(d, Y)      k disjoint paths for any pairing
  solve_strong(d, Y, x)    the same avoiding one forbidden vertex
  solve_link(D, v, Y)      a linkage in Q_D minus {v, opposite(v)}

check_supported states the range they guarantee; solve_avoiding is the
checked entry the three share.  Every solver reduces along facets until
instances are small enough for the exact search in path_oracle (dimension
at most four), so the recursion is paved with guaranteed cases.  The
contract is uniform: a call on Q_d with k pairs and an avoid set A is legal
when 2k + |A| <= d + 1, with one pair only in Q3 (_within_budget), and
within that budget the solver never fails.  A level checks its instance
against the contract, the proof's counting bounds and each route it asks
for, raising InvariantError with a replayable context (a bug, not an
unsolvable input); it trusts what its own code or a sub-solve checked at
its own level guarantees, and states why where the fact is made.

The variants are avoid-set instances of that contract: solve_linkage(d, Y)
is solve_avoiding(d, Y, ()), solve_strong(d, Y, x) is solve_avoiding(d, Y,
{x}), and solve_link(D, v, Y) is solve_avoiding(D, Y, {v, opposite(v)})
whenever 2k + 2 <= D + 1.  Its tight even case k = D/2 is one over that
budget: solve_link also hands _solve the apex v, and that top level alone
runs the link construction (_link_one_side / _link_two_sides).

Every recursion level works on a face of the top-level cube Q_D and keeps
its vertices as D-bit words.  The face is given by its free-coordinate mask
`free`; its fixed bits are the values the level's terminals share, and its
dimension d is free.bit_count().  "Coordinate i" of the face is its i-th
free bit in ascending order, so a sub-instance is the parent's vertices
(projected onto a facet where needed) with one more bit fixed, and the
paths it returns are already in the caller's words.  Deleting the fixed
bits preserves order, distance and adjacency among the vertices of a face,
so every tie-break (min, sorted, the A* heap key, ascending neighbours, the
lowest free or agreeing bit) picks what it would pick in Q_d words.  Only
the d <= 4 base case (_base) leaves the face's words.  It reads the
instance in local indices (translated by its first source, free bits in
ascending order) and looks that key up in one table of stored paths, so a
repeat costs one lookup.  On a miss (_orbit_paths) it permutes the key's
bits onto its representative under Aut(Q4), itself a key of the same
table, runs the oracle search once per representative and stores the
paths mapped back under the key.

A facet of the face is one free bit b with a side value v, 0 or b:
membership is x & b == v, projection onto it is x & ~b | v, and crossing to
the other side is x ^ b.  Facets are chosen as such masks too: the lowest
free bit that no edge inside Z runs along (_free_direction, through
cube_core.free_bit, which tries the bits lowest first), the lowest bit on
which a set of terminals agrees or the highest free bit.  Every step that
projects terminals onto a facet, solves there and attaches the terminals
left outside goes through one helper, _in_facet.  cube_core.Face appears
only where a facet or 2-face is handed out: ScenarioContext.face and the
Q3 obstruction's certificate.

Each level makes one pass over its pairs (_construction): it checks the
instance against the contract, names the construction and, for scenario 2,
finds the lowest free bit that every terminal agrees on.  The dispatch, in
order: single pairs go to the engine's router (_route), which takes the
straight descent along the bits where the endpoints differ when no avoided
vertex blocks it and runs an A* search (Hamming heuristic) otherwise;
d <= 4 goes to the oracle search, once per orbit; slack instances (k below
the maximum, or a nonempty avoid set) project into a facet chosen through
a free direction; tight even d routes its terminals by disjoint paths of
one or two edges onto the facet "x & b == 0" of its highest free bit b
(_facet_routes takes b) and solves there; tight odd d classifies into one
of three scenario constructions (all pairs antipodal / all terminals in
one facet / the rest); the top of a tight even link runs link_case1 or
link_case2.  _solve is the one place a level is entered: it appends the
level's label to the scenario trace, e.g. "Q7:scenario3", so a solve is
auditable after the fact, and an InvariantError raised in a level leaves
it with that level's instance and trace so far as context["level"].
scenario3_context returns the scenario-3 set-up that the solver itself
uses (special pair, facet F, entry map omega, and the special pair's avoid
set S with its |S| <= d - 1 bound); the omega_conditions suite inspects it.

A level owns the lists its child _solve returns and extends them in place:
_in_facet inserts or appends the terminals off its facet, the even
reduction and scenario 3 write each head stub in front of its sub-path and
each tail stub after it, the link's detour and tail are spliced in by
slice assignment, and _oriented reverses a path in place, so no level
copies a path.  That is safe because no list a level returns is held
anywhere else: routes are built per call, and _base maps the tuples it
stores into fresh lists.

Set SELF_CHECK = True (tests do) to validate every internal recursion
level's output against its own sub-instance, not just the final linkage.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from heapq import heappop, heappush
from typing import Iterable

from . import cube_core
from .cube_core import CubeGraph, Face, face_vertices, free_bit, opposite
from .path_oracle import (
    LINKED,
    HostGraph,
    InvariantError,
    Pairing,
    decide_linked,
    instance_to_json,
    linkage_to_json,
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
        out["paths"] = linkage_to_json(self.host, self.linkage)
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
# The supported range


def _within_budget(d: int, k: int, a: int) -> bool:
    """The solver contract for k pairs and a forbidden vertices in Q_d."""
    return 2 * k + a <= d + 1 and (d != 3 or k == 1)


def check_supported(kind: str, d: int, k: int, forbidden: int = 0,
                    Y: Pairing | None = None) -> None:
    """Raise ValueError unless the engine guarantees k pairs on a "plain"
    host (Q_d minus `forbidden` vertices), a "strong" one (Q_d minus one
    vertex) or a "link" (Q_d minus a vertex and its opposite, d = 3 or
    d >= 5).  A link spends one forbidden vertex of the budget: only its
    tight even case 2k = d needs the second, and that case has a
    construction of its own.  Two pairs in Q3 raise UnsupportedInstanceError,
    certified by the blocking configuration of Y when Y is given."""
    if kind == "link":
        if d != 3 and d < 5:
            raise ValueError(f"link hosts need dimension 3 or at least 5, got {d}")
        a = 1
    else:
        a = 1 if kind == "strong" else forbidden
    if _within_budget(d, k, a):
        return
    if 2 * k + a <= d + 1:  # within the budget, so it is the Q3 exception
        raise UnsupportedInstanceError(
            "two pairs in the 3-cube are not guaranteed linkable",
            certificate=None if Y is None else detect_config_3F(Y),
        )
    most = max(0, (d + 1 - a) // 2)
    if d == 3:
        most = min(most, 1)
    if kind == "link":
        host = f"the link of a vertex in Q{d}"
    else:
        host = f"Q{d} (forbidden vertices: {a})" if a else f"Q{d}"
    raise ValueError(f"{host} supports k <= {most} pairs, got k = {k}")


# ---------------------------------------------------------------------------
# Small helpers


def _oriented(path: list, s: int, t: int) -> list:
    if path and path[0] == t and path[-1] == s:
        path.reverse()  # every caller owns path
    if path and path[0] == s and path[-1] == t:
        return path
    raise InvariantError(
        "path endpoints disagree with its pair",
        {"path": path, "pair": (s, t)},
    )


@lru_cache(maxsize=1024)
def _bits(free: int) -> tuple:
    """The free coordinates of a face as one-bit masks, ascending.  A solve
    visits few distinct faces (about 300 in 300 Q13 solves), so the cache
    answers almost every call."""
    out = []
    while free:
        low = free & -free
        out.append(low)
        free ^= low
    return tuple(out)


def _free_direction(free: int, Z: set) -> int:
    """The lowest free bit of the face, as a one-bit mask, that no edge
    inside Z (a vertex set of the face) runs along.  One exists whenever
    |Z| <= d; the construction keeps within that bound, so running out is an
    engine fault, not bad input."""
    c = free_bit(free, Z)
    if not c:
        raise InvariantError("no free direction: Z breaks the |Z| <= d bound",
                             {"d": free.bit_count(), "Z": sorted(Z)})
    return c


def _terminals(pairs: list) -> list:
    return [v for p in pairs for v in p]


def _self_check(free: int, pairs: list, avoid: frozenset, paths: list) -> None:
    """Validate a level's output against its sub-instance.  Every path vertex
    must lie in the face; given that, a linkage of the face is a linkage of
    the cube around it (a face is an induced subgraph), so the paths are
    validated in the words they are written in."""
    fixed_mask = ~free
    fixed = pairs[0][0] & fixed_mask
    for path in paths:
        outside = [v for v in path if v & fixed_mask != fixed]
        if outside:
            raise InvariantError("self-check: path leaves its face",
                                 {"free": free, "path": path, "outside": outside})
    G = CubeGraph((fixed | free).bit_length(), avoid)
    report = validate_linkage(G, Pairing(tuple(pairs)), paths)
    if not report:
        raise InvariantError(
            "self-check: invalid linkage from internal solver",
            {"free": free, "pairs": pairs, "avoid": sorted(avoid),
             "clause": report.clause, "message": report.message},
        )
    for path, (s, t) in zip(paths, pairs):
        if path[0] != s or path[-1] != t:
            raise InvariantError("self-check: path orientation drifted",
                                 {"pair": (s, t), "path": path})


# ---------------------------------------------------------------------------
# Cube-native routing
#
# Both routers work on the implicit face: neighbours are flips of its free
# bits and the target facet is a bit test, so no call materialises a vertex
# set.  _route searches only when an avoided vertex blocks its descent, and
# _facet_routes never searches: with at most d terminals each one reaches
# the facet in one or two steps.  path_oracle keeps its own BFS and max-flow
# code as independent ground truth, which the tests compare them against.


def _route(free: int, s: int, t: int, avoid: set | frozenset) -> list | None:
    """Shortest s-t path in the face (s and t in it) minus `avoid`, or None:
    the straight descent when nothing blocks it, else the A* search.

    The descent is the path the A* takes when it never backtracks, so the two
    agree.  The A* heap key (g + h, -g, v) never drops below h(s), and every
    entry at depth g + 1 with f = h(s) comes from the vertex v just popped at
    depth g: while the search has not backtracked, earlier vertices pushed
    only entries of depth at most g.  So the next pop is the smallest
    non-avoided neighbour one bit closer to t, if there is one.  It is new:
    it lies at distance g + 1 from s, while every vertex closed or in `best`
    before the popped vertex expands lies within distance g.  The smallest
    such neighbour of v clears the highest bit set in v and clear in t, or,
    when every such flip is avoided or none is left, sets the lowest bit
    clear in v and set in t; that is the order _descent tries.  When it
    finds no step, the A* runs from s unchanged.
    """
    if s in avoid or t in avoid:
        raise InvariantError("route endpoints lie in the avoid set",
                             {"free": free, "pair": (s, t), "avoid": sorted(avoid)})
    if s == t:
        return [s]
    path = _descent(s, t, avoid)
    return path if path is not None else _astar(free, s, t, avoid)


def _descent(s: int, t: int, avoid: set | frozenset) -> list | None:
    """The straight s-t descent of _route, or None where it is blocked.  Its
    steps flip the bits where s and t differ: those set in s, highest first,
    then those clear in s, lowest first, each time the first remaining one
    whose flip is not avoided.  `order` holds them in reverse."""
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


def _astar(free: int, s: int, t: int, avoid: set | frozenset) -> list | None:
    """Shortest s-t path in the face minus `avoid` (s != t, neither avoided),
    or None.  A* with the Hamming heuristic h(v) = popcount(v ^ t), which is
    consistent on unit edges, so the first time t is generated its path is
    shortest.  The heap key (g + h, -g, v) breaks ties toward the larger g,
    then toward the smaller vertex, which makes the result deterministic.
    """
    bits = _bits(free)
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
        for b in bits:
            u = v ^ b
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


def _facet_routes(free: int, X: list, b: int) -> tuple:
    """Disjoint paths in the face from its terminals X, at most d =
    free.bit_count() of them, to its facet "x & b == 0", b a free bit.

    Returns (ends, picks), the facet end of each terminal's path and the
    middle vertex of each two-step drop, so x's path is [x] if ends[x] == x,
    else [x, picks[x], ends[x]] or [x, ends[x]]: the calling level owns and
    extends its child's paths by these stubs.  A terminal in the facet is its
    own one-vertex path; every other path meets the facet only at its last
    vertex, holds no other terminal, and shares no vertex with the rest.

    A source a (a & b set) whose straight drop a ^ b is not a terminal takes
    the edge [a, a ^ b].  The blocked sources, whose drop is a terminal, in
    ascending order, each take the two-step drop [a, u, u ^ b] through a's
    first neighbour u, ascending, that is no terminal, drops onto none and
    is no earlier pick's middle vertex.  Such a u has b set, so it is no
    straight drop's end, and u ^ b is no other path's end as u is no other
    pick.

    Every blocked source a has a pick.  It has d - 1 neighbours u off the
    facet bit.  Each terminal other than a and its drop spoils at most one
    of them (u itself, or u ^ b), and a terminal stacked on another across b
    spoils the same one as its partner.  Every earlier blocked source brings
    such a stacked pair, which leaves one of its two terminals to cancel the
    neighbour its own pick took.  So the at most d - 2 other terminals and
    the earlier picks spoil at most d - 2 of the d - 1.  More terminals than
    d can leave a source with no pick, which raises InvariantError.
    """
    terminals = frozenset(X)
    ends, picks = {}, {}
    blocked = []
    for x in X:
        if not x & b:
            ends[x] = x
        elif x ^ b in terminals:
            blocked.append(x)
        else:
            ends[x] = x ^ b
    if not blocked:
        return ends, picks
    blocked.sort()
    bits = _bits(free)
    taken = set()  # the middle vertices picked so far
    for a in blocked:
        for u in sorted(a ^ c for c in bits):
            if u not in terminals and u ^ b not in terminals and u not in taken:
                taken.add(u)
                picks[a] = u
                ends[a] = u ^ b
                break
        else:
            raise InvariantError(
                "no two-step drop: more terminals than the face's dimension",
                {"free": free, "terminals": X, "source": a})
    return ends, picks


# ---------------------------------------------------------------------------
# The uniform internal solver


def _construction(free: int, pairs: list, avoid: frozenset,
                  apex: int | None = None) -> tuple:
    """Check a level's instance against the solver contract and name the
    construction _solve runs on it, in one pass over the pairs.

    Returns (label, b): b is the lowest free bit every terminal agrees on,
    as a one-bit mask, for scenario2, the terminals' free direction for a
    link label, and 0 otherwise.  Every vertex lies in the face exactly when
    no fixed bit differs among them (both ^ either); only when one does is
    the first vertex off the face looked for.  A scenario2 level has no
    avoid set, so the bits its terminals agree on are the free bits outside
    both ^ either.  `apex` is given only at the top of a link: with 2k = d
    it runs link_case1 when every terminal lies on one side of b, else
    link_case2."""
    d = free.bit_count()
    k = len(pairs)
    terminals = set()
    both, either = -1, 0
    for s, t in pairs:
        terminals.add(s)
        terminals.add(t)
        both &= s & t
        either |= s | t
    if len(terminals) != 2 * k or not terminals.isdisjoint(avoid):
        raise InvariantError(
            "recursive instance has colliding terminals",
            {"d": d, "pairs": pairs, "avoid": sorted(avoid)},
        )
    if apex is not None and 2 * k == d:
        b = _free_direction(free, terminals)
        on_v_side = sum(1 for x in terminals if x & b == apex & b)
        return "link_case1" if on_v_side in (0, 2 * k) else "link_case2", b
    if k < 1 or not _within_budget(d, k, len(avoid)):
        raise InvariantError(
            "recursive instance exceeds the solver contract",
            {"d": d, "k": k, "avoid": sorted(avoid)},
        )
    for v in avoid:
        both &= v
        either |= v
    if (both ^ either) & ~free:
        fixed_mask = ~free
        fixed = pairs[0][0] & fixed_mask
        v = next(v for v in (*_terminals(pairs), *avoid) if v & fixed_mask != fixed)
        raise InvariantError(
            "recursive instance leaves its face",
            {"free": free, "pairs": pairs, "avoid": sorted(avoid), "vertex": v},
        )
    if k == 1:
        return "trivial_pair", 0
    if d <= 4:
        return "base", 0
    if avoid or k < (d + 1) // 2:
        return "projection", 0
    if d % 2 == 0:
        return "even_menger", 0
    if all(s ^ t == free for s, t in pairs):
        return "scenario1", 0
    agree = ~(both ^ either) & free
    if agree:
        return "scenario2", agree & -agree
    return "scenario3", 0


def _solve(free: int, pairs: list, avoid: frozenset, trace: list,
           apex: int | None = None) -> list:
    """k disjoint paths in the face with free-coordinate mask `free` (of
    dimension d, holding every terminal and avoid vertex) avoiding `avoid`;
    legal when _within_budget(d, k, |avoid|), or at a link's top (`apex`).
    Paths come back oriented, path i running pairs[i][0] -> [1].  An
    InvariantError gets the innermost failing level as context["level"]."""
    try:
        label, b = _construction(free, pairs, avoid, apex)
        trace.append(_trace_label(free, label))
        if label == "trivial_pair":
            s, t = pairs[0]
            path = _route(free, s, t, avoid)
            if path is None:
                # |avoid| <= d-1 < connectivity, so this cannot happen.
                raise InvariantError("routing failed under the connectivity budget",
                                     {"free": free, "pair": pairs[0], "avoid": sorted(avoid)})
            paths = [path]
        elif label == "base":
            paths = _base(free, pairs, avoid)
        elif label == "projection":
            paths = _projection(free, pairs, avoid, trace)
        elif label == "even_menger":
            paths = _even_reduction(free, pairs, trace)
        elif label == "scenario1":
            paths = _scenario1(free, pairs, trace)
        elif label == "scenario2":
            paths = _scenario2(free, pairs, b, trace)
        elif label == "scenario3":
            paths = _scenario3(free, pairs, trace)
        elif label == "link_case1":
            paths = _link_one_side(free, apex, pairs, b, trace)
        else:
            paths = _link_two_sides(free, apex, pairs, b, trace)
        if SELF_CHECK:
            _self_check(free, pairs, avoid, paths)
    except InvariantError as exc:
        exc.context.setdefault("level", {"free": free, "pairs": pairs,
                                         "avoid": sorted(avoid), "trace": list(trace)})
        raise
    return paths


@lru_cache(maxsize=1024)
def _trace_label(free: int, label: str) -> str:
    """The trace entry "Q{d}:{label}" of a level on the face `free`."""
    return f"Q{free.bit_count()}:{label}"


def _in_facet(free: int, b: int, v: int, pairs: list, avoid: frozenset,
              trace: list) -> list:
    """Solve `pairs` in the facet "x & b == v" of the face (b a free bit, v
    either 0 or b) avoiding `avoid`, which lies in the facet: project every
    terminal onto it (x & ~b | v), solve there, and extend each sub-path by
    its terminals off the facet, one edge away across b, in place: like
    every level, it owns and extends the lists its child returns."""
    sub_pairs = [(s & ~b | v, t & ~b | v) for s, t in pairs]
    paths = _solve(free ^ b, sub_pairs, avoid, trace)
    for (s, t), path in zip(pairs, paths):
        if s & b != v:
            path.insert(0, s)
        if t & b != v:
            path.append(t)
    return paths


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


# The base's paths per face-local key (see _base), as local indices.  Every
# base level is a Q4 face with k = 2 and at most one avoid vertex, so the
# table holds at most 2,730 keys with no avoid vertex and 32,760 with one,
# and needs no eviction.
_BASE: dict = {}


def _spread(bits: tuple) -> tuple:
    """words[y] is the OR of bits[j] over the set bits j of y."""
    words = [0]
    for b in bits:
        words += [v | b for v in words]
    return tuple(words)


@lru_cache(maxsize=1024)
def _local(free: int) -> tuple:
    """(words, index) for the face: words = _spread(_bits(free)) reads a
    local index as a word of the face's span, and index is its inverse."""
    words = _spread(_bits(free))
    return words, {w: y for y, w in enumerate(words)}


def _base(free: int, pairs: list, avoid: frozenset) -> list:
    """The d <= 4 base: one lookup in the face-local table, _orbit_paths
    on a miss.

    The key is k, |A| and the local index of each terminal, in pair order,
    then of the avoid vertex, after translating by the first source; bit j
    of an index is the j-th free bit, ascending.  Instances with one key
    differ by a translation and an order-keeping relabelling of free bits,
    so the paths stored in local indices serve them all: a hit is one
    lookup and the map back words[y] ^ s0.  Every base level has d = 4
    (two pairs need d >= 4)."""
    s0 = pairs[0][0]
    words, index = _local(free)
    key = [len(pairs), len(avoid)]
    for s, t in pairs:
        key += (index[s ^ s0], index[t ^ s0])
    for a in sorted(avoid):
        key.append(index[a ^ s0])
    key = tuple(key)
    paths = _BASE.get(key)
    if paths is None:
        _BASE[key] = paths = _orbit_paths(key)
    return [[words[y] ^ s0 for y in p] for p in paths]


def _orbit_paths(key: tuple) -> tuple:
    """The paths of a face-local key, base_solve run once per orbit of
    Aut(Q4).

    Every automorphism of Q4 (a translation composed with a coordinate
    permutation) maps a linkage onto a linkage of the image instance, pairs,
    orientation and avoid set included.  The key's first source is already
    0, so only the bits 1, 2, 4 and 8 move: they are ordered by their
    column, ties by ascending bit, where the column of a bit reads it in
    each index of the key, as a binary number, first index highest.  Bit j
    of the representative is the j-th bit in that order.  The
    representative is a face-local key whose columns are already in order,
    so it is its own representative, and its paths in _BASE, computed once,
    are a function of the orbit alone, whatever the table holds."""
    k, n_avoid, *rel = key
    cols = []
    for b in (1, 2, 4, 8):
        col = 0
        for x in rel:
            col = col << 1 | (x & b != 0)
        cols.append((col, b))
    cols.sort()
    words = _spread(tuple([b for _, b in cols]))
    rep = (k, n_avoid, *[words.index(x) for x in rel])
    paths = _BASE.get(rep)
    if paths is None:
        Y = Pairing(tuple(zip(rep[2:2 + 2 * k:2], rep[3:2 + 2 * k:2])))
        paths = base_solve(CubeGraph(4), Y, rep[2 + 2 * k:])
        _BASE[rep] = paths = tuple(map(tuple, paths))
    return tuple([tuple([words[y] for y in p]) for p in paths])


# ---------------------------------------------------------------------------
# Slack instances: project everything into one facet


def _projection(free: int, pairs: list, avoid: frozenset, trace: list) -> list:
    """Solve a slack level (an avoid set, or k < floor((d + 1) / 2)) in one
    facet of its face: one step of an induction on d.

    With a avoided vertices, it drops the least one, z*, and crosses along
    a free direction b of the terminals plus the rest of the avoid set,
    which exists because that set has 2k + a - 1 <= d vertices.  The
    instance moves to the facet of b away from z*, and only the rest of
    the avoid set that lies in that facet stays avoided, so the facet
    instance has 2k + a' <= d, one dimension down, with a' <= a - 1.  With
    no avoid set, b is a free direction of the 2k <= d terminals.  The
    induction ends in its base cases: Q4 with k = 2 and a <= 1, and single
    pairs."""
    X = set(_terminals(pairs))
    if avoid:
        z_star = min(avoid)
        rest = avoid - {z_star}
        b = _free_direction(free, X | rest)
        v = z_star & b ^ b  # solve on the side away from z_star
    else:
        rest = frozenset()
        b = _free_direction(free, X)
        v = 0
    return _in_facet(free, b, v, pairs,
                     frozenset(a for a in rest if a & b == v), trace)


# ---------------------------------------------------------------------------
# Tight even dimension: route terminals onto a facet, solve inside


def _even_reduction(free: int, pairs: list, trace: list) -> list:
    b = 1 << (free.bit_length() - 1)  # the highest free bit
    ends, picks = _facet_routes(free, _terminals(pairs), b)
    paths = _solve(free ^ b, [(ends[s], ends[t]) for s, t in pairs],
                   frozenset(), trace)
    for (s, t), path in zip(pairs, paths):
        if s & b:  # s is off the facet: its stub comes before the end
            path[:0] = (s, picks[s]) if s in picks else (s,)
        if t & b:
            path += (picks[t], t) if t in picks else (t,)
    return paths


# ---------------------------------------------------------------------------
# Scenario 1: every pair antipodal


def _scenario1(free: int, pairs: list, trace: list) -> list:
    s1 = pairs[0][0]
    X = set(_terminals(pairs))
    b = _free_direction(free, X - {s1})
    v = s1 & b  # F^o = "x & b == v" holds every s_i after orientation
    oriented = [(s, t) if s & b == v else (t, s) for s, t in pairs]
    # The second special pair is pair 1: no t_i crosses back onto s1, since
    # t_i ^ b = s1 makes s_i ^ b = t1, an edge along b inside X - {s1}.
    up, down = oriented[:2], oriented[2:]
    down_paths = _in_facet(free, b, v ^ b, down, frozenset(t for _, t in up), trace)
    up_paths = _in_facet(free, b, v, up, frozenset(s for s, _ in down), trace)
    return [_oriented(p, s, t) for p, (s, t) in zip(up_paths + down_paths, pairs)]


# ---------------------------------------------------------------------------
# Scenario 2: all terminals in one facet


def _scenario2(free: int, pairs: list, b: int, trace: list) -> list:
    """Every terminal has the same value at the free bit b.  Join the first
    pair that routes inside that facet around the other terminals; solve
    the rest on the terminals' mirror images in the opposite facet."""
    others = set(_terminals(pairs))
    # At most one pair can be blocked, so the first or second try succeeds.
    for idx, (s, t) in enumerate(pairs):
        path = _route(free ^ b, s, t, others - {s, t})
        if path is not None:
            break
    else:
        raise InvariantError("every pair is blocked inside the facet",
                             {"free": free, "pairs": pairs})
    rest = pairs[:idx] + pairs[idx + 1:]
    out = _in_facet(free, b, s & b ^ b, rest, frozenset(), trace)  # across b
    out.insert(idx, path)
    return out


# ---------------------------------------------------------------------------
# Scenario 3: the general odd tight case


@dataclass(frozen=True)
class ScenarioContext:
    """The set-up of the general odd-dimension construction: the special
    pair `first` and its facet, the partner involution rho, the in-facet
    terminal classes, the entry map omega into F^o, and the avoid set S of
    the special pair's route inside F.  `face` is F as a Face: its
    fixed_mask is the facet bit b and its fixed_values the side v."""

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


def _scenario3_context(free: int, pairs: list) -> tuple:
    """The special pair is the first non-antipodal one; F is the facet of
    the lowest free bit b its two terminals agree on, on their side.

    Returns the fields of ScenarioContext as a plain tuple, with F as its
    bit b and side v and with X_F and X_alpha as lists: (d, b, v, first,
    rho, X_F, X_alpha, Y_alpha, X_beta, omega, S).  The solver unpacks it;
    only scenario3_context builds the dataclass and its frozensets."""
    d = free.bit_count()
    for first, (s1, t1) in enumerate(pairs):
        if s1 ^ t1 != free:
            break
    else:
        raise InvariantError("scenario 3 needs a non-antipodal pair",
                             {"free": free, "pairs": pairs})
    agree = ~(s1 ^ t1) & free  # the free bits s1 and t1 agree on
    b = agree & -agree
    v = s1 & b
    rho = {}
    beta = []  # F-side terminals outside the alpha pairs
    alpha_idx, alpha = [], []
    for i, (s, t) in enumerate(pairs):
        rho[s] = t
        rho[t] = s
        if i == first:
            continue
        if s & b == v:
            if t & b == v:
                if (s ^ t).bit_count() == 1:  # s and t adjacent
                    alpha_idx.append(i)
                    alpha += (s, t)
                    continue
                beta += (s, t)
            else:
                beta.append(s)
        elif t & b == v:
            beta.append(t)
    X_beta = tuple(sorted(beta))
    omega = _build_omega(free, b, rho, X_beta)
    X_F = alpha + beta
    S = frozenset(X_F + [w for w in omega.values() if w not in rho])
    if len(S) > d - 1:
        raise InvariantError("avoid set for the special pair is too large",
                             {"S": sorted(S), "d": d})
    return (d, b, v, first, rho, X_F, alpha, tuple(alpha_idx), X_beta,
            omega, S)


def _build_omega(free: int, b: int, rho: dict, X_beta: tuple) -> dict:
    """Assign each blocked F-side terminal an entry vertex in F, the facet of
    the face `free` whose fixed bit b every member of X_beta shares.  Across
    F is one flip of b: a vertex's projection into F^o is x ^ b.  rho maps
    every terminal to its partner, so it doubles as the terminal set.

    omega(x) = x unless x ^ b is a terminal other than rho(x); then omega(x)
    becomes the smallest neighbour n of x in F (n = x ^ c for a free bit c
    other than b) that is no terminal, no foreign projection onto F (n ^ b
    a terminal other than rho(x)) and no earlier assignment.  The
    obstruction set has at most d-2 members, so a candidate survives.
    Moved values are no terminal, foreign projection or earlier value, and
    x stays only if x ^ b is no foreign terminal: so omega is injective and
    neither omega(x) nor omega(x) ^ b is a foreign terminal.
    """
    bits = _bits(free)
    omega: dict = {}
    taken: set = set()  # the values of omega so far
    for x in X_beta:
        px = x ^ b
        if px in rho and px != rho[x]:
            obstruction = []
            wx = None
            for c in bits:
                if c == b:
                    continue
                n = x ^ c
                if n in rho or n in taken or (n ^ b in rho and n ^ b != rho[x]):
                    obstruction.append(n)
                elif wx is None or n < wx:
                    wx = n
            if len(obstruction) > len(bits) - 2:
                raise InvariantError("entry obstruction set is too large",
                                     {"x": x, "obstruction": obstruction})
        else:
            wx = x
        omega[x] = wx
        taken.add(wx)
    return omega


def scenario3_context(d: int, Y: Pairing) -> ScenarioContext:
    """The set-up _scenario3 builds for Y, without solving.  Handy for
    inspecting the construction.  ValueError when Y is no instance that
    solve_linkage accepts, or when it runs another construction."""
    _checked(d, Y, ())
    check_supported("plain", d, Y.k, 0, Y)
    pairs = list(Y.pairs)
    free = (1 << d) - 1
    label, _ = _construction(free, pairs, frozenset())
    if label != "scenario3":
        reason = {"scenario1": "all pairs antipodal",
                  "scenario2": "all terminals share a facet"}.get(
                      label, f"the solver runs {label} on this instance")
        raise ValueError(f"{reason}: no scenario3 context exists")
    d, b, v, first, rho, X_F, X_alpha, *fields = _scenario3_context(free, pairs)
    return ScenarioContext(d, Face(b, v), first, rho, frozenset(X_F),
                           frozenset(X_alpha), *fields)


def _scenario3(free: int, pairs: list, trace: list) -> list:
    """F is "x & b == v".  One pass gives every pair but the special and
    alpha ones an entry path per terminal into F^o: [x] for x in F^o, else
    x, omega(x) if moved, and omega(x) ^ b, read off omega.  One solve in
    F^o joins the pairs no entry path completes, avoiding the F^o ends of
    those it does, and their stubs are written onto its paths in place.
    Every path, sub-solve and _route result included, runs from s to t."""
    _, b, v, first, _, _, _, Y_alpha, _, omega, S = _scenario3_context(free, pairs)
    s1, t1 = pairs[first]
    out = [None] * len(pairs)
    for i in Y_alpha:
        out[i] = list(pairs[i])
    sub_pairs, sub_avoid, joined = [], [], []
    for i, (s, t) in enumerate(pairs):
        if i == first or out[i] is not None:
            continue
        es = s if s & b != v else omega[s] ^ b  # the F^o ends of the entries
        et = t if t & b != v else omega[t] ^ b
        if es == t:
            out[i] = [s, t] if omega[s] == s else [s, omega[s], t]
            sub_avoid.append(t)
        elif et == s:
            out[i] = [s, t] if omega[t] == t else [s, omega[t], t]
            sub_avoid.append(s)
        else:
            sub_pairs.append((es, et))
            joined.append(i)

    sub = free ^ b
    if sub_pairs:
        sub_paths = _solve(sub, sub_pairs, frozenset(sub_avoid), trace)
        for i, path in zip(joined, sub_paths):
            s, t = pairs[i]
            if s & b == v:
                path[:0] = (s,) if omega[s] == s else (s, omega[s])
            if t & b == v:
                path += (t,) if omega[t] == t else (omega[t], t)
            out[i] = path

    # S lies in F, the special pair's facet.
    L1 = _route(sub, s1, t1, S)
    if L1 is None:
        raise InvariantError(
            "special-pair search failed inside the facet",
            {"free": free, "pair": (s1, t1), "S": sorted(S)},
        )
    out[first] = L1
    return out


# ---------------------------------------------------------------------------
# Public solvers


def _checked(d: int, Y: Pairing, avoid: Iterable[int]) -> frozenset:
    """Validate the dimension, terminals and forbidden vertices of an
    instance in Q_d, and return the forbidden set.  A plain int in range
    passes at once; cube_core.check_vertex rules on any other vertex."""
    cube_core.check_dim(d)
    avoid_set = frozenset(avoid)
    top = 1 << d
    for vertices in (*Y.pairs, avoid_set):
        for v in vertices:
            if type(v) is not int or not 0 <= v < top:
                cube_core.check_vertex(d, v)
    if avoid_set:
        hit = [v for p in Y.pairs for v in p if v in avoid_set]
        if hit:
            raise ValueError(f"forbidden vertex {min(hit)} is a terminal")
    return avoid_set


@lru_cache(maxsize=1024)
def _shared_host(d: int, removed: frozenset) -> CubeGraph:
    """Q_d minus ``removed``, built once per shape for the solves' results;
    the caller has validated both.  Hosts are frozen, so results may share
    them."""
    return CubeGraph(d, removed)


def solve_avoiding(d: int, Y: Pairing, avoid: Iterable[int]) -> SolveResult:
    """A Y-linkage in Q_d dodging the forbidden vertices `avoid`, in the
    range check_supported("plain", d, k, |avoid|) accepts."""
    avoid_set = _checked(d, Y, avoid)
    check_supported("plain", d, Y.k, len(avoid_set), Y)
    trace: list = []
    paths = _solve((1 << d) - 1, list(Y.pairs), avoid_set, trace)
    return SolveResult(_shared_host(d, avoid_set), Y, paths, tuple(trace))


def solve_linkage(d: int, Y: Pairing) -> SolveResult:
    """A Y-linkage in Q_d: solve_avoiding with nothing forbidden."""
    return solve_avoiding(d, Y, ())


def solve_strong(d: int, Y: Pairing, x: int) -> SolveResult:
    """A Y-linkage in Q_d that avoids the forbidden vertex x."""
    return solve_avoiding(d, Y, {x})


def solve_link(d_plus_1: int, v: int, Y: Pairing) -> SolveResult:
    """A Y-linkage in Q_{d+1} minus {v, opposite(v)}: the link of v, in the
    range check_supported("link", d_plus_1, k) accepts.  The uniform solver
    takes the two removed vertices as its avoid set, as solve_avoiding
    would, and the apex v besides: only the tight even case k = d_plus_1 / 2
    reads it, running the link construction.  That construction's output
    depends on which removed vertex is the apex: when half the terminals
    lie on v's side of the split bit, _link_two_sides breaks the tie
    towards v, which a frozenset avoid set cannot carry.
    """
    cube_core.check_dim(d_plus_1)
    vo = opposite(d_plus_1, cube_core.check_vertex(d_plus_1, v))
    check_supported("link", d_plus_1, Y.k)
    removed = _checked(d_plus_1, Y, {v, vo})
    trace: list = []
    paths = _solve((1 << d_plus_1) - 1, list(Y.pairs), removed, trace, v)
    return SolveResult(_shared_host(d_plus_1, removed), Y, paths, tuple(trace))


def _link_one_side(free: int, v: int, pairs: list, b: int, trace: list) -> list:
    bad_A = v if v & b == pairs[0][0] & b else v ^ free
    bad_B = bad_A ^ free
    sub = free ^ b
    out = _solve(sub, pairs, frozenset(), trace)
    # At most one of the disjoint paths holds bad_A, never at an end (_checked).
    i = next((i for i, p in enumerate(out) if bad_A in p), None)
    if i is None:
        return out
    trace.append(_trace_label(free, "link_detour"))
    path = out[i]
    j = path.index(bad_A)
    w1, w2 = path[j - 1], path[j + 1]
    M = _route(sub, w1 ^ b, w2 ^ b, {bad_B})  # its ends lie D - 2 >= 4 from bad_B
    if M is None:
        raise InvariantError("detour routing failed in the opposite facet",
                             {"D": free.bit_count(), "from": w1, "to": w2})
    path[j:j + 1] = M
    return out


def _link_two_sides(free: int, v: int, pairs: list, b: int, trace: list) -> list:
    X = _terminals(pairs)
    count_v_side = sum(1 for x in X if x & b == v & b)
    bad = v if count_v_side >= len(X) - count_v_side else v ^ free
    bad_tail = bad ^ free
    side = bad & b  # solve in the facet "x & b == side", which holds bad
    tail_terms = [x for x in X if x & b != side]
    pref = bad ^ b  # the unique tail-side neighbor of bad
    t1 = pref if pref in tail_terms else min(tail_terms)
    j1 = next(i for i, p in enumerate(pairs) if t1 in p)
    s1 = pairs[j1][0] if pairs[j1][1] == t1 else pairs[j1][1]

    others = [i for i in range(len(pairs)) if i != j1]
    sub_paths = _in_facet(free, b, side, [(s1, bad)] + [pairs[i] for i in others],
                          frozenset(), trace)

    M1 = sub_paths[0]  # s1 -> bad, s1 != bad; it crosses b first when s1 is tail-side
    pw = M1[-2] ^ b  # the guide, M1's last vertex before bad, carried across
    # S, t1 and pw lie in the tail facet, the one opposite the solved one.
    S = {bad_tail} | (set(tail_terms) - {t1})
    sub = free ^ b
    if pw == s1:
        # The guide path is a single edge out of s1; route directly.
        L1 = _route(sub, s1, t1, {u for u in S if u != s1})
        if L1 is None:
            raise InvariantError("direct tail routing failed", {"pair": (s1, t1)})
    else:
        tail = _route(sub, pw, t1, S)  # raises if pw is in S
        if tail is None:
            raise InvariantError("tail routing failed in the opposite facet",
                                 {"pair": (s1, t1), "S": sorted(S)})
        M1[-1:] = tail
        L1 = M1
    out = dict(zip(others, sub_paths[1:]))
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
