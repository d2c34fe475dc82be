"""Exact decision procedures, independent of the constructive solvers.

Everything here is ground truth: a max-flow router for setwise disjoint
paths, an exhaustive backtracking decision for pairing linkages, BFS path
search under avoid sets, separator structure checks, and the linkage
validator.  The constructive engine does its own path search and facet
routing (linkage_engine._route and _facet_routes), so an engine routing bug
cannot hide behind an oracle bug.  Its declared shared points with this
module are:

  * decide_linked, which is the engine's exact base case (the Q4 base),
    run once per Aut(Q4) orbit representative and mapped back;
  * validate_linkage, which checks every recursion level under SELF_CHECK;
  * the Pairing, HostGraph and InvariantError types, LINKED, and the
    JSON forms instance_to_json (for error contexts) and linkage_to_json
    (for SolveResult.to_json).

Hosts are either a ``cube_core.CubeGraph`` (a cube, possibly with removed
vertices) or a ``FixtureGraph`` (explicit adjacency lists, string vertex
names).  Instances serialize as JSON::

    {"host": {"type": "cube", "d": 4, "forbidden": ["1111"]},
     "pairs": [["0000", "0011"], ["0101", "1010"]]}

    {"host": {"type": "graph", "vertices": [...], "edges": [[a, b], ...]},
     "pairs": [["s1", "t1"], ["s2", "t2"]]}

Vertices of cube hosts are binary strings, most significant coordinate
first; fixture vertices are their names.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, NamedTuple, Union

from . import cube_core
from .cube_core import CubeGraph

Vertex = Union[int, str]
Path = list
Linkage = list

DEFAULT_NODE_BUDGET = 10**8

LINKED = "linked"
UNLINKED = "unlinked"
BUDGET_EXCEEDED = "budget_exceeded"


class InvariantError(RuntimeError):
    """An internal invariant failed; carries enough context to replay."""

    def __init__(self, message: str, context: dict | None = None) -> None:
        super().__init__(message)
        self.context = context or {}


# ---------------------------------------------------------------------------
# Hosts


@dataclass(frozen=True)
class FixtureGraph:
    """A small explicit graph with string vertex names."""

    name: str
    adjacency: Mapping[str, tuple[str, ...]]
    removed: frozenset = field(default_factory=frozenset)

    @property
    def vertex_count(self) -> int:
        return sum(1 for v in self.adjacency if v not in self.removed)

    def vertex_list(self) -> list[str]:
        return sorted(v for v in self.adjacency if v not in self.removed)

    def has_vertex(self, v: Vertex) -> bool:
        return v in self.adjacency and v not in self.removed

    def neighbors(self, v: Vertex) -> list[str]:
        if not self.removed:
            return list(self.adjacency[v])
        return [w for w in self.adjacency[v] if w not in self.removed]

    def without(self, extra: Iterable[Vertex]) -> "FixtureGraph":
        return FixtureGraph(self.name, self.adjacency, self.removed | frozenset(extra))

    def format_vertex(self, v: Vertex) -> str:
        if v not in self.adjacency:
            raise ValueError(f"unknown vertex {v!r} in graph {self.name!r}")
        return str(v)

    def parse_vertex(self, s: str) -> str:
        if not isinstance(s, str) or s not in self.adjacency:
            raise ValueError(f"unknown vertex {s!r} in graph {self.name!r}")
        if s in self.removed:
            raise ValueError(f"vertex {s!r} is removed from this host")
        return s


HostGraph = Union[CubeGraph, FixtureGraph]


def fixture_graph(name: str, edges: Iterable[tuple[str, str]],
                  vertices: Iterable[str] = ()) -> FixtureGraph:
    """Build a FixtureGraph from an edge list; isolated vertices may be listed."""
    adj: dict[str, set[str]] = {v: set() for v in vertices}
    for a, b in edges:
        if a == b:
            raise ValueError(f"self-loop at {a!r}")
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    frozen = {v: tuple(sorted(ws)) for v, ws in sorted(adj.items())}
    return FixtureGraph(name, frozen)


def pyramid2_quad() -> FixtureGraph:
    """Two-fold pyramid over a quadrangle.

    Six vertices: s1, s2, t1, t2 on a 4-cycle in this cyclic order, plus two
    apexes x and y adjacent to all other vertices and to each other.  The
    graph is 2-linked but not strongly 2-linked: remove an apex and the
    crossing pairing {s1,t1},{s2,t2} has no linkage.
    """
    cycle = [("s1", "s2"), ("s2", "t1"), ("t1", "t2"), ("t2", "s1")]
    apex = [(a, v) for a in ("x", "y") for v in ("s1", "s2", "t1", "t2")]
    return fixture_graph("pyramid2-quad", cycle + apex + [("x", "y")])


# ---------------------------------------------------------------------------
# Pairings


@dataclass(frozen=True)
class Pairing:
    """An ordered list of k unordered terminal pairs with all 2k distinct."""

    pairs: tuple

    def __post_init__(self) -> None:
        pairs = tuple([(s, t) for s, t in self.pairs])
        object.__setattr__(self, "pairs", pairs)
        if not pairs:
            raise ValueError("a pairing needs at least one pair")
        if len(set().union(*pairs)) != 2 * len(pairs):
            flat = [v for p in pairs for v in p]
            seen = set()
            dup = next(v for v in flat if v in seen or seen.add(v))
            raise ValueError(f"terminals are not distinct: {dup!r} repeats")

    @property
    def k(self) -> int:
        return len(self.pairs)

    @property
    def terminals(self) -> tuple:
        return tuple(v for p in self.pairs for v in p)


# ---------------------------------------------------------------------------
# JSON plumbing


def host_to_json(G: HostGraph) -> dict:
    if isinstance(G, CubeGraph):
        return {
            "type": "cube",
            "d": G.d,
            "forbidden": [cube_core.format_vertex(G.d, v) for v in sorted(G.removed)],
        }
    edges = set()
    for v, ws in G.adjacency.items():
        for w in ws:
            edges.add((min(v, w), max(v, w)))
    out = {
        "type": "graph",
        "vertices": sorted(G.adjacency),
        "edges": [list(e) for e in sorted(edges)],
    }
    if G.removed:
        out["forbidden"] = sorted(G.removed)
    return out


def _json_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a JSON list, got {value!r}")
    return value


def _json_names(value, what: str) -> list:
    names = _json_list(value, what)
    for name in names:
        if not isinstance(name, str):
            raise ValueError(f"{what} must hold vertex names (strings), got {name!r}")
    return names


def host_from_json(obj: dict) -> HostGraph:
    if not isinstance(obj, dict) or "type" not in obj:
        raise ValueError("host object must be a dict with a 'type' field")
    if obj["type"] == "cube":
        d = obj.get("d")
        if not isinstance(d, int) or isinstance(d, bool):
            raise ValueError(f"cube host dimension must be an integer, got {d!r}")
        cube_core.check_dim(d)
        forbidden = frozenset(
            cube_core.parse_vertex(d, s)
            for s in _json_list(obj.get("forbidden", []), "forbidden")
        )
        return CubeGraph(d, forbidden)
    if obj["type"] == "graph":
        names = _json_names(obj.get("vertices", []), "vertices")
        edges = []
        for edge in _json_list(obj.get("edges", []), "edges"):
            if len(_json_names(edge, "an edge")) != 2:
                raise ValueError(f"edge {edge!r} must have exactly two vertices")
            edges.append(tuple(edge))
        G = fixture_graph(str(obj.get("name", "graph")), edges, names)
        forbidden = _json_names(obj.get("forbidden", []), "forbidden")
        if forbidden:
            for s in forbidden:
                G.parse_vertex(s)
            G = G.without(forbidden)
        return G
    raise ValueError(f"unknown host type {obj['type']!r}")


def pairing_to_json(G: HostGraph, Y: Pairing) -> list:
    return [[G.format_vertex(s), G.format_vertex(t)] for s, t in Y.pairs]


def pairing_from_json(G: HostGraph, obj: list) -> Pairing:
    pairs = []
    for item in _json_list(obj, "pairs"):
        if len(_json_list(item, "a pair")) != 2:
            raise ValueError(f"pair {item!r} must have exactly two vertices")
        s, t = item
        pairs.append((G.parse_vertex(s), G.parse_vertex(t)))
    return Pairing(tuple(pairs))


def instance_to_json(G: HostGraph, Y: Pairing) -> dict:
    return {"host": host_to_json(G), "pairs": pairing_to_json(G, Y)}


def parse_instance(obj: dict) -> tuple[HostGraph, Pairing]:
    if not isinstance(obj, dict) or "host" not in obj or "pairs" not in obj:
        raise ValueError("instance object needs 'host' and 'pairs' fields")
    G = host_from_json(obj["host"])
    return G, pairing_from_json(G, obj["pairs"])


def linkage_to_json(G: HostGraph, L: Linkage) -> list:
    return [[G.format_vertex(v) for v in path] for path in L]


def linkage_from_json(G: HostGraph, obj: list) -> Linkage:
    # A path through a removed vertex parses: validate_linkage reports it
    # as a MEMBERSHIP failure of the witness.
    whole = replace(G, removed=frozenset())
    return [[whole.parse_vertex(s) for s in _json_list(path, "a path")]
            for path in _json_list(obj, "paths")]


# ---------------------------------------------------------------------------
# BFS path search


def avoid_path(G: HostGraph, s: Vertex, t: Vertex, avoid: Iterable[Vertex]) -> Path | None:
    """Shortest s-t path in G minus the avoid set, or None if disconnected.

    Deterministic: BFS visits neighbors in ascending order, so ties break
    toward lexicographically earlier parents.
    """
    avoid_set = frozenset(avoid)
    if s in avoid_set or t in avoid_set:
        raise ValueError("avoid_path endpoints must not be in the avoid set")
    for v in (s, t):
        if not G.has_vertex(v):
            raise ValueError(f"endpoint {v!r} is not a vertex of the host")
    if s == t:
        return [s]
    parent = {s: None}
    queue = deque([s])
    while queue:
        v = queue.popleft()
        for w in sorted(G.neighbors(v)):
            if w in parent or w in avoid_set:
                continue
            parent[w] = v
            if w == t:
                path = [t]
                while parent[path[-1]] is not None:
                    path.append(parent[path[-1]])
                path.reverse()
                return path
            queue.append(w)
    return None


# ---------------------------------------------------------------------------
# Menger-style setwise routing via max-flow


@dataclass(frozen=True)
class MengerResult:
    """Outcome of menger_disjoint_paths.

    ``paths`` holds min(count, flow) A-B paths.  When fewer than ``count``
    exist, ``complete`` is False and (in the default mode) ``separator``
    is a vertex set of size == flow, drawn from V minus (A union B), whose
    removal separates A from B.  Strict mode reports no separator.
    """

    paths: list
    separator: list | None
    complete: bool

    @property
    def flow(self) -> int:
        return len(self.paths)


def menger_disjoint_paths(G: HostGraph, A: Iterable[Vertex], B: Iterable[Vertex],
                          count: int, *, strict: bool = False) -> MengerResult:
    """Route ``count`` disjoint A-B paths, or expose a small separator.

    Each returned path meets A only at its first vertex and B only at its
    last.  In the default (fan) mode, distinct paths may share endpoints:
    a single vertex of A can be the start of several paths, which is the
    setwise Menger statement matching separators drawn from V minus
    (A union B).  With ``strict=True`` every vertex, terminals included,
    is used by at most one path, so a full routing has ``count`` distinct
    start vertices; the tests use it, pushing a terminal set into a facet,
    as the reference for linkage_engine._facet_routes.

    Vertices in both A and B become one-vertex paths first.  Implemented as
    unit-capacity max-flow on the vertex-split digraph (fan mode uncaps the
    terminal splits); augmenting paths are shortest-first, so results are
    deterministic.  The separator is read off the nodes that the last,
    failed augmenting search reached, the source side of a minimum cut.
    """
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    A_set = frozenset(A)
    B_set = frozenset(B)
    if not A_set or not B_set:
        raise ValueError("A and B must be nonempty")
    for v in A_set | B_set:
        if not G.has_vertex(v):
            raise ValueError(f"terminal {v!r} is not a vertex of the host")

    trivial = [[v] for v in sorted(A_set & B_set)]
    if len(trivial) >= count:
        return MengerResult(trivial[:count], None, True)
    work = G.without(A_set & B_set) if trivial else G
    need = count - len(trivial)
    paths, reach = _max_flow_paths(work, A_set - B_set, B_set - A_set, need, strict)
    if len(paths) == need:
        return MengerResult(trivial + paths, None, True)
    if strict:
        return MengerResult(trivial + paths, None, False)
    if trivial:
        raise ValueError(
            "no separator witness exists: A and B overlap, and a shared "
            "vertex is an uncuttable one-vertex path"
        )
    for a in sorted(A_set):
        for w in G.neighbors(a):
            if w in B_set:
                raise ValueError(
                    "no separator witness exists: an A-B edge cannot be cut "
                    f"by vertices outside A and B (edge {a!r}-{w!r})"
                )
    # A and B are disjoint here.  Each arc leaving the cut's source side
    # names one separator vertex: its own for a split arc; for an edge arc
    # its head, or its tail when the head is in B.
    sep = set()
    for node in reach:
        if node == "S":
            continue  # S's arcs are never saturated below `need`
        kind, v = node
        for succ in _successors(work, node, A_set, B_set):
            if succ in reach or succ == "T":
                continue
            if kind == "i":
                sep.add(v)
            else:
                w = succ[1]
                sep.add(w if w not in B_set else v)
    if len(sep) != len(paths):
        raise InvariantError(
            "separator size disagrees with flow value",
            {"separator": sorted(sep), "flow": len(paths)},
        )
    if _reaches(work, A_set, B_set, sep):
        raise InvariantError(
            "extracted separator fails to separate", {"separator": sorted(sep)}
        )
    return MengerResult(paths, sorted(sep), False)


# Flow network nodes are ('i', v) / ('o', v) splits plus 'S' and 'T'.
# Arcs: S -> ('i',a) for a in A; ('i',a) -> ('o',a); ('o',v) -> ('i',w) for
# edges vw with w not in A; ('i',b) -> T for b in B.  B out-nodes have no
# arcs and A in-nodes no edge arcs, so paths meet A at the start and B at
# the end, structurally.  Interior splits are capacity 1; terminal arcs get
# capacity `need` in fan mode, 1 in strict mode.


def _arc_cap(node, succ, A_set, B_set, loose: int) -> int:
    if node == "S":
        return loose
    kind, v = node
    if kind == "i":
        if succ == "T":
            return loose
        return loose if v in A_set else 1
    return 1  # edge arc


def _successors(G, node, A_set, B_set):
    if node == "S":
        return [("i", a) for a in sorted(A_set)]
    kind, v = node
    if kind == "i":
        if v in B_set:
            return ["T"]
        return [("o", v)]
    if v in B_set:
        return []
    return [("i", w) for w in sorted(G.neighbors(v)) if w not in A_set]


def _max_flow_paths(G, A_set, B_set, need: int, strict: bool):
    """Up to ``need`` A-B paths, and the node set that the last, failed
    augmenting search reached (None when all ``need`` paths were found)."""
    loose = 1 if strict else need
    flow: dict = {}
    in_flow: dict = {}

    def residual_neighbors(node):
        for succ in _successors(G, node, A_set, B_set):
            cap = _arc_cap(node, succ, A_set, B_set, loose)
            if cap - flow.get((node, succ), 0) > 0:
                yield succ, (node, succ), +1
        for pred in in_flow.get(node, ()):  # cancel existing flow
            if flow.get((pred, node), 0) > 0:
                yield pred, (pred, node), -1

    value, reach = 0, None
    while value < need:
        parent = {"S": None}
        queue = deque(["S"])
        found = False
        while queue and not found:
            node = queue.popleft()
            for succ, arc, sign in residual_neighbors(node):
                if succ in parent:
                    continue
                parent[succ] = (node, arc, sign)
                if succ == "T":
                    found = True
                    break
                queue.append(succ)
        if not found:
            reach = parent.keys()
            break
        node = "T"
        while parent[node] is not None:
            prev, arc, sign = parent[node]
            flow[arc] = flow.get(arc, 0) + sign
            if sign > 0:
                in_flow.setdefault(arc[1], set()).add(arc[0])
            node = prev
        value += 1

    paths = []
    for a in sorted(A_set):
        while flow.get(("S", ("i", a)), 0) > 0:
            flow["S", ("i", a)] -= 1
            path = [a]
            node = ("i", a)
            while node != "T":
                for succ in _successors(G, node, A_set, B_set):
                    if flow.get((node, succ), 0) > 0:
                        flow[node, succ] -= 1
                        if succ != "T" and succ[0] == "i":
                            path.append(succ[1])
                        node = succ
                        break
                else:
                    raise InvariantError("flow decomposition ran out of arcs")
            paths.append(path)
    return paths, reach


def _reaches(G, A_set, B_set, removed) -> bool:
    removed = set(removed)
    seen = set(a for a in A_set if a not in removed)
    queue = deque(seen)
    while queue:
        v = queue.popleft()
        if v in B_set:
            return True
        for w in G.neighbors(v):
            if w not in seen and w not in removed:
                seen.add(w)
                queue.append(w)
    return any(b in seen for b in B_set)


# ---------------------------------------------------------------------------
# Exact pairing-linkage decision


class DecideOutcome(NamedTuple):
    """Result of decide_linked.

    ``status`` is one of LINKED / UNLINKED / BUDGET_EXCEEDED.  A LINKED
    outcome carries the witness linkage.  ``pair_order`` is always the
    input order ``tuple(range(k))``: the search routes the pairs in that
    order whatever the verdict.  A named tuple, so that a search pays
    little to return it; true exactly when the status is LINKED.
    """

    status: str
    linkage: list | None
    pair_order: tuple
    nodes_used: int

    def __bool__(self) -> bool:
        return self.status == LINKED


def _cube_steps(d: int, cur: int, t: int, used=(), blocked=()):
    """The neighbours of cur in Q_d that lie in neither ``used`` nor
    ``blocked``, closer to t first, ties by ascending vertex: the order of
    ``sorted(neighbours, key=lambda w: ((w ^ t).bit_count(), w))``.

    Read off the bits: first those where cur and t differ, then the rest;
    within each group, the bits set in cur highest first, then those clear
    in cur lowest first.  Each neighbour is tested when it is drawn.
    """
    same = (1 << d) - 1 ^ cur ^ t
    for ones, zeros in ((cur & ~t, t & ~cur), (cur & same, same & ~cur)):
        while ones:
            bit = 1 << ones.bit_length() - 1
            ones ^= bit
            if (w := cur ^ bit) not in used and w not in blocked:
                yield w
        while zeros:
            bit = zeros & -zeros
            zeros ^= bit
            if (w := cur ^ bit) not in used and w not in blocked:
                yield w


def _toward(G: FixtureGraph, t: Vertex, used, blocked):
    """The neighbours of a vertex of a fixture host that lie in neither
    ``used`` nor ``blocked``, closer to t first, ties by ascending vertex,
    each tested as it is drawn.

    Returns a function of the path's end.  The distance is the BFS distance
    to t in G, with vertices that cannot reach t last, and each call sorts
    the neighbours.  A cube reads the same order off the bits
    (``_cube_steps``).
    """
    dist = {t: 0}
    queue = deque([t])
    while queue:
        v = queue.popleft()
        for w in G.neighbors(v):
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    far = len(G.adjacency)
    return lambda cur: (w for w in sorted(G.neighbors(cur),
                                          key=lambda w: (dist.get(w, far), w))
                        if w not in used and w not in blocked)


def _cube_walk(d: int, v: int, t: int, used, blocked) -> list:
    """The vertices a monotone v-t walk in Q_d steps on, in order; it
    arrived when the last one is t.

    Each step goes to the first neighbour in ``_cube_steps`` order, the
    order in which decide_linked tries a path end's neighbours, that lies
    in neither ``used`` nor ``blocked``, provided that neighbour is one step
    closer to t; v itself may be in either set.  The closer neighbours come
    first in that order, so the walk reads them off the bits itself: it
    flips the bits where it differs from t, those set at v first, highest
    first, then those clear at v, lowest first, skipping flips onto barred
    vertices, and stops where every closer neighbour is barred; the
    search's first option at v is the walk's first step.  A walk that
    arrives is a shortest v-t path.  It never backtracks, so a walk that
    sticks proves nothing.  Each probe is two set lookups, whatever d is.
    """
    trail = []
    while v != t:
        ones, zeros = v & ~t, t & ~v
        while ones:
            w = v ^ 1 << ones.bit_length() - 1
            if w not in used and w not in blocked:
                break
            ones ^= v ^ w
        else:
            while zeros:
                w = v ^ (zeros & -zeros)
                if w not in used and w not in blocked:
                    break
                zeros ^= v ^ w
            else:
                break
        trail.append(w)
        v = w
    return trail


def _cube_witness(d: int, s: int, t: int, used, blocked) -> list | None:
    """A path from s to t in Q_d whose vertices after s lie in neither
    ``used`` nor ``blocked``, as the list of those vertices, or None when
    these walks find none (which proves nothing).

    A ``_cube_walk``; where it sticks, at v, one step onto each neighbour u
    that ``_cube_steps`` draws clear of ``used``, ``blocked``, s and the
    first walk (the closer ones are barred), each followed by a second walk
    from u that avoids the same vertices.  The search, at v in turn, tries
    those neighbours in the same order, so when the first one leads on,
    the witness is the path the search walks first.
    """
    trail = _cube_walk(d, s, t, used, blocked)
    if trail and trail[-1] == t:
        return trail
    v = trail[-1] if trail else s
    off = blocked.union(trail, (s,))
    for u in _cube_steps(d, v, t, used, off):
        rest = _cube_walk(d, u, t, used, off)
        if rest and rest[-1] == t:
            return trail + [u] + rest
    return None


def _bfs_witness(G: HostGraph, s: Vertex, t: Vertex, used, blocked) -> list | None:
    """A path from s to t in G whose vertices after s lie in neither
    ``used`` nor ``blocked``, as the list of those vertices, or None when
    there is none; s itself may be in either set.

    Grows one BFS tree from s and one from t, each time extending by one
    layer the tree whose newest layer is smaller, until a new neighbour
    lies in the other tree, where the witness joins the two branches, or a
    layer comes out empty.  So an end whose neighbours are all barred costs
    one layer, not a search of everything the other end reaches.
    """
    trees = ({s: None}, {t: None})  # vertex -> its parent, towards the root
    layers = [[s], [t]]
    while True:
        side = len(layers[0]) > len(layers[1])
        tree, other = trees[side], trees[not side]
        grown = []
        for v in layers[side]:
            for w in G.neighbors(v):
                if w in other:
                    a, b = (w, v) if side else (v, w)
                    head, tail = [], [b]
                    while a != s:
                        head.append(a)
                        a = trees[0][a]
                    while b != t:
                        b = trees[1][b]
                        tail.append(b)
                    return head[::-1] + tail
                if w not in tree and w not in used and w not in blocked:
                    tree[w] = v
                    grown.append(w)
        if not grown:
            return None
        layers[side] = grown


def _reach(G: HostGraph, s: Vertex, t: Vertex, used, blocked) -> list | None:
    """Can s still reach t through vertices in neither ``used`` nor
    ``blocked``?  None when it cannot; otherwise a witness, the vertices
    after s of such a path.

    On a cube ``_cube_witness`` answers first, with set lookups only.  When
    its walks find no path, and on every test on a fixture host,
    ``_bfs_witness`` answers exactly.
    """
    if isinstance(G, CubeGraph):
        trail = _cube_witness(G.d, s, t, used, blocked)
        if trail is not None:
            return trail
    return _bfs_witness(G, s, t, used, blocked)


def decide_linked(G: HostGraph, Y: Pairing, budget: int = DEFAULT_NODE_BUDGET) -> DecideOutcome:
    """Exact backtracking decision: is the pairing linked in G?

    Every terminal must be a usable vertex of G, by validate_linkage's
    MEMBERSHIP rule (``_member``); any other terminal is a ValueError.

    Deterministic: pairs are routed in input order, and a path extends
    through the neighbors of its end in order of their distance to the
    pair's target, ties broken by ascending vertex.  On a cube the
    neighbors one step closer come first: bits set at the end and clear at
    the target, highest first, then bits clear at the end and set at the
    target, lowest first; so the first path tried is a straight descent
    whenever nothing blocks it.  A cube reads this order off the bits of
    the end and the target (``_cube_steps``), so the search keeps no state
    between calls; a graph host sorts by BFS distance (``_toward``).
    Pruning is sound: a partial state is abandoned when some unfinished
    pair has its endpoints separated in the graph minus the vertices
    already used and minus all other terminals (terminals of other pairs
    can never lie on a pair's path, since each is an endpoint of its own
    path in any linkage).  The node budget turns oversize searches into
    an explicit BUDGET_EXCEEDED outcome; it is never reported as UNLINKED.

    The separation test is incremental.  Each unfinished pair keeps a
    witness, or None: the rest of a path from its start (the path's end for
    the pair being routed, the source for later pairs) to its target, clear
    of the used vertices and of the other terminals.  A node re-tests, in
    pair order, each pair without a witness, the routed pair from the
    path's end and a later pair from its source; the first pair that cannot
    reach its target prunes the node.  A step onto w trims the routed
    pair's witness to the part after w, a witness from w, or drops it when
    w is not on it, and drops every later pair's witness through w.
    Backtracking drops the witness of each pair whose path it pops, since
    its start is its source again.  A re-test (``_reach``) on a cube first
    walks to the target (``_cube_witness``), flipping bits in the order the
    search tries neighbours, so the search's first option is the witness's
    next vertex and a free descent never re-tests.  When the walks find no
    path, and on every re-test on a fixture host, a BFS grown from both
    ends (``_bfs_witness``) finds a witness or proves the cut.  The used
    vertices and each pair's barred vertices are sets, so each probe costs
    O(1) whatever d is.  Every test answers exact reachability, so
    witnesses move no node count, linkage or verdict.  The search itself
    is iterative: an explicit stack holds, for each path vertex, the
    neighbors still to try, filtered as they are drawn, so witness length
    is bounded by memory, not by Python's recursion limit.  Each search
    node is one extension step of one path (``nodes_used`` counts them),
    and reaching a pair's target starts the next pair.

    On a cube the paths that the search steps along first are found before
    it starts.  Pair by pair, in order, each pair walks from its source
    (``_cube_walk``) around its source, every vertex of the earlier pairs'
    paths, its own trail so far and its barred vertices; where the walk
    sticks, it steps onto the first neighbour that ``_cube_steps`` draws
    clear of those vertices, the search's first option there, and walks on.
    When every pair arrives and the k sources plus the paths' vertices fit
    the budget, the paths are the linkage, at one node per vertex, and the
    search is not run.  The result is exact: at every node along these
    paths no re-test can prune, since the routed pair still reaches its
    target along the rest of its own path, and every later pair reaches its
    target along its own path, which avoids every earlier path in full.  So
    the search never backtracks, and at each node its first option is the
    path's next vertex: a walk step is ``_cube_steps``' first closer option,
    and a detour is its first option outright.  The search would return the
    same linkage and pair order, with k plus the paths' vertices after
    their sources as its node count.  Otherwise the search runs, with each
    arrived path as its pair's witness, to the same outcome.  A pair takes
    at most d detours: around a walled-in end no path arrives, and an
    uncapped greedy walk would wander through much of the cube before the
    first node's BFS proves the cut in one layer.
    """
    pairs = Y.pairs
    cube = isinstance(G, CubeGraph)
    top, removed = 1 << G.d if cube else 0, G.removed
    # A cube terminal that passes _cube_accepts' one-line test is usable;
    # _member rules on every other terminal, so an int subclass still passes.
    for pair in pairs:
        for v in pair:
            if (not cube or type(v) is not int or not 0 <= v < top
                    or v in removed) and not _member(G, v):
                raise ValueError(f"terminal {v!r} is not a usable vertex of the host")
    k = len(pairs)
    sources, targets = zip(*pairs)
    # blocked[j]: the vertices a path of pair j may not pass through, every
    # removed vertex and every other terminal (no terminal is removed)
    barred = G.removed.union(*pairs)
    blocked = list(map(barred.difference, pairs))
    used = {sources[0]}
    order = tuple(range(k))
    witness: list = [None] * k
    if cube:  # the search's first paths; see the docstring's last paragraph
        d = G.d
        taken: set = set()  # the earlier pairs' paths and this pair's so far
        for j, (s, t) in enumerate(pairs):
            taken.add(s)
            trail = _cube_walk(d, s, t, taken, blocked[j])
            taken.update(trail)
            detours = d
            while (end := trail[-1] if trail else s) != t and detours:
                v = next(_cube_steps(d, end, t, taken, blocked[j]), None)
                if v is None:
                    break
                step = _cube_walk(d, v, t, taken, blocked[j])
                taken.add(v)
                taken.update(step)
                trail += [v, *step]
                detours -= 1
            if end != t:
                break
            witness[j] = trail
        else:
            total = sum(map(len, witness))
            if k + total <= budget:
                return DecideOutcome(LINKED, [[s, *trail] for s, trail in
                                              zip(sources, witness)], order, k + total)
    else:
        toward = [_toward(G, t, used, b) for (_, t), b in zip(pairs, blocked)]

    path = [sources[0]]
    paths = [path]
    # (pair, path length, untried neighbors) per open vertex.  The untried
    # neighbours are filtered as they are drawn: whenever a frame is drawn
    # from, the paths (so used) are the ones it was pushed with.
    stack: list = []
    nodes = 0
    i, cur = 0, sources[0]
    while True:
        nodes += 1
        if nodes > budget:
            return DecideOutcome(BUDGET_EXCEEDED, None, order, nodes)
        if cur == targets[i]:
            i += 1
            if i == k:
                return DecideOutcome(LINKED, paths, order, nodes)
            cur = sources[i]
            path = [cur]
            paths.append(path)
            used.add(cur)
            continue
        for j in range(i, k):  # re-test each pair whose witness lapsed
            if not witness[j]:
                witness[j] = _reach(G, cur if j == i else sources[j], targets[j],
                                    used, blocked[j])
                if witness[j] is None:
                    cur = None
                    break
        else:
            options = (_cube_steps(d, cur, targets[i], used, blocked[i]) if cube
                       else toward[i](cur))
            stack.append((i, len(path), options))
            cur = next(options, None)
        while cur is None:  # backtrack to the deepest vertex with an untried neighbor
            if not stack:
                return DecideOutcome(UNLINKED, None, order, nodes)
            i, depth, options = stack[-1]
            while len(paths) > i + 1:
                used.difference_update(paths.pop())
                witness[len(paths)] = None
            path = paths[i]
            used.difference_update(path[depth:])
            del path[depth:]
            cur = next(options, None)
            if cur is None:
                stack.pop()
        path.append(cur)
        used.add(cur)
        trail = witness[i]  # trim the routed pair's witness to run from cur
        if trail and cur in trail:
            del trail[:trail.index(cur) + 1]
        else:
            witness[i] = None
        for j in range(i + 1, k):  # a later witness through cur lapses
            if witness[j] and cur in witness[j]:
                witness[j] = None


# ---------------------------------------------------------------------------
# Separator structure


NOT_SEPARATOR = "NOT_SEPARATOR"
NEIGHBORHOOD = "NEIGHBORHOOD"
VIOLATION = "VIOLATION"


@dataclass(frozen=True)
class SeparatorReport:
    kind: str
    center: int | None = None
    detail: str = ""


def check_separator_structure(d: int, S: Iterable[int]) -> SeparatorReport:
    """Classify a size-d vertex set of Q_d as separator structure demands.

    A size-d set either fails to separate Q_d, or it is exactly the
    neighborhood N(u) of some vertex (and then an independent set).  The
    VIOLATION kind exists so harnesses can assert it never appears.
    """
    cube_core.check_dim(d)
    S_set = frozenset(S)
    if len(S_set) != d:
        raise ValueError(f"separator check needs exactly d={d} vertices, got {len(S_set)}")
    for v in S_set:
        cube_core.check_vertex(d, v)
    G = CubeGraph(d, S_set)
    rest = G.vertex_list()
    if not rest:
        return SeparatorReport(NOT_SEPARATOR, detail="no vertices remain")
    seen = {rest[0]}
    queue = deque([rest[0]])
    while queue:
        v = queue.popleft()
        for w in G.neighbors(v):
            if w not in seen:
                seen.add(w)
                queue.append(w)
    if len(seen) == len(rest):
        return SeparatorReport(NOT_SEPARATOR)
    centers = [u for u in rest if frozenset(cube_core.neighbors(d, u)) == S_set]
    if not centers:
        return SeparatorReport(VIOLATION, detail="separating set is no vertex neighborhood")
    for a in S_set:
        for b in S_set:
            if a < b and cube_core.adjacent(a, b):
                return SeparatorReport(
                    VIOLATION, detail=f"separating neighborhood contains edge {a}-{b}"
                )
    return SeparatorReport(NEIGHBORHOOD, center=min(centers))


def max_shared_neighbors(d: int, u: int, v: int) -> int:
    """|N(u) and N(v)| in Q_d: two for distance-2 pairs, zero otherwise."""
    if u == v:
        raise ValueError("max_shared_neighbors needs two distinct vertices")
    cube_core.check_vertex(d, u)
    cube_core.check_vertex(d, v)
    return len(set(cube_core.neighbors(d, u)) & set(cube_core.neighbors(d, v)))


# ---------------------------------------------------------------------------
# Linkage validation


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    clause: str | None = None
    witness: object = None
    message: str = "ok"

    def __bool__(self) -> bool:
        return self.ok


_VALID = ValidationReport(True)  # immutable, so every valid linkage shares it


def _member(G: HostGraph, v) -> bool:
    """validate_linkage's MEMBERSHIP rule: v is a usable vertex of G.  On a
    cube that is an int that is not a bool (as cube_core.check_vertex has
    it), in range and not removed; on a fixture host a vertex name, a str,
    that is not removed."""
    if isinstance(G, CubeGraph):
        return isinstance(v, int) and not isinstance(v, bool) and G.has_vertex(v)
    return isinstance(v, str) and G.has_vertex(v)


def validate_linkage(G: HostGraph, Y: Pairing, L: Linkage) -> ValidationReport:
    """Check every linkage invariant; report the first violated clause.

    Clauses, in check order: PATH_COUNT, ENDPOINTS (each path's endpoint set
    is its pair, either orientation), MEMBERSHIP (every vertex is a usable
    vertex of the host, by ``_member``), REPEAT (paths are simple),
    ADJACENCY (consecutive hops are edges), DISJOINTNESS (no vertex on two
    paths).

    On a cube host one pass over the paths accepts a valid linkage first:
    it checks each path's endpoints and, vertex by vertex, its int type,
    range, removed vertices and hops; the size of the union of the paths
    then rules out a repeat and a shared vertex.  Only a linkage that this
    pass rejects, or any linkage on a fixture host, is walked clause by
    clause, so a failure reports the first clause in the order above, with
    the same witness and message.
    """
    # MEMBERSHIP has passed every vertex of a path before its hops are read.
    if isinstance(G, CubeGraph):
        if _cube_accepts(G, Y, L):
            return _VALID
        hop = cube_core.adjacent
    else:
        def hop(a, b):
            return b in G.adjacency[a]
    if len(L) != Y.k:
        return ValidationReport(
            False, "PATH_COUNT", len(L), f"expected {Y.k} paths, got {len(L)}"
        )
    for i, (path, (s, t)) in enumerate(zip(L, Y.pairs)):
        if not path or not _joins(path, s, t):
            return ValidationReport(
                False, "ENDPOINTS", i,
                f"path {i} endpoints {path[:1]}...{path[-1:]} do not match pair {(s, t)}",
            )
        for v in path:
            if not _member(G, v):
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
    return _VALID


def _joins(path, s, t) -> bool:
    """Whether the path's ends are s and t in either orientation; compared
    without hashing, so that an end that is no vertex cannot raise."""
    a, b = path[0], path[-1]
    return a == s and b == t or a == t and b == s


def _cube_accepts(G: CubeGraph, Y: Pairing, L: Linkage) -> bool:
    """True when L passes every clause of validate_linkage on the cube G.
    False says only that some clause fails, not which."""
    if len(L) != Y.k:
        return False
    top, removed, size = 1 << G.d, G.removed, 0
    for path, (s, t) in zip(L, Y.pairs):
        if not path or not _joins(path, s, t):
            return False
        prev = path[0]
        for v in path:
            if type(v) is not int or not 0 <= v < top or v in removed:
                return False
            x = prev ^ v    # 0 on the first step; a repeat is the union's
            if x & (x - 1):
                return False
            prev = v
        size += len(path)
    # a vertex repeated on one path, or shared by two, shrinks the union
    return len(set().union(*L)) == size
