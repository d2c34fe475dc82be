"""Combinatorial model of the d-cube.

Vertices of Q_d are d-bit integers, bit i being coordinate i.  Adjacency is
"XOR is a power of two", graph distance is the popcount of the XOR, and faces
are (fixed_mask, fixed_values) word pairs, so every operation here is O(1) or
O(d) word arithmetic.  Serialization uses binary strings with the most
significant coordinate first: in Q3 the vertex 6 reads "110", and the facet
fixing coordinate 2 to 1 reads "1**".

The module also carries the direction/association fact: the d directions
partition the edge set into parallel classes, a direction is *associated*
with a vertex set Z when Z contains an edge of that class, and a set of at
most d vertices always leaves some direction free.  free_bit(free, Z)
finds the lowest free direction of a face, testing the bits in ascending
order and stopping at the first one no edge of Z runs along; the linkage
engine takes its free directions from it, and free_direction is its index
form over Q_d.  associated(free, Z) computes the whole association mask,
for the association_bound suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Iterable, Iterator

MAX_DIM = 20


def check_dim(d: int) -> int:
    """Validate a cube dimension (1 <= d <= MAX_DIM) and return it."""
    if not isinstance(d, int) or isinstance(d, bool):
        raise TypeError(f"dimension must be an int, got {d!r}")
    if not 1 <= d <= MAX_DIM:
        raise ValueError(f"dimension {d} outside supported range 1..{MAX_DIM}")
    return d


def check_vertex(d: int, v: int) -> int:
    if not isinstance(v, int) or isinstance(v, bool):
        raise TypeError(f"vertex must be an int, got {v!r}")
    if not 0 <= v < (1 << d):
        raise ValueError(f"vertex {v} outside Q_{d} (need 0 <= v < {1 << d})")
    return v


def neighbors(d: int, v: int) -> list[int]:
    """The d neighbors of v, in ascending coordinate order of the flipped bit."""
    return [v ^ (1 << i) for i in range(d)]


def distance(u: int, v: int) -> int:
    """Graph distance in the cube: the Hamming weight of u XOR v."""
    return (u ^ v).bit_count()


def adjacent(u: int, v: int) -> bool:
    x = u ^ v
    return x != 0 and x & (x - 1) == 0


def opposite(d: int, v: int) -> int:
    """The unique vertex at distance d from v (bitwise complement in d bits)."""
    return v ^ ((1 << d) - 1)


def parse_vertex(d: int, s: str) -> int:
    """Parse a binary string, most significant coordinate first."""
    check_dim(d)
    if not isinstance(s, str) or len(s) != d or s.strip("01"):
        raise ValueError(f"vertex string {s!r} is not a {d}-bit binary word")
    return int(s, 2)


def format_vertex(d: int, v: int) -> str:
    check_vertex(d, v)
    return format(v, f"0{d}b")


# ---------------------------------------------------------------------------
# Faces


@dataclass(frozen=True)
class Face:
    """A subcube, given by the coordinates it fixes and their values.

    fixed_values must be a submask of fixed_mask; membership is the single
    word test (v & fixed_mask) == fixed_values.
    """

    fixed_mask: int
    fixed_values: int

    def __post_init__(self) -> None:
        if self.fixed_values & ~self.fixed_mask:
            raise ValueError(
                f"fixed_values {self.fixed_values:#x} sets bits outside "
                f"fixed_mask {self.fixed_mask:#x}"
            )

    def contains(self, v: int) -> bool:
        return (v & self.fixed_mask) == self.fixed_values


def face_vertices(d: int, face: Face) -> Iterator[int]:
    """Iterate the vertices of a face in ascending order."""
    check_dim(d)
    free = [i for i in range(d) if not face.fixed_mask >> i & 1]
    for bits in range(1 << len(free)):
        v = face.fixed_values
        for j, coord in enumerate(free):
            if bits >> j & 1:
                v |= 1 << coord
        yield v


def format_face(d: int, face: Face) -> str:
    check_dim(d)
    if face.fixed_mask >> d:
        raise ValueError(f"face fixes coordinates outside Q_{d}")
    out = []
    for i in range(d - 1, -1, -1):
        if face.fixed_mask >> i & 1:
            out.append("1" if face.fixed_values >> i & 1 else "0")
        else:
            out.append("*")
    return "".join(out)


# ---------------------------------------------------------------------------
# Directions and association


def associated(free: int, Z: Iterable[int]) -> int:
    """The free bits (of the face with free-coordinate mask `free`, holding
    Z) along which some edge inside Z runs, as a mask: every free bit c such
    that some z in Z has z ^ c in Z.  A nonempty Z associates at most
    |Z| - 1 bits (the classes of a spanning forest of its induced subgraph).
    O(|Z| d) set lookups; the association_bound suite checks this bound on
    it, and free_bit gives the lowest free bit outside the mask without
    building it."""
    zset = frozenset(Z)
    assoc = 0
    for z in zset:
        left = free & ~assoc
        while left:
            c = left & -left
            if z ^ c in zset:
                assoc |= c
            left ^= c
    return assoc


def free_bit(free: int, Z: Collection[int]) -> int:
    """The lowest bit of `free` along which no edge inside the vertex set Z
    runs (no z in Z has z ^ c in Z), as a one-bit mask; 0 when every free
    bit has one.  Z is a set of vertices of the face; it is only tested for
    membership, never copied.  The bits are tried in ascending order and the
    first one that no z crosses is returned, so when the lowest free bit is
    free this costs |Z| lookups; at most |Z| d in all."""
    while free:
        c = free & -free
        for z in Z:
            if z ^ c in Z:
                break
        else:
            return c
        free ^= c
    return 0


def free_direction(d: int, Z: Iterable[int]) -> int:
    """Smallest direction not associated with Z; exists whenever |Z| <= d.
    The index form of free_bit over Q_d.  Nothing in the package calls it;
    perfbench's per-layer tracer wraps it."""
    check_dim(d)
    zset = frozenset(check_vertex(d, z) for z in Z)
    c = free_bit((1 << d) - 1, zset)
    if not c:
        raise ValueError(
            f"no free direction: all {d} directions are associated with the "
            f"{len(zset)} given vertices (caller exceeded the |Z| <= d bound)"
        )
    return c.bit_length() - 1


# ---------------------------------------------------------------------------
# Cube-backed graphs


@dataclass(frozen=True)
class CubeGraph:
    """Q_d with an optional removed vertex set; adjacency stays implicit."""

    d: int
    removed: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        check_dim(self.d)
        for v in self.removed:
            check_vertex(self.d, v)

    @property
    def vertex_count(self) -> int:
        return (1 << self.d) - len(self.removed)

    def vertex_list(self) -> list[int]:
        if not self.removed:
            return list(range(1 << self.d))
        return [v for v in range(1 << self.d) if v not in self.removed]

    def has_vertex(self, v: int) -> bool:
        return 0 <= v < (1 << self.d) and v not in self.removed

    def neighbors(self, v: int) -> list[int]:
        out = []
        for i in range(self.d):
            w = v ^ (1 << i)
            if w not in self.removed:
                out.append(w)
        return out

    def without(self, extra: Iterable[int]) -> CubeGraph:
        return CubeGraph(self.d, self.removed | frozenset(extra))

    def format_vertex(self, v: int) -> str:
        return format_vertex(self.d, v)

    def parse_vertex(self, s: str) -> int:
        v = parse_vertex(self.d, s)
        if v in self.removed:
            raise ValueError(f"vertex {s} is removed from this host")
        return v


def link_graph(d: int, v: int) -> CubeGraph:
    """The graph of the link of v in Q_d: Q_d minus v and its opposite."""
    check_dim(d)
    if d < 2:
        raise ValueError("link_graph requires d >= 2")
    check_vertex(d, v)
    return CubeGraph(d, frozenset({v, opposite(d, v)}))

