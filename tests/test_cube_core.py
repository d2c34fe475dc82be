from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from cubelink.cube_core import (
    MAX_DIM,
    CubeGraph,
    Face,
    adjacent,
    associated,
    check_dim,
    check_vertex,
    distance,
    face_vertices,
    format_face,
    format_vertex,
    free_bit,
    free_direction,
    link_graph,
    neighbors,
    opposite,
    parse_vertex,
)


class TestVertices:
    def test_dimension_bounds(self):
        assert check_dim(1) == 1
        assert check_dim(MAX_DIM) == MAX_DIM
        with pytest.raises(ValueError):
            check_dim(0)
        with pytest.raises(ValueError):
            check_dim(MAX_DIM + 1)
        with pytest.raises(TypeError):
            check_dim("3")
        with pytest.raises(TypeError):
            check_dim(True)

    def test_vertex_range(self):
        with pytest.raises(ValueError):
            check_vertex(3, 8)
        with pytest.raises(ValueError):
            check_vertex(3, -1)

    def test_neighbors_ascending(self):
        assert neighbors(3, 0) == [1, 2, 4]
        assert neighbors(3, 5) == [4, 7, 1]
        # ascending by flipped coordinate, not by vertex value
        assert neighbors(2, 3) == [2, 1]

    def test_distance_and_adjacency(self):
        assert distance(0b000, 0b111) == 3
        assert distance(5, 5) == 0
        assert adjacent(0, 4)
        assert not adjacent(0, 3)
        assert not adjacent(6, 6)

    def test_opposite(self):
        assert opposite(3, 0) == 7
        assert opposite(4, 0b0101) == 0b1010
        assert opposite(3, opposite(3, 5)) == 5

    def test_parse_format_round_trip(self):
        assert parse_vertex(5, "00110") == 0b00110
        assert format_vertex(5, 0b00110) == "00110"
        # most significant coordinate first: leftmost char is bit d-1
        assert parse_vertex(3, "100") == 4
        with pytest.raises(ValueError):
            parse_vertex(3, "0101")
        with pytest.raises(ValueError):
            parse_vertex(3, "01x")
        # int(s, 2) alone accepts every one of these
        for s in ("0_1", " 01", "+01", "01\n"):
            with pytest.raises(ValueError, match="is not a 3-bit binary word"):
                parse_vertex(3, s)


class TestFaces:
    def test_facet_contains(self):
        F = Face(1 << 2, 1 << 2)
        assert F.contains(0b100)
        assert F.contains(0b111)
        assert not F.contains(0b011)

    def test_two_face(self):
        F = Face(0b011, 0b001)
        assert F.contains(0b101)
        assert not F.contains(0b111)

    def test_face_vertices(self):
        assert sorted(face_vertices(3, Face(0b010, 0))) == [0, 1, 4, 5]
        full = Face(0, 0)
        assert len(list(face_vertices(3, full))) == 8

    def test_format_face(self):
        assert format_face(3, Face(0b101, 0b001)) == "0*1"



class CountingSet(set):
    """A set that counts its membership tests."""

    lookups = 0

    def __contains__(self, v):
        CountingSet.lookups += 1
        return super().__contains__(v)


class TestDirections:
    def test_associated(self):
        # 0 and 1 differ in coordinate 0 only, so they associate it
        assert associated(0b111, [0, 1, 3]) == 0b011
        assert associated(0b111, [0, 7]) == 0
        assert associated(0b111, [0, 1, 2, 4]) == 0b111
        assert associated(0b111, []) == 0
        # only free bits count: the edge [0, 4] runs along a fixed bit
        assert associated(0b011, [0, 4]) == 0

    def test_free_direction(self):
        assert free_direction(4, {0b0011, 0b0101}) == 0
        assert free_direction(4, {0b0000, 0b0001, 0b0010}) == 2
        assert free_direction(3, set()) == 0

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_free_bit_stops_at_the_first_free_bit(self, data):
        d = data.draw(st.integers(1, 12))
        free = data.draw(st.integers(1, (1 << d) - 1))
        Z = CountingSet(data.draw(st.lists(st.integers(0, (1 << d) - 1),
                                           max_size=d + 1)))
        left = free & ~associated(free, frozenset(Z))
        CountingSet.lookups = 0
        assert free_bit(free, Z) == left & -left
        if left & -left == free & -free:
            # the lowest free bit has no edge along it: one pass over Z
            assert CountingSet.lookups <= len(Z)
        assert CountingSet.lookups <= len(Z) * free.bit_count()

    def test_free_bit(self):
        # no edge at all among the even-weight vertices of Q4: one lookup
        # per vertex settles the lowest bit
        Z = CountingSet({0b0000, 0b0110, 0b1010, 0b1100})
        CountingSet.lookups = 0
        assert free_bit(0b1111, Z) == 0b0001
        assert CountingSet.lookups == 4
        assert free_bit(0b111, {0, 1, 2}) == 0b100
        assert free_bit(0b111, {0, 1, 2, 4}) == 0
        assert free_bit(0b110, {0, 1}) == 0b010
        assert free_bit(0b111, set()) == 0b001
        assert free_bit(0, {0}) == 0

    def test_free_direction_exhausted(self):
        # all three directions of Q3 associated
        with pytest.raises(ValueError, match="no free direction"):
            free_direction(3, {0, 1, 2, 4})

    def test_association_bound_small(self):
        # any nonempty Z associates at most |Z| - 1 directions
        for mask in range(1, 1 << 8):
            Z = [v for v in range(8) if (mask >> v) & 1]
            assert associated(0b111, Z).bit_count() <= len(Z) - 1


class TestCubeGraph:
    def test_plain_graph(self):
        G = CubeGraph(3)
        assert G.vertex_count == 8
        assert G.neighbors(0) == [1, 2, 4]
        assert G.has_vertex(7)
        assert not G.has_vertex(8)

    def test_removed_vertices(self):
        G = CubeGraph(3, frozenset({1}))
        assert G.vertex_count == 7
        assert G.neighbors(0) == [2, 4]
        assert not G.has_vertex(1)
        assert G.without({2}).vertex_count == 6

    def test_vertex_strings(self):
        G = CubeGraph(4)
        assert G.parse_vertex("1010") == 0b1010
        assert G.format_vertex(0b1010) == "1010"

    def test_link_graph(self):
        G = link_graph(5, 0)
        assert G.vertex_count == 30
        assert not G.has_vertex(0)
        assert not G.has_vertex(31)
        assert G.neighbors(1) == [3, 5, 9, 17]


class TestCoordinateSurgery:
    @given(st.integers(0, (1 << 6) - 1), st.integers(0, (1 << 6) - 1))
    def test_distance_symmetric(self, u, v):
        assert distance(u, v) == distance(v, u)
        assert (distance(u, v) == 0) == (u == v)
