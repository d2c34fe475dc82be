from __future__ import annotations

import dataclasses
import hashlib
import json
import pickle
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from cubelink import certifier, cube_core
from cubelink.certifier import (
    BOTH,
    DEFAULT_SEED,
    ENGINE,
    EXHAUSTIVE,
    ORACLE,
    SAMPLED,
    SUITE_NAMES,
    CertificationJob,
    SplitMix64,
    canonical_pairings,
    certify,
    engine_solve,
    exhaustive_instances,
    parse_host_spec,
    property_suite,
    sample_instances,
)
from cubelink.cube_core import CubeGraph
from cubelink.linkage_engine import (
    UnsupportedInstanceError,
    check_supported,
    solve_linkage,
)
from cubelink.path_oracle import DEFAULT_NODE_BUDGET, Pairing


@pytest.fixture
def fresh_host_caches():
    """Host specs and host graphs are memoised per process; clear them after
    a test that resolves hosts under a patched MAX_DIM or pyramid2_quad."""
    yield
    certifier._host_space.cache_clear()
    certifier._shared_host.cache_clear()


def _word_loop_randrange(rng: SplitMix64, n: int) -> int:
    """randrange as a loop over whole next_u64 words, the way SplitMix64
    draws when n > 2^64; the reference for its one-word path."""
    span, words = 1 << 64, 1
    while span < n:
        span <<= 64
        words += 1
    bound = span - span % n
    while True:
        x = rng.next_u64()
        for _ in range(1, words):
            x = x << 64 | rng.next_u64()
        if x < bound:
            return x % n


class TestSplitMix64:
    def test_reference_stream_seed_zero(self):
        rng = SplitMix64(0)
        assert rng.next_u64() == 0xE220A8397B1DCDAF
        assert rng.next_u64() == 0x6E789E6AA1B965F4
        assert rng.next_u64() == 0x06C45D188009454F

    def test_reference_stream_large_seed(self):
        rng = SplitMix64(1234567)
        assert rng.next_u64() == 0x599ED017FB08FC85
        assert rng.next_u64() == 0x2C73F08458540FA5

    def test_default_seed_stream(self):
        rng = SplitMix64(2024)
        assert rng.next_u64() == 11487996472437173461
        assert rng.next_u64() == 1793612131670815442

    def test_randrange_bounds_and_reproducibility(self):
        rng = SplitMix64(42)
        draws = [rng.randrange(10) for _ in range(1000)]
        assert set(draws) <= set(range(10))
        assert len(set(draws)) == 10
        rng2 = SplitMix64(42)
        assert [rng2.randrange(10) for _ in range(1000)] == draws

    def test_randrange_one(self):
        assert SplitMix64(7).randrange(1) == 0

    def test_randrange_one_word_up_to_two_to_the_64(self):
        # no rejection at 2^64: the draw is the stream's first output
        assert SplitMix64(0).randrange(1 << 64) == 0xE220A8397B1DCDAF

    def test_randrange_beyond_two_to_the_64(self):
        # 2^128 takes two outputs, high word first, and rejects none
        assert SplitMix64(0).randrange(1 << 128) == (
            0xE220A8397B1DCDAF << 64 | 0x6E789E6AA1B965F4)
        for n in (2**65, 2**128, 3**50):
            rng = SplitMix64(9)
            draws = [rng.randrange(n) for _ in range(200)]
            assert all(0 <= x < n for x in draws)
            assert len(set(draws)) == 200

    @pytest.mark.parametrize("n, digest, head, after", [
        # about half of the words are rejected: the bound is 2^63 + 1
        (2**63 + 1,
         "1b7c7248c9996751e47d6972bc1d14177383c9d3fc50dad539fc174726169e41",
         [1793612131670815442, 5507758030568793471, 2143266886397966425],
         13845817707605043059),
        (3 * 2**62,
         "7352567ec5c0aee0f3795f523d0d2bd11228e289a42d78de47c40365b343fca4",
         [11487996472437173461, 1793612131670815442, 5507758030568793471],
         18160803929063212177),
    ])
    def test_one_word_rejections_pinned(self, n, digest, head, after):
        rng = SplitMix64(2024)
        draws = [rng.randrange(n) for _ in range(200)]
        assert draws[:3] == head
        assert hashlib.sha256(repr(draws).encode()).hexdigest() == digest
        # the state after the last accepted word
        assert rng.next_u64() == after

    def test_one_word_bound_is_exact(self):
        # For 2^63 < n <= 2^64 the bound is n itself, so the stream's first
        # word w is kept under n = w + 1 and rejected under n = w.
        w = 0xE220A8397B1DCDAF
        assert SplitMix64(0).randrange(w + 1) == w
        assert SplitMix64(0).randrange(w) == 7960286522194355700

    @pytest.mark.parametrize("n", [1, 2, 3, 2**63 + 1, 3 * 2**62, 2**64])
    def test_one_word_matches_the_word_loop(self, n):
        fast, loop = SplitMix64(11), SplitMix64(11)
        assert ([fast.randrange(n) for _ in range(200)]
                == [_word_loop_randrange(loop, n) for _ in range(200)])
        assert fast.next_u64() == loop.next_u64()

    def test_shuffle_is_permutation(self):
        rng = SplitMix64(5)
        items = list(range(20))
        rng.shuffle(items)
        assert sorted(items) == list(range(20))
        assert items != list(range(20))


class TestLaneWords:
    """_words computes SplitMix64's stream 16 words per pass; three blocks
    and five words cover the 64-bit state's wrap and the step from one
    block to the next."""

    @pytest.mark.parametrize("seed", [0, -1, 2**64 - 1, 2**64 + 3])
    def test_matches_next_u64(self, seed):
        rng = SplitMix64(seed)
        assert (list(islice(certifier._words(seed), 53))
                == [rng.next_u64() for _ in range(53)])

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(-2**130, 2**130))
    def test_matches_next_u64_for_any_seed(self, seed):
        rng = SplitMix64(seed)
        assert (list(islice(certifier._words(seed), 53))
                == [rng.next_u64() for _ in range(53)])


class TestPairingEnumeration:
    def test_four_terminals(self):
        assert list(canonical_pairings((10, 20, 30, 40))) == [
            ((10, 20), (30, 40)),
            ((10, 30), (20, 40)),
            ((10, 40), (20, 30)),
        ]

    def test_double_factorial_counts(self):
        assert len(list(canonical_pairings((1, 2)))) == 1
        assert len(list(canonical_pairings(tuple(range(6))))) == 15
        assert len(list(canonical_pairings(tuple(range(8))))) == 105

    def test_head_element_leads(self):
        # the first remaining terminal anchors each pair, so no pairing is
        # ever produced twice
        for pairing in canonical_pairings((3, 1, 4, 2)):
            assert pairing[0][0] == 3
        seen = list(canonical_pairings(tuple(range(6))))
        assert len(set(seen)) == len(seen)


class TestHostSpecs:
    def test_cube(self):
        assert parse_host_spec("cube:5") == ("cube", 5)

    def test_link(self):
        assert parse_host_spec("link:6") == ("link", 6)

    def test_fixture(self):
        assert parse_host_spec("pyramid2-quad") == ("fixture", None)

    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            parse_host_spec("torus:3")
        with pytest.raises(ValueError):
            parse_host_spec("cube:")
        with pytest.raises(ValueError):
            parse_host_spec("cube:0")


class TestInstanceStreams:
    @pytest.mark.parametrize("d", [62, 63, 64])
    def test_vertex_count_past_ssize_t(self, monkeypatch, fresh_host_caches, d):
        # len(range(2^d)) overflows from d = 63, so the sampler and the job
        # check count the cube's vertices themselves.
        monkeypatch.setattr(cube_core, "MAX_DIM", 64)
        for host, strong in ((f"cube:{d}", False), (f"cube:{d}", True),
                             (f"link:{d}", False)):
            inst = next(sample_instances(host, 2, 1, 0, strong=strong))
            assert inst.d == d
            terminals = inst.pairing.terminals
            assert len(set(terminals)) == 4
            assert all(0 <= v < 1 << d for v in terminals)
            certifier._validate_job(CertificationJob(
                host=host, k=2, mode=SAMPLED, samples=1, strong=strong))

    def test_exhaustive_count_q3(self):
        insts = list(exhaustive_instances("cube:3", 2))
        assert len(insts) == 210
        assert [i.index for i in insts] == list(range(210))
        assert insts[0].pairing.pairs == ((0, 1), (2, 3))

    def test_exhaustive_count_q4(self):
        assert sum(1 for _ in exhaustive_instances("cube:4", 2)) == 5460

    def test_exhaustive_strong_pyramid(self):
        insts = list(exhaustive_instances("pyramid2-quad", 2, strong=True))
        assert len(insts) == 90
        assert insts[0].forbidden is not None

    def test_exhaustive_link_fixes_apex(self):
        insts = list(exhaustive_instances("link:5", 2))
        assert all(i.apex == 0 for i in insts)
        assert all(i.kind == "link" for i in insts)
        banned = {0, 31}
        for i in insts[:50]:
            assert not (set(i.pairing.terminals) & banned)

    def test_sampled_deterministic(self):
        a = [i.pairing for i in sample_instances("cube:5", 3, 40, seed=9)]
        b = [i.pairing for i in sample_instances("cube:5", 3, 40, seed=9)]
        c = [i.pairing for i in sample_instances("cube:5", 3, 40, seed=10)]
        assert a == b
        assert a != c

    def test_sampled_strong_excludes_forbidden_terminal(self):
        for inst in sample_instances("cube:5", 2, 60, seed=3, strong=True):
            assert inst.forbidden is not None
            assert inst.forbidden not in inst.pairing.terminals

    def test_sampled_link_avoids_apex_pair(self):
        for inst in sample_instances("link:6", 3, 60, seed=3):
            banned = {inst.apex, inst.apex ^ 63}
            assert not (set(inst.pairing.terminals) & banned)

    def test_too_many_terminals(self):
        with pytest.raises(ValueError):
            list(sample_instances("cube:2", 3, 5, seed=1))

    @pytest.mark.parametrize("host, k, strong, message", [
        ("cube:3", 5, False, "cube:3 has 8 vertices, too few for 2k = 10 terminals"),
        ("cube:3", 4, True,
         "cube:3 has 8 vertices, too few for 2k = 8 terminals plus 1 removed"),
        ("link:3", 4, False,
         "link:3 has 8 vertices, too few for 2k = 8 terminals plus 2 removed"),
        ("pyramid2-quad", 3, True,
         "pyramid2-quad has 6 vertices, too few for 2k = 6 terminals plus 1 removed"),
    ])
    def test_empty_instance_space_is_rejected(self, host, k, strong, message):
        # both generators and both job modes refuse, with one message
        with pytest.raises(ValueError, match=f"^{message}$"):
            list(exhaustive_instances(host, k, strong=strong))
        with pytest.raises(ValueError, match=f"^{message}$"):
            list(sample_instances(host, k, 5, seed=1, strong=strong))
        for mode, samples in ((EXHAUSTIVE, 0), (SAMPLED, 5)):
            with pytest.raises(ValueError, match=f"^{message}$"):
                certify(CertificationJob(host=host, k=k, mode=mode, samples=samples,
                                         solver=ORACLE, strong=strong))

    def test_full_host_is_not_empty(self):
        # 2k terminals plus the removed vertices may use every vertex
        assert len(list(exhaustive_instances("pyramid2-quad", 3))) == 15
        assert len(list(exhaustive_instances("link:2", 1))) == 1
        assert len(list(sample_instances("cube:3", 4, 3, seed=1))) == 3

    def test_generators_reject_strong_on_a_link_host(self):
        with pytest.raises(ValueError, match="strong does not apply"):
            list(exhaustive_instances("link:5", 2, strong=True))
        with pytest.raises(ValueError, match="strong does not apply"):
            list(sample_instances("link:5", 2, 5, seed=1, strong=True))

    def test_instance_host_graph(self):
        inst = next(iter(exhaustive_instances("cube:3", 2)))
        assert inst.host_graph() == CubeGraph(3)
        obj = inst.to_json()
        assert obj["kind"] == "plain"
        assert obj["pairs"] == [["000", "001"], ["010", "011"]]


def _stream_digest(instances) -> str:
    h = hashlib.sha256()
    for inst in instances:
        row = [inst.index, inst.kind, inst.d, inst.pairing.pairs, inst.forbidden,
               inst.apex, inst.fixture, inst.to_json()]
        h.update(json.dumps(row, sort_keys=True).encode() + b"\n")
    return h.hexdigest()


class TestStreamPins:
    """The instance streams are a compatibility contract (see the module
    docstring); these digests were recorded before the generators shared
    one host resolution."""

    @pytest.mark.parametrize("host, k, strong, digest", [
        ("cube:3", 2, False,
         "a0c41203b239bd08f402d9f391c110cc5d02f014f0361218215c1bcb79eb0adf"),
        ("cube:4", 2, False,
         "764fb67022f17f00ba9c9ee974248d4c0a0130e8c8f0d43185deec9dc305dccd"),
        ("cube:4", 2, True,
         "73e83d20516d70f3e13559f73a7ade6330cd0990da97264566f993b541be9e95"),
        ("link:5", 2, False,
         "c841444915993598076550356dd5a883e4bd5fe1b24a587c0d4343311d869d00"),
        ("pyramid2-quad", 2, False,
         "183af302b94b7d6c987cebc7fc1a2b326101278c8ac5e2fdd8b79a326cf5ad5f"),
        ("pyramid2-quad", 2, True,
         "27e17825707a71925df6f6cbfb16526861e66b46cdb4d85c20c9bce06e07af20"),
    ])
    def test_exhaustive(self, host, k, strong, digest):
        assert _stream_digest(exhaustive_instances(host, k, strong=strong)) == digest

    @pytest.mark.parametrize("host, k, strong, digest", [
        ("cube:5", 3, False,
         "c7bc38d445980a9f827f5665b2c6c7b2ca02981387d53553684b3fe4bb9ecac7"),
        ("cube:9", 4, True,
         "416a72b8ba417c2120edfe926c23b58ec7475dcb9557606da8d71b02929c2e30"),
        ("link:6", 3, False,
         "e9523e0d5f5e1edbe8958ab1dddff01107fd7767c3cd804438f72ab96453fef6"),
        ("link:13", 6, False,
         "7a8144d6a47a416596a52d3e42260b52ba586dbfdfe47ca43638c649bb6735f5"),
        ("pyramid2-quad", 2, False,
         "a9e6dd845e41fecbdd3ba02c4ea3123f5a49ba4efce06d32b57a9edbf3152d8a"),
        ("pyramid2-quad", 2, True,
         "eadd46dcbc5144e58f0a3f9377ae19db197632ad1d7d4b2dbfb5fa1fe145f2da"),
    ])
    def test_sampled(self, host, k, strong, digest):
        # 300 instances for each of three seeds, one stream after another
        stream = (inst for seed in (0, 7, 2024)
                  for inst in sample_instances(host, k, 300, seed, strong=strong))
        assert _stream_digest(stream) == digest


def _randrange_sample(host, k, n, seed, strong=False):
    """sample_instances with one SplitMix64.randrange call per draw, the
    reference for the sampler's inlined draws: (pairs, forbidden, apex) per
    instance, and how many more words the stream read than randrange was
    called, the rejected words when every draw takes one word."""
    kind, d, vertices, size = certifier._host_space(host, k, strong)
    rng = SplitMix64(seed)
    calls = 0

    def randrange(m):  # shuffle calls it too
        nonlocal calls
        calls += 1
        return SplitMix64.randrange(rng, m)

    rng.randrange = randrange
    out = []
    for _ in range(n):
        forbidden = apex = None
        seen = set()
        if kind == "link":
            apex = vertices[rng.randrange(size)]
            seen = {apex, cube_core.opposite(d, apex)}
        terminals = []
        while len(terminals) < 2 * k:
            v = vertices[rng.randrange(size)]
            if v not in seen:
                seen.add(v)
                terminals.append(v)
        rng.shuffle(terminals)
        if kind == "strong":
            while forbidden is None or forbidden in seen:
                forbidden = vertices[rng.randrange(size)]
        out.append((tuple(zip(terminals[::2], terminals[1::2])), forbidden, apex))
    gamma = 0x9E3779B97F4A7C15
    read = (rng._state - (seed & (2**64 - 1))) * pow(gamma, -1, 2**64) % 2**64
    return out, read - calls


def _sampled(host, k, n, seed, strong=False):
    return [(inst.pairing.pairs, inst.forbidden, inst.apex)
            for inst in sample_instances(host, k, n, seed, strong=strong)]


def _unxorshift(y: int, r: int) -> int:
    x = y
    for _ in range(64 // r + 1):
        x = y ^ x >> r
    return x


def _seed_for_word(position: int, word: int) -> int:
    """A seed whose stream's word at this 0-based position is ``word``: the
    SplitMix64 output mix inverted, then the state stepped back."""
    mask = 2**64 - 1
    z = _unxorshift(word, 31) * pow(0x94D049BB133111EB, -1, 2**64) & mask
    z = _unxorshift(z, 27) * pow(0xBF58476D1CE4E5B9, -1, 2**64) & mask
    return (_unxorshift(z, 30) - (position + 1) * 0x9E3779B97F4A7C15) & mask


_SAMPLER_HOSTS = [("cube:5", 3, False), ("cube:4", 2, True), ("link:6", 3, False),
                  ("pyramid2-quad", 2, False), ("pyramid2-quad", 2, True)]


class TestSamplerDraws:
    """sample_instances writes SplitMix64's draws out on a local state; it
    must read the stream word for word as randrange and shuffle do."""

    @settings(max_examples=200, deadline=None)
    @given(host=st.sampled_from(_SAMPLER_HOSTS), n=st.integers(1, 12),
           seed=st.one_of(st.integers(-2**70, 2**70), st.integers(2**64, 2**130)))
    def test_matches_randrange(self, host, n, seed):
        name, k, strong = host
        assert _sampled(name, k, n, seed, strong) == \
            _randrange_sample(name, k, n, seed, strong)[0]

    def test_seed_for_word(self):
        for position in (0, 1, 7):
            for word in (0, 5, 2**64 - 1):
                rng = SplitMix64(_seed_for_word(position, word))
                assert [rng.next_u64() for _ in range(position + 1)][-1] == word

    @pytest.mark.parametrize("name, k, strong", _SAMPLER_HOSTS)
    def test_rejected_words(self, name, k, strong):
        # 2^64 - 1 is rejected by a draw from range(m) for every m that is
        # no power of two: the fixture's six vertices, or a shuffle's 3, 5
        # and 6.  Put it at each position an instance's draws can reach.
        hits = 0
        for position in range(16):
            seed = _seed_for_word(position, 2**64 - 1)
            want, rejected = _randrange_sample(name, k, 2, seed, strong)
            assert _sampled(name, k, 2, seed, strong) == want
            hits += rejected
        assert hits

    @pytest.mark.parametrize("name, k, strong", _SAMPLER_HOSTS)
    def test_rejected_words_across_blocks(self, name, k, strong):
        # The sampler's words come 16 to a block: put 2^64 - 1 at each
        # position from 12 to 36, on either side of two block boundaries.
        hits = 0
        for position in range(12, 37):
            seed = _seed_for_word(position, 2**64 - 1)
            want, rejected = _randrange_sample(name, k, 5, seed, strong)
            assert _sampled(name, k, 5, seed, strong) == want
            hits += rejected
        assert hits

    @pytest.mark.parametrize("d", [65, 70, 128])
    def test_vertex_draws_past_one_word(self, monkeypatch, fresh_host_caches, d):
        # a cube of more than 2^64 vertices draws each vertex from two or
        # more words, high word first
        monkeypatch.setattr(cube_core, "MAX_DIM", d)
        for host, strong in ((f"cube:{d}", False), (f"cube:{d}", True),
                             (f"link:{d}", False)):
            for seed in (0, -1, 2**64 + 3):
                assert _sampled(host, 3, 4, seed, strong) == \
                    _randrange_sample(host, 3, 4, seed, strong)[0]


class TestCertify:
    def test_q3_oracle_exhaustive_frozen(self):
        rep = certify(CertificationJob(host="cube:3", k=2, solver=ORACLE))
        assert (rep.instances, rep.successes) == (210, 204)
        assert not rep.ok
        assert [f["index"] for f in rep.failures] == [2, 29, 62, 149, 182, 209]
        assert rep.failures[0]["pairs"] == [["000", "011"], ["001", "010"]]
        assert rep.failures[0]["reason"] == "oracle: unlinked"
        assert rep.failures[0]["pair_order"] == [0, 1]

    def test_pyramid_strong_oracle(self):
        rep = certify(CertificationJob(
            host="pyramid2-quad", k=2, solver=ORACLE, strong=True))
        assert (rep.instances, rep.successes, len(rep.failures)) == (90, 88, 2)
        first = rep.failures[0]
        assert first["host"]["forbidden"] == ["x"]
        assert first["pairs"] == [["s1", "t1"], ["s2", "t2"]]

    def test_engine_sampled_counts_scenarios(self):
        rep = certify(CertificationJob(
            host="cube:5", k=3, mode=SAMPLED, samples=60, solver=ENGINE))
        assert rep.ok
        assert rep.instances == rep.successes == 60
        assert sum(v for l, v in rep.scenario_counters.items()
                   if l.startswith("Q5:")) >= 60

    def test_both_mode(self):
        rep = certify(CertificationJob(
            host="cube:5", k=2, mode=SAMPLED, samples=25, solver=BOTH))
        assert rep.ok
        assert rep.instances == 25

    def test_budget_rows_are_not_failures(self):
        rep = certify(CertificationJob(host="cube:4", k=2, solver=ORACLE,
                                       budget=5))
        assert rep.budget_exceeded > 0
        assert not rep.failures
        assert not rep.ok
        assert "budget exhausted" in rep.budget_cases[0]["reason"]

    def test_count_invariant(self):
        for job in [
            CertificationJob(host="cube:3", k=2, solver=ORACLE),
            CertificationJob(host="cube:4", k=2, solver=ORACLE, budget=50),
            CertificationJob(host="cube:5", k=2, mode=SAMPLED, samples=30,
                             solver=ENGINE),
        ]:
            rep = certify(job)
            assert rep.instances == (rep.successes + len(rep.failures)
                                     + rep.budget_exceeded)

    def test_fail_fast_stops_early(self):
        rep = certify(CertificationJob(host="cube:3", k=2, solver=ORACLE,
                                       fail_fast=True))
        assert len(rep.failures) == 1
        assert rep.instances < 210

    def test_workers_match_sequential(self):
        seq = certify(CertificationJob(host="cube:3", k=2, solver=ORACLE))
        par = certify(CertificationJob(host="cube:3", k=2, solver=ORACLE,
                                       workers=4))
        assert par.to_json() == seq.to_json()

    def test_workers_match_sequential_sampled_engine(self):
        base = dict(host="cube:5", k=3, mode=SAMPLED, samples=40,
                    solver=ENGINE, seed=77)
        seq = certify(CertificationJob(**base))
        par = certify(CertificationJob(workers=3, **base))
        assert par.to_json() == seq.to_json()

    def test_timing_key_is_opt_in(self):
        rep = certify(CertificationJob(host="cube:3", k=1, solver=ENGINE))
        assert "wall_time_s" not in rep.to_json()
        assert "wall_time_s" in rep.to_json(timing=True)
        assert rep.wall_time > 0

    def test_link_engine_sampled(self):
        rep = certify(CertificationJob(host="link:6", k=3, mode=SAMPLED,
                                       samples=40, solver=ENGINE))
        assert rep.ok

    def test_strong_engine_sampled(self):
        rep = certify(CertificationJob(host="cube:6", k=3, mode=SAMPLED,
                                       samples=40, solver=ENGINE, strong=True))
        assert rep.ok

    @pytest.mark.parametrize("host,k,strong", [
        ("cube:16", 8, False),
        ("cube:20", 10, False),
        ("cube:20", 10, True),
        ("link:20", 10, False),
        ("cube:19", 9, True),
        ("link:19", 9, False),
    ])
    def test_engine_sampled_high_dimension(self, host, k, strong):
        # Tight instances up to MAX_DIM, every recursion level self-checked.
        # The odd-dimension strong and link hosts run through the avoid-set
        # projection.
        rep = certify(CertificationJob(host=host, k=k, mode=SAMPLED, samples=50,
                                       solver=ENGINE, strong=strong))
        assert rep.instances == rep.successes == 50
        assert not rep.failures and rep.ok

    @pytest.mark.parametrize("host,k,strong", [
        ("cube:6", 3, False),
        ("cube:7", 4, False),
        ("cube:8", 4, False),
        ("cube:7", 3, True),
        ("link:7", 3, False),
        ("cube:9", 5, False),
        ("cube:11", 5, True),
        ("cube:13", 7, False),
        ("link:13", 6, False),
    ])
    def test_exact_cross_validation_beyond_q5(self, host, k, strong):
        # Every engine linkage is confirmed by decide_linked at the default
        # budget, which the search must never exhaust on these hosts.
        rep = certify(CertificationJob(host=host, k=k, mode=SAMPLED, samples=300,
                                       solver=BOTH, strong=strong))
        assert rep.instances == rep.successes == 300
        assert rep.budget_exceeded == 0
        assert rep.ok
        assert rep.scenario_counters["oracle:linked"] == 300


def _report_digest(job: CertificationJob) -> str:
    report = certify(job).to_json()
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


class TestCertifyPins:
    """certify reports are byte-stable; these digests were recorded before
    certify resolved each job's host once."""

    @pytest.mark.parametrize("job, digest", [
        (dict(host="cube:5", k=3, samples=300, solver=ENGINE),
         "2e174cd1531d195d66bf9c764c8384e37fd65223ecab7101e6f682cab3b5dff4"),
        (dict(host="cube:5", k=3, samples=300, solver=ORACLE),
         "5d0a52399d46c7ebf31153d3d23216e0988558a34881249fd72f2a3ef3a1ff89"),
        (dict(host="cube:5", k=3, samples=300, solver=BOTH),
         "aac17ba88ca3f91b35f3d703320908dab8fd6dea09eef4ff4cee065f917cb64e"),
        (dict(host="cube:6", k=3, samples=300, solver=ENGINE, strong=True),
         "404ffeea6059388fd21692bf8961805a1dfd3f9ea6f4973e37dd9a65aeec0e4d"),
        (dict(host="link:6", k=3, samples=300, solver=ENGINE),
         "0a5ca9a20454b870d5f2a68889467603f3f1f94afc1e9060f94f740940432409"),
        (dict(host="cube:5", k=3, samples=200, solver=ENGINE, seed=31, workers=2),
         "d1ead8e269f57d508a45c45437a51b82fdd67e2ea0cb31bd82ac57b4b1f29704"),
        # stops at the first unlinked Q3 instance, index 23
        (dict(host="cube:3", k=2, samples=300, solver=ORACLE, seed=5,
              fail_fast=True),
         "75e22b8ca1665d48fb9966c5f1337d8f85fe1da65ee8413b1286d85dc5b6f04d"),
        # recorded before instances shared their hosts: six unlinked rows
        # whose host dumps name the forbidden apex, and a link sweep
        (dict(host="pyramid2-quad", k=2, samples=300, solver=ORACLE, strong=True),
         "354e934586dc349ee7edc0e163d41bb8ab616ca8c5a34aed19a65548db5faee9"),
        (dict(host="link:6", k=3, samples=300, solver=ORACLE),
         "776b5507585d164da74d0693d4897db74dd8cfdc2753bc55a0ec0461a9571ce4"),
    ])
    def test_sampled_report(self, job, digest):
        assert _report_digest(CertificationJob(mode=SAMPLED, **job)) == digest

    @pytest.mark.parametrize("job", [
        CertificationJob(host="cube:5", k=3, mode=SAMPLED, samples=20),
        CertificationJob(host="cube:4", k=2, mode=SAMPLED, samples=20, strong=True),
        CertificationJob(host="pyramid2-quad", k=2, solver=ORACLE),
    ])
    def test_host_resolved_once_per_job(self, monkeypatch, job):
        calls = []
        resolve = certifier._host_space
        monkeypatch.setattr(certifier, "_host_space",
                            lambda *args: calls.append(args) or resolve(*args))
        assert certify(job).instances > 0
        assert calls == [(job.host, job.k, job.strong)]

    def test_instances_of_one_plain_job_share_their_host(self):
        a, b = sample_instances("cube:5", 3, 2, seed=3)
        assert a.host_graph() is b.host_graph()
        assert next(exhaustive_instances("cube:5", 3)).host_graph() is a.host_graph()

    def test_pyramid_sweep_builds_its_fixture_once(self, monkeypatch,
                                                   fresh_host_caches):
        built = []
        real = certifier.pyramid2_quad
        monkeypatch.setattr(certifier, "pyramid2_quad",
                            lambda: built.append(1) or real())
        certifier._host_space.cache_clear()
        certifier._shared_host.cache_clear()
        for strong in (False, True):
            report = certify(CertificationJob(host="pyramid2-quad", k=2,
                                              solver=ORACLE, strong=strong))
            assert report.instances == (90 if strong else 45)
        assert len(built) == 1


class TestCertificationJob:
    """A job is a named tuple; it keeps the fields, defaults, keyword
    construction and immutability of the frozen dataclass it was."""

    def test_keyword_construction_defaults(self):
        job = CertificationJob(host="cube:5", k=3)
        assert CertificationJob._fields == (
            "host", "k", "mode", "solver", "samples", "seed", "strong",
            "budget", "fail_fast", "workers")
        assert job == ("cube:5", 3, EXHAUSTIVE, ENGINE, 0, None, False,
                       DEFAULT_NODE_BUDGET, False, 1)

    def test_fields_cannot_be_assigned(self):
        job = CertificationJob(host="cube:5", k=3)
        with pytest.raises(AttributeError):
            job.k = 2
        with pytest.raises(AttributeError):
            job.workers = 4

    def test_equal_jobs_hash_equal(self):
        a = CertificationJob(host="cube:5", k=3, mode=SAMPLED, samples=20, seed=7)
        b = CertificationJob("cube:5", 3, SAMPLED, samples=20, seed=7)
        assert a == b and hash(a) == hash(b)
        assert a != CertificationJob(host="cube:5", k=3, mode=SAMPLED,
                                     samples=20, seed=8)

    def test_pickle_round_trip(self):
        job = CertificationJob(host="link:6", k=3, mode=SAMPLED, samples=5,
                               seed=-1, workers=2)
        again = pickle.loads(pickle.dumps(job))
        assert again == job and type(again) is CertificationJob


class TestJobValidation:
    def test_engine_rejects_fixture(self):
        with pytest.raises(ValueError):
            certify(CertificationJob(host="pyramid2-quad", k=2, solver=ENGINE))

    def test_engine_rejects_q3_two_pairs(self):
        with pytest.raises(ValueError):
            certify(CertificationJob(host="cube:3", k=2, solver=ENGINE))

    def test_engine_pair_bounds(self):
        with pytest.raises(ValueError):
            certify(CertificationJob(host="cube:5", k=4, solver=ENGINE))
        with pytest.raises(ValueError):
            certify(CertificationJob(host="cube:5", k=3, solver=ENGINE,
                                     strong=True, mode=SAMPLED, samples=5))

    def test_link_bounds(self):
        with pytest.raises(ValueError):
            certify(CertificationJob(host="link:4", k=2, solver=ENGINE))
        with pytest.raises(ValueError):
            certify(CertificationJob(host="link:6", k=4, solver=ENGINE))

    def test_link_strong_unsupported(self):
        with pytest.raises(ValueError):
            certify(CertificationJob(host="link:6", k=2, solver=ENGINE,
                                     strong=True, mode=SAMPLED, samples=5))

    def test_sampled_needs_samples(self):
        with pytest.raises(ValueError):
            certify(CertificationJob(host="cube:5", k=2, mode=SAMPLED,
                                     solver=ENGINE))

    def test_exhaustive_rejects_samples(self):
        # a sample count on an exhaustive job would be silently ignored
        with pytest.raises(ValueError, match="--mode sampled"):
            certify(CertificationJob(host="cube:5", k=3, samples=2, solver=ENGINE))

    def test_exhaustive_rejects_seed(self):
        # so would a seed; a sampled job without one draws from DEFAULT_SEED
        with pytest.raises(ValueError, match="--mode sampled"):
            certify(CertificationJob(host="cube:3", k=1, seed=9, solver=ORACLE))
        job = dict(host="cube:5", k=3, mode=SAMPLED, samples=20, solver=ENGINE)
        assert (certify(CertificationJob(**job)).to_json()
                == certify(CertificationJob(**job, seed=DEFAULT_SEED)).to_json())

    def test_unknown_mode_and_solver(self):
        with pytest.raises(ValueError):
            certify(CertificationJob(host="cube:5", k=2, mode="census",
                                     solver=ENGINE))
        with pytest.raises(ValueError):
            certify(CertificationJob(host="cube:5", k=2, solver="magic"))


class TestSupportedRange:
    """certify's job validation and the solvers share one range."""

    @pytest.mark.parametrize("kind", ["plain", "strong", "link"])
    def test_jobs_and_solvers_agree(self, kind):
        accepted_count = 0
        for d in range(1, 10):
            host = f"link:{d}" if kind == "link" else f"cube:{d}"
            for k in range(1, 6):
                job = CertificationJob(host=host, k=k, mode=SAMPLED, samples=1,
                                       solver=ENGINE, strong=kind == "strong")
                try:
                    report = certify(job)
                except ValueError:
                    accepted = False
                else:
                    accepted = True
                    assert report.ok, (kind, d, k, report.failures)
                    accepted_count += 1
                try:
                    inst = next(sample_instances(host, k, 1, DEFAULT_SEED,
                                                 strong=kind == "strong"))
                    engine_solve(inst)
                except ValueError:
                    solved = False
                else:
                    solved = True
                assert accepted == solved, (kind, d, k)
        assert accepted_count > 5

    def test_q3_two_pairs_stay_unsupported_with_a_certificate(self):
        with pytest.raises(UnsupportedInstanceError) as info:
            solve_linkage(3, Pairing(((0, 3), (1, 2))))
        assert info.value.certificate is not None
        # no blocking face, still outside the guarantee
        with pytest.raises(UnsupportedInstanceError) as info:
            solve_linkage(3, Pairing(((0, 1), (2, 3))))
        assert info.value.certificate is None
        with pytest.raises(UnsupportedInstanceError):
            check_supported("plain", 3, 2)
        check_supported("plain", 3, 1)
        check_supported("strong", 3, 1)
        check_supported("link", 3, 1)

    def test_q3_budget_message_names_one_pair(self):
        # the bound in the message honours the Q3 exception: one pair only
        Y = Pairing(((0, 7), (1, 6), (2, 5)))
        with pytest.raises(ValueError,
                           match=r"^Q3 supports k <= 1 pairs, got k = 3$") as info:
            solve_linkage(3, Y)
        assert not isinstance(info.value, UnsupportedInstanceError)
        with pytest.raises(ValueError, match=r"^Q3 \(forbidden vertices: 1\) "
                                             r"supports k <= 1 pairs, got k = 2$"):
            check_supported("strong", 3, 2)


class TestPropertySuites:
    def test_names_stable(self):
        assert SUITE_NAMES == ("association_bound", "omega_conditions",
                               "separator_structure", "shared_neighbors")
        with pytest.raises(ValueError):
            property_suite("unknown_suite")

    @pytest.mark.parametrize("name", ["association_bound", "separator_structure",
                                      "shared_neighbors", "omega_conditions"])
    def test_rejects_nonpositive_samples(self, name):
        for samples in (0, -3):
            with pytest.raises(ValueError, match="positive sample count"):
                property_suite(name, samples=samples)

    def test_association_bound(self):
        rep = property_suite("association_bound", samples=50)
        assert rep.ok
        # all 255 nonempty subsets of the 3-cube run exhaustively, plus the
        # sampled dimensions
        assert rep.instances == 255 + 5 * 50

    def test_separator_structure(self):
        rep = property_suite("separator_structure", samples=40)
        assert rep.ok
        assert rep.scenario_counters["d3:NEIGHBORHOOD"] == 8
        assert rep.scenario_counters["d3:NOT_SEPARATOR"] == 48
        assert sum(v for key, v in rep.scenario_counters.items()
                   if key.startswith("d4:")) == 40

    def test_shared_neighbors(self):
        rep = property_suite("shared_neighbors")
        assert rep.ok
        assert set(rep.scenario_counters) == {"shared0", "shared2"}

    def test_omega_conditions(self):
        rep = property_suite("omega_conditions", samples=60)
        assert rep.ok
        assert rep.scenario_counters.get("moved", 0) > 0

    def test_omega_conditions_reports_a_foreign_terminal(self, monkeypatch):
        # Undo every moved omega entry: x ^ b is then a terminal other than
        # rho(x), which the suite must report.
        real = certifier.scenario3_context

        def unmoved(d, Y):
            ctx = real(d, Y)
            return dataclasses.replace(ctx, omega={x: x for x in ctx.omega})

        monkeypatch.setattr(certifier, "scenario3_context", unmoved)
        rep = property_suite("omega_conditions", samples=60)
        assert rep.failures
        assert len(rep.failures) + rep.successes == rep.instances
        for failure in rep.failures:
            assert "touches a foreign terminal" in failure["reason"]
            assert "not x or an in-facet neighbor" not in failure["reason"]

    # Digests of the suites' JSON, serialised as the CLI prints it, recorded
    # before the suites moved onto cube_core.associated and x ^ b.
    @pytest.mark.parametrize("name, samples, digest", [
        ("association_bound", 200,
         "fbab37b75baa03ab56cfc28d78d3868df718e92d0591c9b26bb68135ac11e503"),
        ("omega_conditions", 300,
         "63f4108607b5c75ee8ed12766e79d3cba312509d4c4652cd339a93320911d9ee"),
    ])
    def test_suite_json_matches_pinned_digest(self, name, samples, digest):
        rep = property_suite(name, samples=samples)
        text = json.dumps(rep.to_json(), indent=2, sort_keys=True, default=str)
        assert hashlib.sha256(text.encode()).hexdigest() == digest
