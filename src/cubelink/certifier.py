"""Certification harness: exhaustive and seeded-random instance sweeps.

A CertificationJob names a host ("cube:5", "link:6", "pyramid2-quad"), a
pair count k, a generation mode (exhaustive or sampled), and which solver
to exercise: the constructive engine, the exact oracle, or both with a
cross-check.  certify() streams instances through the solver, validates
every produced linkage, and aggregates a CertificationReport whose failure
rows carry full replayable instance dumps.

Sampling uses a splitmix-style 64-bit generator so streams are identical
across platforms and Python versions.  The algorithm, for the record:
state advances by adding 0x9E3779B97F4A7C15 (mod 2^64); each output mixes
the new state with xor-shifts by 30/27/31 and multiplications by
0xBF58476D1CE4E5B9 and 0x94D049BB133111EB.  Bounded draws use rejection
over as many 64-bit outputs as the bound needs, so uniformity is exact;
the instance stream for a given (host, k, n, seed) is part of this
module's compatibility contract.

Word i of the stream is the mix of seed + (i + 1) * 0x9E3779B97F4A7C15, so
the words need not be computed one after another.  The sampler reads them
from _words, which computes 16 per pass in the lanes of one 2048-bit int,
spaced 128 bits apart.  Every lane is masked to 64 bits before each
multiply, so each product is below 2^128 and stays inside its lane; the
output xor-shift leaves the low 64 bits of each lane exact, and they are
read as little-endian words, the same on every platform.  SplitMix64
stays the one-word-at-a-time reference.

Parallelism: a job with workers > 1 partitions the stream by instance
index modulo the worker count, so reports are identical to a sequential
run (fail-fast then applies per worker).

A process resolves each host spec once: _host_space is memoised, the job
check returns the host's vertex space, and the instance loops that certify
runs, sequentially or in each worker, start from it.  sample_instances and
exhaustive_instances are the same loops behind the same resolution.  Every
instance of one shape (kind, d, forbidden vertex, apex, fixture) shares one
host graph, built on first use.
"""

from __future__ import annotations

import struct
import time
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from typing import Iterator, NamedTuple, Sequence

from . import cube_core, path_oracle
from .cube_core import CubeGraph, associated, free_bit, link_graph, opposite
from .linkage_engine import (
    _construction,
    check_supported,
    scenario3_context,
    solve_link,
    solve_linkage,
    solve_strong,
)
from .path_oracle import (
    BUDGET_EXCEEDED,
    DEFAULT_NODE_BUDGET,
    LINKED,
    UNLINKED,
    InvariantError,
    Pairing,
    check_separator_structure,
    decide_linked,
    instance_to_json,
    max_shared_neighbors,
    pyramid2_quad,
    validate_linkage,
)

DEFAULT_SEED = 2024

EXHAUSTIVE = "exhaustive"
SAMPLED = "sampled"

ENGINE = "engine"
ORACLE = "oracle"
BOTH = "both"

_TWO64 = 1 << 64
_MASK64 = _TWO64 - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# _words' 16 lanes of 128 bits: each lane's low 64 bits hold one word.
_LANES = 16
_LANE_ONES = sum(1 << 128 * j for j in range(_LANES))
_LANE_MASK = _MASK64 * _LANE_ONES
_LANE_OFFSETS = sum(((j + 1) * _GAMMA & _MASK64) << 128 * j for j in range(_LANES))
_LANE_STEP = (_LANES * _GAMMA & _MASK64) * _LANE_ONES
_LANE_WORDS = struct.Struct("<" + "Q8x" * _LANES).unpack   # each low word


class SplitMix64:
    """Deterministic 64-bit generator; see the module docstring for the
    exact recurrence.  Identical streams on every platform."""

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def randrange(self, n: int) -> int:
        """A uniform draw from range(n).  It reads one output as a 64-bit
        word, or ceil(bits / 64) outputs, high word first, when n > 2^64,
        and rejects the words at or above the largest multiple of n."""
        if n <= 0:
            raise ValueError("randrange needs a positive bound")
        span, words = _TWO64, 1
        while span < n:
            span <<= 64
            words += 1
        bound = span - span % n
        while True:
            x = self.next_u64()
            for _ in range(1, words):
                x = x << 64 | self.next_u64()
            if x < bound:
                return x % n

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.randrange(i + 1)
            items[i], items[j] = items[j], items[i]


def _words(seed: int) -> Iterator[int]:
    """The words of SplitMix64(seed).next_u64(), without end, computed 16
    per pass; see the module docstring for the lane layout."""
    mask, mix1, mix2, step = _LANE_MASK, _MIX1, _MIX2, _LANE_STEP
    state = ((seed & _MASK64) * _LANE_ONES + _LANE_OFFSETS) & mask
    while True:
        z = (state ^ state >> 30) & mask
        z = (z * mix1) & mask
        z = (z ^ z >> 27) & mask
        z = (z * mix2) & mask
        z ^= z >> 31
        yield from _LANE_WORDS(z.to_bytes(16 * _LANES, "little"))
        state = (state + step) & mask


def _joined(words: Iterator[int], count: int) -> Iterator[int]:
    """Values of `count` words each from the word stream, high word first."""
    while True:
        x = next(words)
        for _ in range(1, count):
            x = x << 64 | next(words)
        yield x


# ---------------------------------------------------------------------------
# Jobs, instances, reports


class CertificationJob(NamedTuple):
    """What certify runs; see the module docstring.  A named tuple, so that
    a one-instance job is cheap to build."""

    host: str
    k: int
    mode: str = EXHAUSTIVE
    solver: str = ENGINE
    samples: int = 0
    seed: int | None = None     # sampled jobs only; None means DEFAULT_SEED
    strong: bool = False
    budget: int = DEFAULT_NODE_BUDGET
    fail_fast: bool = False
    workers: int = 1


class Instance(NamedTuple):
    """One generated test case; kind is plain, strong, or link.  A named
    tuple, so that a sweep pays little to build one per instance."""

    index: int
    kind: str
    d: int
    pairing: Pairing
    forbidden: object = None
    apex: int | None = None
    fixture: str | None = None

    def host_graph(self):
        """The instance's host, shared by every instance of its shape."""
        return _shared_host(self.kind, self.d, self.forbidden, self.apex,
                            self.fixture)

    def to_json(self) -> dict:
        return {"index": self.index, "kind": self.kind,
                **instance_to_json(self.host_graph(), self.pairing)}


@lru_cache(maxsize=1024)
def _shared_host(kind: str, d: int, forbidden, apex: int | None,
                 fixture: str | None):
    """The host of an Instance with these fields, built once per shape: a
    strong host is the shared whole host without its forbidden vertex.
    Hosts are frozen, so instances may share them."""
    if kind == "link":
        return link_graph(d, apex)
    if forbidden is not None:
        return _shared_host("plain", d, None, None, fixture).without({forbidden})
    return CubeGraph(d) if fixture is None else pyramid2_quad()


@dataclass
class CertificationReport:
    label: str
    instances: int = 0
    successes: int = 0
    failures: list = field(default_factory=list)
    budget_cases: list = field(default_factory=list)
    wall_time: float = 0.0
    scenario_counters: dict = field(default_factory=dict)

    @property
    def budget_exceeded(self) -> int:
        return len(self.budget_cases)

    @property
    def ok(self) -> bool:
        return not self.failures and not self.budget_cases

    def count(self, label: str, n: int = 1) -> None:
        self.scenario_counters[label] = self.scenario_counters.get(label, 0) + n

    def merge(self, other: "CertificationReport") -> None:
        self.instances += other.instances
        self.successes += other.successes
        self.failures.extend(other.failures)
        self.budget_cases.extend(other.budget_cases)
        for key, n in other.scenario_counters.items():
            self.count(key, n)

    def sort_rows(self) -> None:
        if not self.failures and not self.budget_cases:
            return
        self.failures.sort(key=lambda row: row.get("index", 0))
        self.budget_cases.sort(key=lambda row: row.get("index", 0))

    def to_json(self, timing: bool = False) -> dict:
        out = {
            "label": self.label,
            "instances": self.instances,
            "successes": self.successes,
            "failures": self.failures,
            "budget_exceeded": len(self.budget_cases),
            "budget_cases": self.budget_cases,
            "scenario_counters": dict(sorted(self.scenario_counters.items())),
            "ok": self.ok,
        }
        if timing:
            out["wall_time_s"] = round(self.wall_time, 3)
        return out

    def summary_text(self, timing: bool = False) -> str:
        lines = [
            f"job        {self.label}",
            f"instances  {self.instances}",
            f"successes  {self.successes}",
            f"failures   {len(self.failures)}",
            f"budget     {len(self.budget_cases)}",
        ]
        if timing:
            lines.append(f"wall       {self.wall_time:.3f}s")
        for key, n in sorted(self.scenario_counters.items()):
            lines.append(f"  {key:<24} {n}")
        for row in self.failures[:10]:
            lines.append(f"  FAIL #{row.get('index')}: {row.get('reason')}")
        if len(self.failures) > 10:
            lines.append(f"  ... {len(self.failures) - 10} more failures")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Host specs and instance generation


def parse_host_spec(spec: str) -> tuple[str, int | None]:
    """'cube:5' -> ('cube', 5); 'link:6' -> ('link', 6); fixture names pass
    through with dimension None."""
    if spec == "pyramid2-quad":
        return "fixture", None
    head, sep, tail = spec.partition(":")
    if head in ("cube", "link") and sep:
        try:
            d = int(tail)
        except ValueError:
            raise ValueError(f"bad dimension in host spec {spec!r}") from None
        cube_core.check_dim(d)
        return head, d
    raise ValueError(f"unknown host spec {spec!r}")


def canonical_pairings(X: tuple) -> Iterator[tuple]:
    """All pairings of a sorted terminal tuple: the smallest terminal pairs
    with each partner in ascending order, recursively."""
    if not X:
        yield ()
        return
    s = X[0]
    for i in range(1, len(X)):
        rest = X[1:i] + X[i + 1:]
        for tail in canonical_pairings(rest):
            yield ((s, X[i]),) + tail


@lru_cache(maxsize=256)
def _host_space(host: str, k: int, strong: bool) -> tuple[str, int, Sequence, int]:
    """Resolve a host spec to (kind, d, vertices, size) for instances of k
    pairs.  Memoised: the result is immutable, and a bad spec, which
    raises, is never stored, so it raises on every call.

    kind is plain, strong or link; d is 0 on a fixture, as in Instance.  The
    vertices are range(2^d) on a cube or link host and the fixture's sorted
    names otherwise; size is their number, counted as 2^d on a cube because
    len() of a range stops at 2^63 - 1.  A host too small for 2k terminals
    plus the vertices each instance removes (a forbidden vertex; the apex
    and its opposite) is a ValueError, so no job runs over an empty
    instance space.
    """
    spec, d = parse_host_spec(host)
    if spec == "link" and strong:
        raise ValueError("link jobs already remove two vertices; strong does not apply")
    kind = "link" if spec == "link" else "strong" if strong else "plain"
    removed = 2 if spec == "link" else int(strong)
    vertices = range(1 << d) if d else tuple(
        _shared_host("plain", 0, None, None, host).vertex_list())
    size = 1 << d if d else len(vertices)
    if 2 * k + removed > size:
        raise ValueError(f"{host} has {size} vertices, too few for "
                         f"2k = {2 * k} terminals"
                         + (f" plus {removed} removed" if removed else ""))
    return kind, d or 0, vertices, size


def exhaustive_instances(host: str, k: int, strong: bool = False) -> Iterator[Instance]:
    """Every instance of k pairs on the host, indexed in a fixed order that
    failure rows depend on: first the removal choice (nothing; each
    forbidden vertex in ascending order when strong; the apex 0 and its
    opposite on a link), then the ascending 2k-combinations of the
    remaining vertices, then canonical_pairings of each combination."""
    yield from _enumerate(_host_space(host, k, strong), host, k)


def _enumerate(space: tuple, host: str, k: int) -> Iterator[Instance]:
    kind, d, vertices, _ = space
    fixture = None if d else host
    if kind == "strong":
        removals = [(x,) for x in vertices]
    elif kind == "link":
        removals = [(0, opposite(d, 0))]
    else:
        removals = [()]
    idx = 0
    for removed in removals:
        forbidden = removed[0] if kind == "strong" else None
        apex = removed[0] if kind == "link" else None
        pool = [v for v in vertices if v not in removed]
        for X in combinations(pool, 2 * k):
            for pairs in canonical_pairings(X):
                yield Instance(idx, kind, d, Pairing(pairs), forbidden, apex, fixture)
                idx += 1


def _draw_distinct(rng: SplitMix64, size: int, count: int) -> list:
    out: list = []
    seen = set()
    while len(out) < count:
        v = rng.randrange(size)
        if v in seen:
            continue
        seen.add(v)
        out.append(v)
    return out


def sample_instances(host: str, k: int, n: int, seed: int,
                     strong: bool = False) -> Iterator[Instance]:
    """A reproducible stream of n random instances.

    Draw order per instance is fixed: link hosts draw the apex first, then
    terminals (rejection sampling among usable vertices), then the pairing
    by shuffling the drawn terminals; strong hosts draw the forbidden
    vertex after the pairing.  Every draw is an index into the host's
    vertices (see _host_space), on a fixture as on a cube.  Changing this
    order would silently change every seeded stream, so it is part of the
    contract.
    """
    if n < 1:
        raise ValueError("sample_instances needs n >= 1")
    yield from _sample(_host_space(host, k, strong), host, k, n, seed)


@lru_cache(maxsize=256)
def _shuffle_draws(count: int) -> tuple:
    """(position, range, rejection bound) of each one-word draw that
    SplitMix64.shuffle makes on `count` items, in draw order."""
    return tuple((j, j + 1, _TWO64 - _TWO64 % (j + 1)) for j in range(count - 1, 0, -1))


def _sample(space: tuple, host: str, k: int, n: int,
            seed: int) -> Iterator[Instance]:
    """The instances of sample_instances, drawn from _words(seed), the
    words of SplitMix64(seed).next_u64() computed 16 per pass in lanes of
    128 bits (each lane masked to 64 bits before every multiply, so each
    product stays under 2^128; the low words read little-endian).

    Each instance reads the stream in phases, in the order randrange and
    shuffle would: a link's apex, which bars itself and its opposite; the
    2k distinct terminals; the 2k - 1 shuffle draws, as SplitMix64.shuffle
    makes them; and a strong host's forbidden vertex, distinct from the
    terminals.  As in randrange, a draw from range(m) reads w words, high
    word first, for the least w with span = 2^(64 w) >= m, and rejects the
    values at or above span - span % m.  Only the vertex draws, from
    range(size), can need more than one word.
    """
    kind, d, vertices, size = space
    fixture = None if d else host
    span, width = _TWO64, 1
    while span < size:
        span, width = span << 64, width + 1
    limit = span - span % size
    words = _words(seed)
    draws = words if width == 1 else _joined(words, width)
    count = 2 * k
    shuffle = _shuffle_draws(count)
    link, strong = kind == "link", kind == "strong"
    apex = forbidden = None
    for i in range(n):
        if link:
            for x in draws:
                if x < limit:
                    break
            apex = vertices[x % size]
            barred = {apex, opposite(d, apex)}
        else:
            barred = set()
        terminals: list = []
        for x in draws:
            if x < limit and (v := vertices[x % size]) not in barred:
                barred.add(v)
                terminals.append(v)
                if len(terminals) == count:
                    break
        for a, m, bound in shuffle:
            for x in words:
                if x < bound:
                    b = x % m
                    terminals[a], terminals[b] = terminals[b], terminals[a]
                    break
        if strong:
            for x in draws:
                if x < limit and (forbidden := vertices[x % size]) not in barred:
                    break
        yield Instance(i, kind, d, Pairing(tuple(zip(terminals[::2], terminals[1::2]))),
                       forbidden, apex, fixture)


# ---------------------------------------------------------------------------
# Running jobs


def _validate_job(job: CertificationJob) -> tuple:
    """Check the job and return its host's _host_space, so that running it
    resolves the host once."""
    space = _host_space(job.host, job.k, job.strong)
    kind, d, _, _ = space
    if job.k < 1:
        raise ValueError("jobs need k >= 1")
    if job.mode not in (EXHAUSTIVE, SAMPLED):
        raise ValueError(f"unknown mode {job.mode!r}")
    if job.solver not in (ENGINE, ORACLE, BOTH):
        raise ValueError(f"unknown solver {job.solver!r}")
    if job.mode == SAMPLED and job.samples < 1:
        raise ValueError("sampled jobs need a positive sample count")
    if job.mode == EXHAUSTIVE and job.samples != 0:
        raise ValueError("a sample count needs --mode sampled; exhaustive jobs "
                         "run every instance")
    if job.mode == EXHAUSTIVE and job.seed is not None:
        raise ValueError("a seed needs --mode sampled; exhaustive jobs "
                         "run every instance")
    if job.workers < 1:
        raise ValueError("workers must be at least one")
    if job.solver in (ENGINE, BOTH):
        if not d:
            raise ValueError("the engine solves cube hosts only")
        check_supported(kind, d, job.k)
    return space


def _instances(job: CertificationJob, space: tuple) -> Iterator[Instance]:
    if job.mode == EXHAUSTIVE:
        return _enumerate(space, job.host, job.k)
    return _sample(space, job.host, job.k, job.samples, _seed(job))


def _seed(job: CertificationJob) -> int:
    return DEFAULT_SEED if job.seed is None else job.seed


def engine_solve(inst: Instance):
    """Solve one sampled or enumerated instance with the engine entry point
    its kind calls for."""
    if inst.kind == "plain":
        return solve_linkage(inst.d, inst.pairing)
    if inst.kind == "strong":
        return solve_strong(inst.d, inst.pairing, inst.forbidden)
    return solve_link(inst.d, inst.apex, inst.pairing)


_ORACLE_LABELS = {status: f"oracle:{status}"
                  for status in (LINKED, UNLINKED, BUDGET_EXCEEDED)}


def _run_one(inst: Instance, job: CertificationJob, report: CertificationReport) -> None:
    report.instances += 1
    host = inst.host_graph()
    if job.solver in (ENGINE, BOTH):
        try:
            result = engine_solve(inst)
        except (InvariantError, ValueError) as exc:
            row = inst.to_json()
            row["reason"] = f"engine: {exc}"
            if isinstance(exc, InvariantError) and exc.context:
                row["context"] = exc.context
            report.failures.append(row)
            return
        check = validate_linkage(host, inst.pairing, result.linkage)
        if not check:
            row = inst.to_json()
            row["reason"] = f"engine output invalid: {check.clause}: {check.message}"
            report.failures.append(row)
            return
        for label in result.trace:
            report.count(label)
        if job.solver == ENGINE:
            report.successes += 1
            return
    outcome = decide_linked(host, inst.pairing, budget=job.budget)
    report.count(_ORACLE_LABELS[outcome.status])
    if outcome.status == BUDGET_EXCEEDED:
        row = inst.to_json()
        row["reason"] = f"oracle budget exhausted after {outcome.nodes_used} nodes"
        report.budget_cases.append(row)
        return
    if outcome.status == LINKED:
        if job.solver == BOTH:
            report.successes += 1
            return
        check = validate_linkage(host, inst.pairing, outcome.linkage)
        if check:
            report.successes += 1
        else:
            row = inst.to_json()
            row["reason"] = f"oracle witness invalid: {check.clause}"
            report.failures.append(row)
    else:
        row = inst.to_json()
        if job.solver == BOTH:
            row["reason"] = "engine produced a linkage but the oracle says unlinked"
        else:
            row["reason"] = "oracle: unlinked"
            row["pair_order"] = list(outcome.pair_order)
        report.failures.append(row)


def _certify_range(job: CertificationJob, space: tuple, offset: int,
                   step: int) -> CertificationReport:
    report = CertificationReport(label=_job_label(job))
    for inst in _instances(job, space):
        if inst.index % step != offset:
            continue
        _run_one(inst, job, report)
        if job.fail_fast and report.failures:
            break
    return report


def _certify_worker(args: tuple) -> CertificationReport:
    job, space, worker_id = args
    return _certify_range(job, space, worker_id, job.workers)


def _job_label(job: CertificationJob) -> str:
    bits = [job.host, f"k={job.k}", job.mode]
    if job.mode == SAMPLED:
        bits.append(f"n={job.samples}")
        bits.append(f"seed={_seed(job)}")
    if job.strong:
        bits.append("strong")
    bits.append(job.solver)
    return " ".join(bits)


def certify(job: CertificationJob) -> CertificationReport:
    """Run the job and aggregate a report; see the module docstring."""
    space = _validate_job(job)
    start = time.perf_counter()
    if job.workers > 1:
        import multiprocessing  # slow to import, and only a pool needs it
        with multiprocessing.Pool(job.workers) as pool:
            parts = pool.map(_certify_worker,
                             [(job, space, i) for i in range(job.workers)])
        report = CertificationReport(label=_job_label(job))
        for part in parts:
            report.merge(part)
    else:
        report = _certify_range(job, space, 0, 1)
    report.sort_rows()
    report.wall_time = time.perf_counter() - start
    return report


# ---------------------------------------------------------------------------
# Property suites


def _random_subset(rng: SplitMix64, d: int) -> list:
    size = 1 << d
    while True:
        words = [rng.next_u64() for _ in range((size + 63) // 64)]
        out = [v for v in range(size) if (words[v // 64] >> (v % 64)) & 1]
        if out:
            return out


def _association_failure(free: int, Z: list) -> str | None:
    """Why Z breaks the association facts inside the face `free`, or None:
    a nonempty Z associates at most |Z| - 1 bits, and free_bit (which the
    engine's free directions come from) is the lowest bit outside that
    association mask."""
    zset = frozenset(Z)
    assoc = associated(free, zset)
    if assoc.bit_count() > len(Z) - 1:
        return "association bound broken"
    left = free & ~assoc
    if free_bit(free, zset) != left & -left:
        return "free_bit is not the lowest unassociated bit"
    return None


def _suite_association(seed: int, samples: int) -> CertificationReport:
    report = CertificationReport(label="association_bound")
    for mask in range(1, 256):
        Z = [v for v in range(8) if (mask >> v) & 1]
        report.instances += 1
        reason = _association_failure(7, Z)
        if reason is None:
            report.successes += 1
            report.count("d3")
        else:
            report.failures.append({"d": 3, "Z": Z, "reason": reason})
    for d in range(4, 9):
        rng = SplitMix64(seed + d)
        for _ in range(samples):
            Z = _random_subset(rng, d)
            report.instances += 1
            reason = _association_failure((1 << d) - 1, Z)
            if reason is None:
                report.successes += 1
                report.count(f"d{d}")
            else:
                report.failures.append({"d": d, "Z": Z, "reason": reason})
    return report


def _suite_separator(seed: int, samples: int) -> CertificationReport:
    report = CertificationReport(label="separator_structure")
    for S in combinations(range(8), 3):
        report.instances += 1
        verdict = check_separator_structure(3, S)
        report.count(f"d3:{verdict.kind}")
        if verdict.kind == path_oracle.VIOLATION:
            report.failures.append({"d": 3, "S": list(S), "reason": verdict.detail})
        else:
            report.successes += 1
    rng = SplitMix64(seed)
    for _ in range(samples):
        S = _draw_distinct(rng, 16, 4)
        report.instances += 1
        verdict = check_separator_structure(4, S)
        report.count(f"d4:{verdict.kind}")
        if verdict.kind == path_oracle.VIOLATION:
            report.failures.append({"d": 4, "S": sorted(S), "reason": verdict.detail})
        else:
            report.successes += 1
    return report


def _suite_shared(seed: int, samples: int) -> CertificationReport:
    report = CertificationReport(label="shared_neighbors")
    for d in range(2, 7):
        for u, v in combinations(range(1 << d), 2):
            report.instances += 1
            c = max_shared_neighbors(d, u, v)
            report.count(f"shared{c}")
            if c <= 2:
                report.successes += 1
            else:
                report.failures.append({"d": d, "u": u, "v": v,
                                        "reason": f"{c} shared neighbors"})
    return report


# Q5 with three pairs is tight and odd, so every instance runs one of the
# three scenarios; the two that build no omega are counted as skips.
_OMEGA_SKIPS = {"scenario1": "skipped_antipodal",
                "scenario2": "skipped_common_facet"}


def _suite_omega(seed: int, samples: int) -> CertificationReport:
    report = CertificationReport(label="omega_conditions")
    for inst in sample_instances("cube:5", 3, samples, seed):
        label = _construction((1 << 5) - 1, list(inst.pairing.pairs), frozenset())[0]
        if label != "scenario3":
            report.count(_OMEGA_SKIPS[label])
            continue
        report.instances += 1
        try:
            ctx = scenario3_context(5, inst.pairing)
        except InvariantError as exc:
            report.failures.append({"instance": inst.to_json(),
                                    "reason": f"omega construction failed: {exc}"})
            continue
        omega = ctx.omega
        problems = []
        values = list(omega.values())
        if len(set(values)) != len(values):
            problems.append("not injective")
        X_set = frozenset(ctx.rho)
        b = ctx.face.fixed_mask
        for x, wx in omega.items():
            if wx != x and not (ctx.face.contains(wx) and cube_core.adjacent(x, wx)):
                problems.append(f"omega({x}) is not x or an in-facet neighbor")
            if {wx, wx ^ b} & (X_set - {x, ctx.rho[x]}):
                problems.append(f"omega({x}) touches a foreign terminal")
            report.count("identity" if wx == x else "moved")
        if problems:
            report.failures.append({"instance": inst.to_json(),
                                    "reason": "; ".join(problems)})
        else:
            report.successes += 1
    return report


_SUITES = {
    "association_bound": _suite_association,
    "separator_structure": _suite_separator,
    "shared_neighbors": _suite_shared,
    "omega_conditions": _suite_omega,
}

SUITE_NAMES = tuple(sorted(_SUITES))


def property_suite(name: str, seed: int = DEFAULT_SEED,
                   samples: int = 10_000) -> CertificationReport:
    """Run one named invariant suite; see _SUITES for the menu."""
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; options: {sorted(_SUITES)}")
    if samples < 1:
        raise ValueError(f"suites need a positive sample count, got {samples}")
    start = time.perf_counter()
    report = _SUITES[name](seed, samples)
    report.wall_time = time.perf_counter() - start
    return report
