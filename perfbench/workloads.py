"""The benchmark's workloads: seeded inputs, timed operations, correctness gate.

Every workload is a sequence of operations.  An operation is one public call
into the program, timed on its own:

  plain_q13     solve_linkage on a tight 7-pairing of Q13
  variants_q11  solve_strong / solve_link, round-robin over four families
  certify_q5    certify(cube:5, k=3, sampled, engine), one instance per job
  oracle_q5     certify(cube:5, k=3, sampled, oracle), one instance per job

Solve inputs come from the benchmark's own generator (``random.Random`` keyed
by workload and seed), never from ``certifier.sample_instances``, so a change
to the program's sampler cannot change them.  Certify operations pass only
the job spec: sampling is part of what a ``certify`` user pays.

Entry points are looked up on their module at call time
(``linkage_engine.solve_linkage``), so the traced run sees the calls when it
wraps them from outside.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from typing import Iterator

from cubelink import certifier, linkage_engine
from cubelink.cube_core import CubeGraph, link_graph, opposite
from cubelink.path_oracle import Pairing, validate_linkage

WORKLOADS = ("plain_q13", "certify_q5", "oracle_q5", "variants_q11")


@dataclass(frozen=True)
class SolveOp:
    """One engine call on an input the benchmark generated."""

    family: str          # "plain", "strong" or "link"
    d: int
    pairing: Pairing
    special: int | None = None   # forbidden vertex (strong) or apex (link)

    units = 1

    def run(self):
        if self.family == "plain":
            return linkage_engine.solve_linkage(self.d, self.pairing)
        if self.family == "strong":
            return linkage_engine.solve_strong(self.d, self.pairing, self.special)
        return linkage_engine.solve_link(self.d, self.special, self.pairing)

    def host(self) -> CubeGraph:
        if self.family == "plain":
            return CubeGraph(self.d)
        if self.family == "strong":
            return CubeGraph(self.d, frozenset({self.special}))
        return link_graph(self.d, self.special)

    def failures(self, result) -> int:
        """0 when the result is a valid linkage of this input, else 1.

        The host is rebuilt from the input, not taken from the result.
        """
        if result.pairing != self.pairing:
            return 1
        return 0 if validate_linkage(self.host(), self.pairing, result.linkage) else 1

    def fingerprint(self, result) -> tuple:
        return (tuple(map(tuple, result.linkage)), tuple(result.trace))


@dataclass(frozen=True)
class CertifyOp:
    """One ``certify`` call on a sampled Q5, k = 3 job of one instance.

    One instance per job makes the latency percentiles those of certifying
    one instance.  With bigger jobs, p99 is set by the jobs that caught one
    of the exact search's rare slow instances (0.1% of Q5 instances take 25x
    the median), and it moved by 17% between seeds.
    """

    solver: str
    seed: int

    units = 1

    def run(self):
        return certifier.certify(certifier.CertificationJob(
            host="cube:5", k=3, mode=certifier.SAMPLED, solver=self.solver,
            samples=1, seed=self.seed, workers=1,
        ))

    def failures(self, report) -> int:
        """0 when the instance certified cleanly, else 1.

        It must succeed with no failure row and no budget case; the oracle
        must also find it linked (the theorem guarantees that for Q5 with
        three pairs).
        """
        ok = report.instances == report.successes == 1 and report.ok
        if self.solver == certifier.ORACLE:
            ok = ok and report.scenario_counters.get("oracle:linked") == 1
        return 0 if ok else 1

    def fingerprint(self, report) -> str:
        return json.dumps(report.to_json(), sort_keys=True)


def _terminals(rng: random.Random, size: int, count: int, taken: set) -> list:
    out: list = []
    seen = set(taken)
    while len(out) < count:
        v = rng.randrange(size)
        if v not in seen:
            seen.add(v)
            out.append(v)
    return out


def _pairing(rng: random.Random, terms: list) -> Pairing:
    rng.shuffle(terms)
    return Pairing(tuple((terms[2 * i], terms[2 * i + 1])
                         for i in range(len(terms) // 2)))


def _plain(rng: random.Random, d: int, k: int) -> SolveOp:
    return SolveOp("plain", d, _pairing(rng, _terminals(rng, 1 << d, 2 * k, set())))


def _strong(rng: random.Random, d: int, k: int) -> SolveOp:
    terms = _terminals(rng, 1 << d, 2 * k + 1, set())
    x = terms.pop()
    return SolveOp("strong", d, _pairing(rng, terms), x)


def _link(rng: random.Random, D: int, k: int) -> SolveOp:
    v = rng.randrange(1 << D)
    terms = _terminals(rng, 1 << D, 2 * k, {v, opposite(D, v)})
    return SolveOp("link", D, _pairing(rng, terms), v)


# variants_q11 cycles through these (generator, dimension, pairs).
VARIANT_FAMILIES = (
    (_strong, 11, 5),   # odd d: strong_extra_pair
    (_strong, 12, 6),   # even d: strong_projection
    (_link, 11, 5),     # lk(Q11), odd D
    (_link, 12, 6),     # lk(Q12), link_case2
)


def make_ops(workload: str, seed: int) -> Iterator:
    """The workload's operations, an endless stream that is a pure function
    of (workload, seed).  Inputs are made as they are consumed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}")
    if workload == "plain_q13":
        while True:
            yield _plain(rng, 13, 7)
    if workload == "variants_q11":
        for gen, d, k in itertools.cycle(VARIANT_FAMILIES):
            yield gen(rng, d, k)
    solver = certifier.ENGINE if workload == "certify_q5" else certifier.ORACLE
    while True:
        yield CertifyOp(solver, rng.getrandbits(62))
