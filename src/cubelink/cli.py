"""Command line interface.

Commands: solve, strong-solve, link-solve (constructive engine), decide
(exact oracle), verify (linkage validation), certify (instance sweeps),
suite (invariant suites), bench (engine timing percentiles).

Exit codes: 0 on success / linked / valid; 1 when an instance is unlinked,
a linkage is invalid, or a certification run records failures; 2 for usage
problems, including malformed JSON (reported with line and column); 3 for
internal invariant failures, which also write a replayable dump to a temp
file, and for exhausted search budgets; 141 (128 + SIGPIPE), with no
message, when the reader of stdout closes it early.  The solve commands,
and decide on a linked verdict, validate the linkage against the
command's host and pairing before printing it; an invalid one is an
internal failure (exit 3, nothing on stdout).

Vertices are binary strings, most significant coordinate first; pair lists
look like "00000:11111,00001:11110"; avoid lists are comma separated.  An
instance file (or "-" for stdin) overrides the flag-built instance.  Output
is JSON by default (stable: key-sorted, and timing fields appear only with
--timing, except in bench, whose output is all timing and which has no
such flag) or a text rendering with --format text.  LINKAGE_BUDGET and
LINKAGE_WORKERS set defaults for --budget and --workers.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time

from .certifier import (
    BOTH,
    DEFAULT_SEED,
    ENGINE,
    EXHAUSTIVE,
    ORACLE,
    SAMPLED,
    SUITE_NAMES,
    CertificationJob,
    _sample,
    _validate_job,
    certify,
    engine_solve,
    parse_host_spec,
    property_suite,
)
from .cube_core import CubeGraph, link_graph, opposite, parse_vertex
from .linkage_engine import (
    SolveResult,
    UnsupportedInstanceError,
    detect_config_3F,
    solve_avoiding,
    solve_link,
    solve_strong,
)
from .path_oracle import (
    BUDGET_EXCEEDED,
    DEFAULT_NODE_BUDGET,
    LINKED,
    UNLINKED,
    InvariantError,
    Pairing,
    decide_linked,
    instance_to_json,
    linkage_from_json,
    linkage_to_json,
    parse_instance,
    pyramid2_quad,
    validate_linkage,
)


def _emit(obj: dict) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True, default=str))


def _read_json(path: str):
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    return json.loads(text)


def _env_int(name: str, fallback: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"environment variable {name} must be an integer, got {raw!r}")


def _budget(args) -> int:
    if getattr(args, "budget", None) is not None:
        source, budget = "--budget", args.budget
    else:
        source = "environment variable LINKAGE_BUDGET"
        budget = _env_int("LINKAGE_BUDGET", DEFAULT_NODE_BUDGET)
    if budget < 0:
        raise ValueError(f"{source} must be nonnegative, got {budget}")
    return budget


def _workers(args) -> int:
    if getattr(args, "workers", None) is not None:
        return args.workers
    return _env_int("LINKAGE_WORKERS", 1)


def _parse_pairs(G, text: str) -> Pairing:
    pairs = []
    for chunk in text.split(","):
        s, sep, t = chunk.partition(":")
        if not sep:
            raise ValueError(f"pair {chunk!r} must look like vertex:vertex")
        pairs.append((G.parse_vertex(s.strip()), G.parse_vertex(t.strip())))
    return Pairing(tuple(pairs))


def _require(args, *names: str) -> None:
    for name in names:
        if getattr(args, name, None) is None:
            raise ValueError(f"--{name.replace('_', '-')} is required without an instance file")


def _validated(G, Y: Pairing, linkage: list, source: str) -> None:
    """Return when validate_linkage accepts the linkage for the command's
    host G and pairing Y; otherwise raise InvariantError, so the command
    prints nothing, exits 3 and dumps the host, the pairs and the failing
    clause for replay."""
    report = validate_linkage(G, Y, linkage)
    if not report:
        raise InvariantError(
            f"{source} returned an invalid linkage: {report.clause}: {report.message}",
            {**instance_to_json(G, Y), "clause": report.clause,
             "witness": report.witness})


def _print_solve(result: SolveResult, args, wall: float) -> None:
    if args.format == "text":
        print("trace:", " ".join(result.trace))
        for path in result.linkage:
            print(" ".join(result.host.format_vertex(v) for v in path))
        if args.timing:
            print(f"wall: {wall:.6f}s")
    else:
        out = result.to_json()
        if args.timing:
            out["wall_time_s"] = round(wall, 6)
        _emit(out)


def _input(args, spec: str):
    """The (host, pairing) a solve or decide command works on.

    An instance file wins over every flag.  Otherwise the host is --host,
    or spec:--dim (spec is "cube" or "link"); a link host loses --apex (by
    default 0) and its opposite, and only a link host takes --apex; then
    --avoid removes vertices and --pairs is read on what is left.
    """
    if args.instance:
        return parse_instance(_read_json(args.instance))
    host = getattr(args, "host", None)
    if host is None:
        _require(args, "dim")
        host = f"{spec}:{args.dim}"
    elif args.dim is not None:
        raise ValueError("--dim and --host both name the host; give one")
    _require(args, "pairs")
    kind, d = parse_host_spec(host)
    apex = getattr(args, "apex", None)
    if kind == "link":
        G = link_graph(d, 0 if apex is None else parse_vertex(d, apex))
    elif apex is not None:
        raise ValueError(f"--apex needs a link host, got {host}")
    else:
        G = CubeGraph(d) if kind == "cube" else pyramid2_quad()
    if getattr(args, "avoid", None):
        G = G.without(G.parse_vertex(v.strip()) for v in args.avoid.split(","))
    return G, _parse_pairs(G, args.pairs)


def _cmd_solve(args) -> int:
    start = time.perf_counter()
    host, Y = _input(args, "cube")
    if not isinstance(host, CubeGraph):
        raise ValueError("solve expects a cube host")
    result = solve_avoiding(host.d, Y, host.removed)
    wall = time.perf_counter() - start
    _validated(host, Y, result.linkage, "the engine")
    _print_solve(result, args, wall)
    return 0


def _cmd_strong_solve(args) -> int:
    start = time.perf_counter()
    host, Y = _input(args, "cube")
    if not isinstance(host, CubeGraph) or len(host.removed) != 1:
        raise ValueError("strong-solve expects a cube host with one forbidden vertex")
    result = solve_strong(host.d, Y, next(iter(host.removed)))
    wall = time.perf_counter() - start
    _validated(host, Y, result.linkage, "the engine")
    _print_solve(result, args, wall)
    return 0


def _cmd_link_solve(args) -> int:
    start = time.perf_counter()
    host, Y = _input(args, "link")
    if not isinstance(host, CubeGraph) or len(host.removed) != 2:
        raise ValueError("link-solve expects a cube host minus two opposite vertices")
    a, b = sorted(host.removed)
    if b != opposite(host.d, a):
        raise ValueError("link-solve expects the two removed vertices to be opposite")
    apex = a if args.apex is None else parse_vertex(host.d, args.apex)
    if apex not in (a, b):
        raise ValueError("--apex must be one of the removed vertices")
    result = solve_link(host.d, apex, Y)
    wall = time.perf_counter() - start
    _validated(host, Y, result.linkage, "the engine")
    _print_solve(result, args, wall)
    return 0


def _certificate_line(cert: dict) -> str:
    """The text line for a Q3 obstruction certificate (Config3F.to_json)."""
    return f"certificate: face {cert['face']} witness {cert['witness_terminal']}"


def _cmd_decide(args) -> int:
    G, Y = _input(args, "cube")
    start = time.perf_counter()
    outcome = decide_linked(G, Y, budget=_budget(args))
    wall = time.perf_counter() - start
    out = {**instance_to_json(G, Y), "status": outcome.status,
           "nodes_used": outcome.nodes_used}
    if outcome.status == LINKED:
        _validated(G, Y, outcome.linkage, "the oracle")
        out["paths"] = linkage_to_json(G, outcome.linkage)
    certificate = None
    if (outcome.status == UNLINKED and isinstance(G, CubeGraph)
            and G.d == 3 and not G.removed and Y.k == 2):
        cert = detect_config_3F(Y)
        if cert is not None:
            certificate = cert.to_json()
    if certificate is not None:
        out["certificate"] = certificate
    if args.timing:
        out["wall_time_s"] = round(wall, 6)
    if args.format == "text":
        print(outcome.status)
        if outcome.status == LINKED:
            for path in outcome.linkage:
                print(" ".join(G.format_vertex(v) for v in path))
        if certificate is not None:
            print(_certificate_line(certificate))
    else:
        _emit(out)
    if outcome.status == LINKED:
        return 0
    if outcome.status == BUDGET_EXCEEDED:
        return 3
    return 1


def _cmd_verify(args) -> int:
    obj = _read_json(args.instance or "-")
    G, Y = parse_instance(obj)
    if "paths" not in obj:
        raise ValueError("verify needs a 'paths' field alongside the instance")
    L = linkage_from_json(G, obj["paths"])
    report = validate_linkage(G, Y, L)
    out = {"ok": report.ok}
    if not report.ok:
        out["clause"] = report.clause
        out["witness"] = report.witness
        out["message"] = report.message
    if args.format == "text":
        print("valid" if report.ok else f"invalid: {report.clause}: {report.message}")
    else:
        _emit(out)
    return 0 if report.ok else 1


def _cmd_certify(args) -> int:
    job = CertificationJob(
        host=args.host,
        k=args.k,
        mode=args.mode,
        solver=args.solver,
        samples=args.samples,
        seed=args.seed,
        strong=args.strong,
        budget=_budget(args),
        fail_fast=args.fail_fast,
        workers=_workers(args),
    )
    report = certify(job)
    if args.format == "text":
        print(report.summary_text(timing=args.timing))
    else:
        _emit(report.to_json(timing=args.timing))
    if report.failures:
        return 1
    if report.budget_cases:
        return 3
    return 0


def _cmd_suite(args) -> int:
    report = property_suite(args.name, seed=args.seed, samples=args.samples)
    if args.format == "text":
        print(report.summary_text(timing=args.timing))
    else:
        _emit(report.to_json(timing=args.timing))
    return 0 if report.ok else 1


def _percentile(sorted_times: list, q: float) -> float:
    idx = round(q * (len(sorted_times) - 1))
    return sorted_times[idx]


def _cmd_bench(args) -> int:
    # the checks and messages of a sampled engine certification job
    space = _validate_job(CertificationJob(host=args.host, k=args.k, mode=SAMPLED,
                                           samples=args.samples, seed=args.seed,
                                           strong=args.strong))
    instances = list(_sample(space, args.host, args.k, args.samples, args.seed))
    # One untimed solve first, so one-off first-call costs (imports, caches)
    # stay out of the percentiles.
    engine_solve(instances[0])
    times = []
    start = time.perf_counter()
    for inst in instances:
        t0 = time.perf_counter()
        engine_solve(inst)
        times.append(time.perf_counter() - t0)
    total = time.perf_counter() - start
    times.sort()
    out = {
        "host": args.host,
        "k": args.k,
        "samples": args.samples,
        "seed": args.seed,
        "strong": args.strong,
        "total_s": round(total, 3),
        "p50_ms": round(1000 * _percentile(times, 0.50), 3),
        "p90_ms": round(1000 * _percentile(times, 0.90), 3),
        "p99_ms": round(1000 * _percentile(times, 0.99), 3),
        "max_ms": round(1000 * times[-1], 3),
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
    }
    if args.format == "text":
        width = max(len(key) for key in out)
        for key, value in out.items():
            if isinstance(value, dict):
                value = " ".join(f"{k}={v}" for k, v in value.items())
            print(f"{key:<{width}}  {value}")
    else:
        _emit(out)
    return 0


def _replay_dump(exc: InvariantError) -> str:
    payload = {"error": str(exc), "context": getattr(exc, "context", None)}
    fd, path = tempfile.mkstemp(prefix="cubelink-replay-", suffix=".json")
    with os.fdopen(fd, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=str)
    return path


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubelink",
        description="Construct and certify disjoint path linkages in cube graphs.",
    )
    formatted = argparse.ArgumentParser(add_help=False)
    formatted.add_argument("--format", choices=("json", "text"), default="json")
    common = argparse.ArgumentParser(add_help=False, parents=[formatted])
    common.add_argument("--timing", action="store_true",
                        help="include wall-clock fields in the output")
    sub = parser.add_subparsers(dest="command", required=True)

    def solver_parser(name: str, help_text: str):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.add_argument("instance", nargs="?",
                       help="instance JSON file, or - for stdin (overrides flags)")
        p.add_argument("--dim", type=int)
        p.add_argument("--pairs", help='e.g. "00000:11111,00001:11110"')
        return p

    p = solver_parser("solve", "engine: linkage in Q_d")
    p.add_argument("--avoid", help="comma-separated forbidden vertices")
    p.set_defaults(func=_cmd_solve)

    p = solver_parser("strong-solve", "engine: linkage avoiding one vertex")
    p.add_argument("--avoid", help="the single forbidden vertex")
    p.set_defaults(func=_cmd_strong_solve)

    p = solver_parser("link-solve", "engine: linkage in Q_D minus an opposite pair")
    p.add_argument("--apex", help="the removed vertex v (its opposite goes too; "
                                  "default 0...0)")
    p.set_defaults(func=_cmd_link_solve)

    p = solver_parser("decide", "oracle: exact linked/unlinked decision")
    p.add_argument("--avoid", help="comma-separated forbidden vertices")
    p.add_argument("--apex", help="apex vertex for link hosts")
    p.add_argument("--host", help="cube:D, link:D, or pyramid2-quad")
    p.add_argument("--budget", type=int, help="search node budget")
    p.set_defaults(func=_cmd_decide)

    p = sub.add_parser("verify", parents=[common],
                       help="validate a solve result against its instance")
    p.add_argument("instance", nargs="?",
                   help="result JSON file, or - for stdin (default)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("certify", parents=[common],
                       help="sweep instances and validate every output")
    p.add_argument("--host", required=True, help="cube:D, link:D, or pyramid2-quad")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mode", choices=(EXHAUSTIVE, SAMPLED), default=EXHAUSTIVE)
    p.add_argument("--samples", type=int, default=0)
    p.add_argument("--seed", type=int, help=f"sampled mode only (default {DEFAULT_SEED})")
    p.add_argument("--solver", choices=(ENGINE, ORACLE, BOTH), default=ENGINE)
    p.add_argument("--strong", action="store_true",
                   help="route around a forbidden vertex as well")
    p.add_argument("--workers", type=int)
    p.add_argument("--budget", type=int)
    p.add_argument("--fail-fast", action="store_true")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("suite", parents=[common], help="run a named invariant suite")
    p.add_argument("name", choices=SUITE_NAMES)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--samples", type=int, default=10_000)
    p.set_defaults(func=_cmd_suite)

    p = sub.add_parser("bench", parents=[formatted],
                       help="time engine solves over a sampled batch")
    p.add_argument("--host", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--strong", action="store_true")
    p.set_defaults(func=_cmd_bench)

    return parser


def run(argv: list | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at exit
        return code
    except BrokenPipeError:
        # The reader closed stdout: exit as a filter that SIGPIPE ended
        # would, and point stdout at devnull so that the interpreter's own
        # flush at exit writes nothing.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON at line {exc.lineno} column {exc.colno}: "
              f"{exc.msg}", file=sys.stderr)
        return 2
    except UnsupportedInstanceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.certificate is not None:
            print(_certificate_line(exc.certificate.to_json()), file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        path = _replay_dump(exc)
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        print(f"replay dump: {path}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))
