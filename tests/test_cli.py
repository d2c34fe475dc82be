from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import pytest

import cubelink
from cubelink import cli, linkage_engine
from cubelink.path_oracle import LINKED, DecideOutcome, InvariantError


def invoke(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def invoke_json(capsys, *argv):
    code, out, err = invoke(capsys, *argv)
    return code, json.loads(out), err


def run_subprocess(*argv, stdin=None):
    """Run ``python -m cubelink`` in a fresh interpreter, as a user would."""
    src = os.path.dirname(os.path.dirname(cubelink.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-m", "cubelink", *argv],
        input=stdin, capture_output=True, text=True, env=env, timeout=60)


class TestSolve:
    def test_flags_round_trip_through_verify(self, capsys, tmp_path):
        code, obj, _ = invoke_json(
            capsys, "solve", "--dim", "5", "--pairs", "00000:11111,00001:11110")
        assert code == 0
        assert obj["scenario_trace"][0] == "Q5:projection"
        witness = tmp_path / "witness.json"
        witness.write_text(json.dumps(obj))
        code, verdict, _ = invoke_json(capsys, "verify", str(witness))
        assert code == 0
        assert verdict["ok"] is True

    def test_instance_file_input(self, capsys, tmp_path):
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps({
            "host": {"type": "cube", "d": 5, "forbidden": []},
            "pairs": [["00000", "11111"], ["00011", "11100"]],
        }))
        code, obj, _ = invoke_json(capsys, "solve", str(inst))
        assert code == 0
        assert len(obj["paths"]) == 2

    def test_avoid_flag(self, capsys):
        code, obj, _ = invoke_json(
            capsys, "solve", "--dim", "5",
            "--pairs", "00000:11111,00011:11100", "--avoid", "00111")
        assert code == 0
        assert all("00111" not in p for p in obj["paths"])

    def test_text_format(self, capsys):
        code, out, _ = invoke(capsys, "solve", "--dim", "5",
                              "--pairs", "00000:11111", "--format", "text")
        assert code == 0
        assert out == "trace: Q5:trivial_pair\n00000 00001 00011 00111 01111 11111\n"

    def test_unsupported_q3_pair_count(self, capsys):
        code, out, err = invoke(capsys, "solve", "--dim", "3",
                                "--pairs", "000:011,001:010")
        assert code == 2
        assert "certificate" in err
        assert "0**" in err

    def test_malformed_pairs_flag(self, capsys):
        code, _, err = invoke(capsys, "solve", "--dim", "3", "--pairs", "0:31")
        assert code == 2
        assert "binary word" in err

    def test_missing_pairs(self, capsys):
        code, _, err = invoke(capsys, "solve", "--dim", "3")
        assert code == 2


class TestStrongAndLink:
    def test_strong_solve(self, capsys):
        code, obj, _ = invoke_json(
            capsys, "strong-solve", "--dim", "5",
            "--pairs", "00000:11111,00011:11100", "--avoid", "00111")
        assert code == 0
        assert obj["host"]["forbidden"] == ["00111"]
        assert obj["scenario_trace"] == ["Q5:projection", "Q4:base"]
        assert all("00111" not in p for p in obj["paths"])

    def test_strong_solve_requires_one_avoid(self, capsys):
        code, _, err = invoke(capsys, "strong-solve", "--dim", "5",
                              "--pairs", "00000:11111,00011:11100")
        assert code == 2
        code, _, err = invoke(
            capsys, "strong-solve", "--dim", "5",
            "--pairs", "00000:11111,00011:11100", "--avoid", "00111,01110")
        assert code == 2

    def test_link_solve(self, capsys):
        code, obj, _ = invoke_json(
            capsys, "link-solve", "--dim", "6", "--apex", "000000",
            "--pairs", "000011:110000,000101:101000,000110:100001")
        assert code == 0
        assert sorted(obj["host"]["forbidden"]) == ["000000", "111111"]
        assert obj["scenario_trace"][0] == "Q6:link_case2"

    def test_link_solve_rejects_apex_terminal(self, capsys):
        code, _, err = invoke(capsys, "link-solve", "--dim", "6", "--apex",
                              "000000", "--pairs", "000000:110000")
        assert code == 2


class TestDecide:
    def test_unlinked_with_certificate(self, capsys):
        code, obj, _ = invoke_json(capsys, "decide", "--dim", "3",
                                   "--pairs", "000:011,001:010")
        assert code == 1
        assert obj["status"] == "unlinked"
        assert obj["certificate"] == {"face": "0**", "witness_terminal": "000"}

    def test_linked(self, capsys):
        code, obj, _ = invoke_json(capsys, "decide", "--dim", "3",
                                   "--pairs", "000:110,011:101")
        assert code == 0
        assert obj["status"] == "linked"
        assert "paths" in obj

    def test_budget_exhaustion(self, capsys):
        code, obj, _ = invoke_json(capsys, "decide", "--dim", "4",
                                   "--pairs", "0000:1111,0001:1110",
                                   "--budget", "3")
        assert code == 3
        assert obj["status"] == "budget_exceeded"

    def test_env_budget_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("LINKAGE_BUDGET", "3")
        code, obj, _ = invoke_json(capsys, "decide", "--dim", "4",
                                   "--pairs", "0000:1111,0001:1110")
        assert code == 3

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("LINKAGE_BUDGET", "3")
        code, obj, _ = invoke_json(capsys, "decide", "--dim", "4",
                                   "--pairs", "0000:1111,0001:1110",
                                   "--budget", "100000")
        assert code == 0

    @pytest.mark.parametrize("flag, env", [("-5", None), (None, "-1")])
    def test_negative_budget_is_a_usage_error(self, capsys, monkeypatch,
                                              flag, env):
        argv = ["decide", "--dim", "4", "--pairs", "0000:1111"]
        if flag is not None:
            argv += ["--budget", flag]
        if env is not None:
            monkeypatch.setenv("LINKAGE_BUDGET", env)
        code, out, err = invoke(capsys, *argv)
        assert code == 2
        assert out == ""
        source = "--budget" if flag is not None else "LINKAGE_BUDGET"
        assert source in err and "must be nonnegative" in err

    def test_link_host_spec(self, capsys):
        code, obj, _ = invoke_json(capsys, "decide", "--host", "link:5",
                                   "--pairs", "00011:01100,00101:11000")
        assert code == 0
        assert obj["status"] == "linked"

    def test_long_witness_path_needs_no_recursion(self, tmp_path):
        # A 1,200-vertex path u0000-...-u1199 plus a hub adjacent to every
        # u and to s and t.  Pair (s, t) needs the hub, so every witness
        # routes pair (u0000, u1199) along the whole path.
        names = [f"u{i:04d}" for i in range(1200)]
        edges = [list(e) for e in zip(names, names[1:])]
        edges += [["hub", v] for v in names + ["s", "t"]]
        instance = tmp_path / "path.json"
        instance.write_text(json.dumps({
            "host": {"type": "graph", "vertices": names + ["hub", "s", "t"],
                     "edges": edges},
            "pairs": [[names[0], names[-1]], ["s", "t"]]}))
        proc = run_subprocess("decide", str(instance))
        assert proc.returncode == 0
        assert "Traceback" not in proc.stderr
        obj = json.loads(proc.stdout)
        assert obj["status"] == "linked"
        assert max(len(p) for p in obj["paths"]) > 1000


class TestVerify:
    def test_rejects_bad_witness(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "host": {"type": "cube", "d": 3, "forbidden": []},
            "pairs": [["000", "011"]],
            "paths": [["000", "011"]],
        }))
        code, obj, _ = invoke_json(capsys, "verify", str(bad))
        assert code == 1
        assert obj["ok"] is False
        assert obj["clause"] == "ADJACENCY"

    def test_stdin_input(self, capsys, monkeypatch, tmp_path):
        import io

        payload = json.dumps({
            "host": {"type": "cube", "d": 3, "forbidden": []},
            "pairs": [["000", "011"]],
            "paths": [["000", "001", "011"]],
        })
        monkeypatch.setattr("sys.stdin", io.StringIO(payload))
        code, obj, _ = invoke_json(capsys, "verify", "-")
        assert code == 0
        assert obj["ok"] is True

    def test_malformed_json_reports_position(self, capsys, tmp_path):
        broken = tmp_path / "broken.json"
        broken.write_text('{"host": }')
        code, _, err = invoke(capsys, "verify", str(broken))
        assert code == 2
        assert "line 1" in err and "column" in err

    @pytest.mark.parametrize("host, pair, path, removed", [
        ({"type": "cube", "d": 3, "forbidden": ["001"]},
         ["000", "011"], ["000", "001", "011"], 1),
        ({"type": "graph", "vertices": ["a", "b", "c", "d"],
          "edges": [["a", "b"], ["b", "c"], ["a", "d"], ["d", "c"]],
          "forbidden": ["b"]},
         ["a", "c"], ["a", "b", "c"], "b"),
    ], ids=["cube", "fixture"])
    def test_path_through_removed_vertex_is_invalid(self, capsys, tmp_path,
                                                     host, pair, path, removed):
        # the witness is wrong, not the input: exit 1 with MEMBERSHIP
        witness = tmp_path / "witness.json"
        witness.write_text(json.dumps({"host": host, "pairs": [pair],
                                       "paths": [path]}))
        code, obj, _ = invoke_json(capsys, "verify", str(witness))
        assert code == 1
        assert (obj["ok"], obj["clause"], obj["witness"]) == (False, "MEMBERSHIP", removed)

    @pytest.mark.parametrize("host, pair, path", [
        ({"type": "cube", "d": 3, "forbidden": ["001"]},
         ["000", "011"], ["000", "0x1", "011"]),
        ({"type": "graph", "vertices": ["a", "b", "c"],
          "edges": [["a", "b"], ["b", "c"]], "forbidden": ["b"]},
         ["a", "c"], ["a", "z", "c"]),
    ], ids=["cube-word", "fixture-name"])
    def test_unknown_path_vertex_is_a_usage_error(self, capsys, tmp_path,
                                                  host, pair, path):
        witness = tmp_path / "witness.json"
        witness.write_text(json.dumps({"host": host, "pairs": [pair],
                                       "paths": [path]}))
        code, out, err = invoke(capsys, "verify", str(witness))
        assert code == 2
        assert out == "" and err.startswith("error: ")


class TestCertifyAndSuite:
    def test_certify_clean(self, capsys):
        code, obj, _ = invoke_json(
            capsys, "certify", "--host", "cube:5", "--k", "2",
            "--mode", "sampled", "--samples", "20", "--solver", "engine")
        assert code == 0
        assert obj["ok"] is True
        assert obj["instances"] == 20

    def test_certify_finds_pyramid_counterexample(self, capsys):
        code, obj, _ = invoke_json(
            capsys, "certify", "--host", "pyramid2-quad", "--k", "2",
            "--solver", "oracle", "--strong")
        assert code == 1
        assert obj["instances"] == 90
        assert len(obj["failures"]) == 2

    def test_certify_budget_exit(self, capsys):
        code, obj, _ = invoke_json(
            capsys, "certify", "--host", "cube:4", "--k", "2",
            "--solver", "oracle", "--budget", "5")
        assert code == 3
        assert obj["failures"] == []
        assert obj["budget_exceeded"] > 0

    def test_certify_text_summary(self, capsys):
        code, out, _ = invoke(
            capsys, "certify", "--host", "cube:3", "--k", "2",
            "--solver", "oracle", "--format", "text")
        assert code == 1
        assert "failures   6" in out

    def test_certify_rejects_bad_job(self, capsys):
        code, _, err = invoke(capsys, "certify", "--host", "cube:3",
                              "--k", "2", "--solver", "engine")
        assert code == 2

    def test_certify_samples_need_sampled_mode(self, capsys):
        code, out, err = invoke(capsys, "certify", "--host", "cube:5", "--k", "3",
                                "--samples", "2")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "--mode sampled" in err
        assert "Traceback" not in err

    def test_certify_seed_needs_sampled_mode(self, capsys):
        for seed in ("1", "2024"):
            code, out, err = invoke(capsys, "certify", "--host", "cube:3", "--k", "1",
                                    "--solver", "oracle", "--seed", seed)
            assert code == 2
            assert out == ""
            assert err.startswith("error: ") and "--mode sampled" in err
            assert "Traceback" not in err

    def test_certify_sampled_seed_defaults(self, capsys):
        args = ("certify", "--host", "cube:5", "--k", "3", "--mode", "sampled",
                "--samples", "20", "--format", "text")
        code, default, _ = invoke(capsys, *args)
        assert code == 0
        assert "seed=2024" in default
        assert invoke(capsys, *args, "--seed", "2024")[1] == default
        code, other, _ = invoke(capsys, *args, "--seed", "9")
        assert code == 0 and "seed=9" in other

    def test_certify_q3_range_message(self, capsys):
        code, out, err = invoke(capsys, "certify", "--host", "cube:3",
                                "--k", "3", "--solver", "engine")
        assert code == 2
        assert out == ""
        assert err == "error: Q3 supports k <= 1 pairs, got k = 3\n"

    def test_suite(self, capsys):
        code, obj, _ = invoke_json(capsys, "suite", "shared_neighbors")
        assert code == 0
        assert obj["ok"] is True

    def test_suite_unknown_name(self, capsys):
        code, _, err = invoke(capsys, "suite", "nonexistent")
        assert code == 2

    def test_bench(self, capsys):
        code, obj, _ = invoke_json(capsys, "bench", "--host", "cube:5",
                                   "--k", "3", "--samples", "5")
        assert code == 0
        assert set(obj) >= {"p50_ms", "p90_ms", "p99_ms", "max_ms", "total_s"}
        assert set(obj["machine"]) == {"cpus", "python", "platform"}

    def test_bench_rejects_strong_on_a_link_host(self, capsys):
        code, out, err = invoke(capsys, "bench", "--host", "link:6", "--k", "3",
                                "--samples", "3", "--strong")
        assert code == 2
        assert out == ""
        assert "strong does not apply" in err

    def test_bench_names_its_family(self, capsys):
        for extra, strong in (((), False), (("--strong",), True)):
            code, obj, _ = invoke_json(capsys, "bench", "--host", "cube:6",
                                       "--k", "3", "--samples", "2", *extra)
            assert code == 0
            assert obj["strong"] is strong

    def test_bench_has_no_timing_flag(self, capsys):
        # every field but the instance's own is timing, so there is nothing
        # for --timing to switch on
        code, out, err = invoke(capsys, "bench", "--host", "cube:5", "--k", "3",
                                "--samples", "2", "--timing")
        assert code == 2
        assert out == ""
        assert "unrecognized arguments: --timing" in err
        code, _, _ = invoke(capsys, "bench", "--host", "cube:5", "--k", "3",
                            "--samples", "2", "--format", "text")
        assert code == 0

    def test_suite_needs_a_positive_sample_count(self, capsys):
        for name, samples in (("separator_structure", "-3"),
                              ("omega_conditions", "0")):
            code, out, err = invoke(capsys, "suite", name, "--samples", samples)
            assert code == 2
            assert out == ""
            assert f"suites need a positive sample count, got {samples}" in err

    def test_bench_warms_up_on_the_first_instance(self, capsys, monkeypatch):
        solved = []

        def engine_solve(inst):
            solved.append(inst.index)

        monkeypatch.setattr(cli, "engine_solve", engine_solve)
        code, obj, _ = invoke_json(capsys, "bench", "--host", "cube:5",
                                   "--k", "3", "--samples", "4")
        assert code == 0
        assert solved == [0, 0, 1, 2, 3]
        assert obj["samples"] == 4


class TestOutputStability:
    def test_json_runs_are_byte_identical(self, capsys):
        argv = ("solve", "--dim", "6",
                "--pairs", "000000:111111,000011:111100,000101:111010")
        _, out1, _ = invoke(capsys, *argv)
        _, out2, _ = invoke(capsys, *argv)
        assert out1 == out2

    def test_timing_only_with_flag(self, capsys):
        _, plain, _ = invoke_json(capsys, "certify", "--host", "cube:3",
                                  "--k", "1", "--solver", "engine")
        _, timed, _ = invoke_json(capsys, "certify", "--host", "cube:3",
                                  "--k", "1", "--solver", "engine", "--timing")
        assert "wall_time_s" not in plain
        assert "wall_time_s" in timed

    def test_keys_are_sorted(self, capsys):
        _, out, _ = invoke(capsys, "decide", "--dim", "3",
                           "--pairs", "000:111,001:110")
        obj = json.loads(out)
        assert list(obj) == sorted(obj)


class TestStartup:
    def test_import_leaves_multiprocessing_out(self):
        # multiprocessing costs every command a start-up import; only
        # certify with workers > 1 may load it
        src = os.path.dirname(os.path.dirname(cubelink.__file__))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, cubelink, cubelink.cli; "
             "print('multiprocessing' in sys.modules)"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
            timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


_CUBE5_FILE = {"host":{"type": "cube", "d": 5, "forbidden": ["00111"]},
               "pairs": [["00000", "11111"], ["00011", "11100"]]}
_LINK6_FILE = {"host": {"type": "cube", "d": 6, "forbidden": ["000000", "111111"]},
               "pairs": [["000011", "110000"], ["000101", "101000"],
                         ["000110", "100001"]]}
_LINK6_PAIRS = "000011:110000,000101:101000,000110:100001"


class TestStdoutPins:
    """Exit code and stdout of a fixed set of invocations, recorded before
    the commands shared one input reader."""

    @pytest.mark.parametrize("argv, digest", [
        (("solve", "--dim", "5", "--pairs", "00000:11111,00011:11100",
          "--avoid", "00111"),
         "5c6b02e0f034562705866387c607a6faa3dae3afd791e77ff26d0126feac3d13"),
        (("solve", "@cube5"),
         "5c6b02e0f034562705866387c607a6faa3dae3afd791e77ff26d0126feac3d13"),
        (("solve", "@cube5", "--format", "text"),
         "2ca10e60253a06d9e36756b9be88b19be7d41865872eeef6d5c59bc433c70727"),
        (("strong-solve", "--dim", "5", "--pairs", "00000:11111,00011:11100",
          "--avoid", "00111"),
         "5c6b02e0f034562705866387c607a6faa3dae3afd791e77ff26d0126feac3d13"),
        (("strong-solve", "@cube5"),
         "5c6b02e0f034562705866387c607a6faa3dae3afd791e77ff26d0126feac3d13"),
        (("link-solve", "--dim", "6", "--apex", "000000", "--pairs", _LINK6_PAIRS),
         "d144a5f2f2721d92e0f8a48bd85c8c692c7689aa51b13db7763e2d75b5e2f8b5"),
        (("link-solve", "--dim", "6", "--apex", "111111", "--pairs", _LINK6_PAIRS),
         "3bdb2dfd2acb6ee7a4b2d73b34ed62457a28726c361ba646728f528fbeaae50c"),
        (("link-solve", "@link6"),
         "d144a5f2f2721d92e0f8a48bd85c8c692c7689aa51b13db7763e2d75b5e2f8b5"),
        (("decide", "--dim", "4", "--pairs", "0000:1111,0001:1110",
          "--avoid", "0011"),
         "03c8390e151385dd2c5d16a0d31952c6662f5f806f21cc41352c53ca413f90a2"),
        (("decide", "--dim", "3", "--pairs", "000:011,001:010"),
         "f74864df37e4bbc53b5042da59697d9b3c4d7478a477fb27222bfa921407a643"),
        (("decide", "--dim", "3", "--pairs", "000:011,001:010", "--format", "text"),
         "adeb906aee6e830f36f7de13ffd683c2975d085004e5893916091db78cc2f6da"),
        (("decide", "--host", "link:5", "--pairs", "00011:01100,00101:11000"),
         "d3bc7ee7cbb1aa834efc1efdc90552027d69d6ccd3d179fe7f34b1050c0bb0ae"),
        (("decide", "--host", "link:5", "--apex", "00100",
          "--pairs", "00011:01100,00101:11000"),
         "b85a83b2eb5630849acc1e200a23ca3cca2c9314c33e5c5722c0a8b8acd69918"),
        (("decide", "--host", "pyramid2-quad", "--pairs", "s1:t1,s2:t2",
          "--avoid", "x"),
         "dacd133c1643bf731ac29c434a2816df20221a8117efabe92fd2b1b4fd4db979"),
        (("decide", "@cube5", "--format", "text"),
         "57da8b2c8caccab43c57beaf4b18aaf4b0d7c75e1fdd0cb11953b290a48706fe"),
        (("certify", "--host", "cube:5", "--k", "3", "--mode", "sampled",
          "--samples", "20"),
         "83f74030420b4b9e79be8a696d79ac3fc24363b1dbd05a503d01b41a26dd183d"),
        (("certify", "--host", "link:6", "--k", "3", "--mode", "sampled",
          "--samples", "20", "--seed", "7"),
         "c1a363bd444b4ae3628e74142aeda6340625da41476b0a0f64f8e8192946e5cb"),
        (("certify", "--host", "pyramid2-quad", "--k", "2", "--mode", "sampled",
          "--samples", "30", "--solver", "oracle", "--strong"),
         "e50d4326ce72bd0ba5fffd07579b1f0d5a1518f93c098502de0b62c2211e0635"),
    ], ids=lambda v: " ".join(v) if isinstance(v, tuple) else "")
    def test_stdout_matches_pinned_digest(self, capsys, tmp_path, argv, digest):
        files = {"@cube5": _CUBE5_FILE, "@link6": _LINK6_FILE}
        args = []
        for arg in argv:
            if arg in files:
                path = tmp_path / f"{arg[1:]}.json"
                path.write_text(json.dumps(files[arg]))
                arg = str(path)
            args.append(arg)
        code, out, _ = invoke(capsys, *args)
        text = f"{code}\n{out}"
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestInputReader:
    """solve, strong-solve, link-solve and decide share one input reader."""

    def test_decide_avoids_on_a_link_host(self, capsys):
        code, obj, _ = invoke_json(capsys, "decide", "--host", "link:5",
                                   "--avoid", "00001",
                                   "--pairs", "00011:11000,00101:10100")
        assert code == 0
        assert obj["host"]["forbidden"] == ["00000", "00001", "11111"]
        assert all("00001" not in path for path in obj["paths"])

    @pytest.mark.parametrize("host, argv", [
        ("cube:5", ("--host", "cube:5", "--apex", "00001", "--pairs", "00011:11000")),
        ("cube:5", ("--dim", "5", "--apex", "00001", "--pairs", "00011:11000")),
        ("pyramid2-quad", ("--host", "pyramid2-quad", "--apex", "x",
                           "--pairs", "s1:t1")),
    ])
    def test_decide_apex_needs_a_link_host(self, capsys, host, argv):
        code, out, err = invoke(capsys, "decide", *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: --apex needs a link host, got {host}\n"

    def test_decide_dim_and_host_conflict(self, capsys):
        code, out, err = invoke(capsys, "decide", "--host", "cube:5", "--dim", "3",
                                "--pairs", "00011:11000")
        assert code == 2
        assert out == ""
        assert err == "error: --dim and --host both name the host; give one\n"

    def test_removed_terminal_is_a_usage_error(self, capsys):
        for argv in (("solve", "--dim", "5", "--pairs", "00000:11111",
                      "--avoid", "00000"),
                     ("link-solve", "--dim", "6", "--apex", "000000",
                      "--pairs", "000000:110000")):
            code, out, err = invoke(capsys, *argv)
            assert code == 2
            assert out == ""
            assert err.startswith("error: vertex ") and "removed from this host" in err

    def test_strong_solve_flag_errors(self, capsys):
        for avoid in ((), ("--avoid", "00111,01110")):
            code, out, err = invoke(capsys, "strong-solve", "--dim", "5",
                                    "--pairs", "00000:11111,00011:11100", *avoid)
            assert code == 2
            assert out == ""
            assert err == ("error: strong-solve expects a cube host with one "
                           "forbidden vertex\n")

    def test_link_solve_apex_defaults_to_zero(self, capsys):
        argv = ("link-solve", "--dim", "6", "--pairs", _LINK6_PAIRS)
        code, default, _ = invoke(capsys, *argv)
        assert code == 0
        assert invoke(capsys, *argv, "--apex", "000000")[1] == default

    def test_link_solve_apex_picks_a_removed_vertex_of_a_file(self, capsys, tmp_path):
        path = tmp_path / "link6.json"
        path.write_text(json.dumps(_LINK6_FILE))
        code, out, _ = invoke(capsys, "link-solve", str(path), "--apex", "111111")
        assert code == 0
        flags = invoke(capsys, "link-solve", "--dim", "6", "--apex", "111111",
                       "--pairs", _LINK6_PAIRS)
        assert (code, out) == flags[:2]
        code, _, err = invoke(capsys, "link-solve", str(path), "--apex", "000001")
        assert code == 2
        assert err == "error: --apex must be one of the removed vertices\n"

    @pytest.mark.parametrize("argv, message", [
        (("--host", "cube:3", "--k", "5", "--solver", "oracle"),
         "cube:3 has 8 vertices, too few for 2k = 10 terminals"),
        (("--host", "pyramid2-quad", "--k", "3", "--solver", "oracle", "--strong"),
         "pyramid2-quad has 6 vertices, too few for 2k = 6 terminals plus 1 removed"),
    ])
    def test_certify_rejects_an_empty_instance_space(self, capsys, argv, message):
        for mode in ((), ("--mode", "sampled", "--samples", "3")):
            code, out, err = invoke(capsys, "certify", *argv, *mode)
            assert code == 2
            assert out == ""
            assert err == f"error: {message}\n"


class TestFailureHandling:
    def test_invariant_error_writes_replay_dump(self, capsys, monkeypatch,
                                                tmp_path):
        def boom(*args, **kwargs):
            raise InvariantError("planted failure", {"detail": 7})

        monkeypatch.setattr(cli, "solve_avoiding", boom)
        code, out, err = invoke(capsys, "solve", "--dim", "5",
                                "--pairs", "00000:11111")
        assert code == 3
        assert "replay dump" in err
        path = err.split("replay dump:", 1)[1].strip()
        dump = json.loads(open(path).read())
        assert dump["error"] == "planted failure"
        assert dump["context"] == {"detail": 7}

    def test_engine_face_fault_is_internal(self, capsys, monkeypatch):
        # a sub-instance leaving its face is the engine's own fault: exit 3
        # with a replay dump, not a usage error
        real = linkage_engine._in_facet

        def astray(free, b, v, pairs, avoid, trace):
            # terminal 63 is handed over as 127, so its projection is 126
            moved = [tuple(x ^ (1 << 6) if x == 63 else x for x in p) for p in pairs]
            return real(free, b, v, moved, avoid, trace)

        monkeypatch.setattr(linkage_engine, "_in_facet", astray)
        code, _, err = invoke(capsys, "solve", "--dim", "6",
                              "--pairs", "000000:111111,000011:111100")
        assert code == 3
        path = err.split("replay dump:", 1)[1].strip()
        with open(path) as fh:
            dump = json.load(fh)
        os.remove(path)
        assert dump["error"] == "recursive instance leaves its face"
        assert dump["context"]["free"] == 0b111110
        assert dump["context"]["vertex"] == 126
        # the failing level and the labels emitted before it
        assert dump["context"]["level"]["free"] == 0b111110
        assert dump["context"]["level"]["trace"] == ["Q6:projection"]

    @pytest.mark.parametrize("argv", [
        ("solve", "--dim", "9", "--pairs",
         "011110011:010000101,101111010:111100101,"
         "001000011:000001101,111100000:100001001"),
        ("strong-solve", "--dim", "7", "--avoid", "0101000",
         "--pairs", "1000001:1011011,0000111:1110111,0111111:0001101"),
        ("link-solve", "--dim", "7",
         "--pairs", "0000001:0001111,0110000:1010101,0000011:1100011"),
    ], ids=["solve", "strong-solve", "link-solve"])
    def test_invalid_engine_linkage_is_internal(self, capsys, monkeypatch, argv):
        # the Q4 base drops the second vertex of its first path; with the
        # engine's own self-check off, as a user runs it, the command must
        # still not print that linkage
        monkeypatch.setattr(linkage_engine, "SELF_CHECK", False)
        real = linkage_engine._base
        hits = []

        def dropped(free, pairs, avoid):
            first, *rest = real(free, pairs, avoid)
            hits.append(first)
            return [first[:1] + first[2:]] + rest

        monkeypatch.setattr(linkage_engine, "_base", dropped)
        code, out, err = invoke(capsys, *argv)
        assert hits
        assert (code, out) == (3, "")
        assert "returned an invalid linkage" in err
        path = err.split("replay dump:", 1)[1].strip()
        with open(path) as fh:
            dump = json.load(fh)
        os.remove(path)
        context = dump["context"]
        assert context["host"]["type"] == "cube"
        assert context["host"]["d"] == int(argv[2])
        assert context["pairs"] == [p.split(":") for p in argv[-1].split(",")]
        assert context["clause"] in ("ENDPOINTS", "ADJACENCY")

    def test_invalid_oracle_witness_is_internal(self, capsys, monkeypatch):
        def skipping(G, Y, budget):
            (s, t), = Y.pairs
            return DecideOutcome(LINKED, [[s, t]], (0,), 1)

        monkeypatch.setattr(cli, "decide_linked", skipping)
        code, out, err = invoke(capsys, "decide", "--dim", "3", "--pairs", "000:011")
        assert (code, out) == (3, "")
        path = err.split("replay dump:", 1)[1].strip()
        with open(path) as fh:
            dump = json.load(fh)
        os.remove(path)
        assert dump["context"]["clause"] == "ADJACENCY"
        assert dump["context"]["pairs"] == [["000", "011"]]

    def test_unknown_command(self, capsys):
        code, _, err = invoke(capsys, "frobnicate")
        assert code == 2

    def test_missing_file(self, capsys):
        code, _, err = invoke(capsys, "verify", "/nonexistent/file.json")
        assert code == 2

    @pytest.mark.parametrize("command, payload", [
        ("solve", {"host": {"type": "cube", "d": "5"},
                   "pairs": [["00000", "11111"]]}),
        ("solve", {"host": {"type": "cube", "d": 5}, "pairs": [[0, 31]]}),
        ("solve", {"host": {"type": "cube", "d": 5, "forbidden": [7]},
                   "pairs": [["00000", "11111"]]}),
        ("verify", {"host": {"type": "cube", "d": "3"},
                    "pairs": [["000", "011"]], "paths": [["000", "001", "011"]]}),
        ("verify", {"host": {"type": "cube", "d": 3},
                    "pairs": [["000", "011"]], "paths": [[0, 1, 3]]}),
        ("solve", {"host": {"type": "cube", "d": 5}, "pairs": 5}),
        ("solve", {"host": {"type": "cube", "d": 5}, "pairs": [5]}),
        ("verify", {"host": {"type": "cube", "d": 3},
                    "pairs": [["000", "011"]], "paths": 5}),
        ("verify", {"host": {"type": "cube", "d": 3},
                    "pairs": [["000", "011"]], "paths": [5]}),
        ("verify", {"host": {"type": "graph", "vertices": ["a", "b"],
                             "edges": [["a", "b"]]},
                    "pairs": [[["a"], "b"]], "paths": [["a", "b"]]}),
        ("verify", {"host": {"type": "graph", "vertices": [["a"], "b"],
                             "edges": []},
                    "pairs": [["a", "b"]], "paths": [["a", "b"]]}),
        ("verify", {"host": {"type": "graph", "vertices": [],
                             "edges": [[["a"], "b"]]},
                    "pairs": [["a", "b"]], "paths": [["a", "b"]]}),
        ("verify", {"host": {"type": "graph", "vertices": ["a", "b"],
                             "edges": [["a", "b"]]},
                    "pairs": [["a", "b"]], "paths": [[["a"], "b"]]}),
    ], ids=["solve-str-dim", "solve-int-vertices", "solve-int-forbidden",
            "verify-str-dim", "verify-int-path", "solve-int-pairs",
            "solve-int-pair", "verify-int-paths", "verify-int-path-item",
            "verify-graph-list-pair-vertex", "verify-graph-list-vertex",
            "verify-graph-list-edge-vertex", "verify-graph-list-path-vertex"])
    def test_mistyped_json_is_a_usage_error(self, command, payload):
        proc = run_subprocess(command, "-", stdin=json.dumps(payload))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")

    @pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
    def test_closed_stdout_pipe_exits_141_quietly(self, unbuffered):
        # The reader's end is closed before the command writes, so the write
        # fails with EPIPE; with a buffered stdout it fails on the flush.
        src = os.path.dirname(os.path.dirname(cubelink.__file__))
        env = dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED=unbuffered)
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "cubelink", "solve", "--dim", "12",
                 "--pairs", "000000000000:111111111111"],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
                timeout=60)
        finally:
            os.close(write_end)
        assert proc.returncode == 141
        assert proc.stderr == ""
