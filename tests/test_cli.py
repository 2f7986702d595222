"""CLI contract: reports, exit codes, determinism."""

import json
import subprocess
import sys
from pathlib import Path

from eulerhall import ring, selftest
from eulerhall.cli import main

FIXTURES = Path(__file__).parent / "fixtures"


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_proc(*argv):
    return subprocess.run(
        [sys.executable, "-m", "eulerhall", *argv],
        capture_output=True,
        text=True,
    )


class TestAnalyze:
    def test_obstructed_family(self, capsys):
        code, out, _ = run_main(capsys, "analyze", str(FIXTURES / "family_obstructed.json"))
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "not_subordinate"
        assert report["matching"] == [1, 2]
        assert report["euler_class"] == "x1*x2"
        assert report["hall"] is True
        assert report["witness"] is None and report["violation"] is None

    def test_subordinate_family(self, capsys):
        code, out, _ = run_main(capsys, "analyze", str(FIXTURES / "family_subordinate.json"))
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "subordinate"
        assert report["witness"] == 1
        assert report["euler_nonzero"] is False
        assert report["matching"] is None
        assert report["violation"] == [0, 1]

    def test_empty_family(self, capsys):
        code, out, _ = run_main(capsys, "analyze", str(FIXTURES / "family_empty.json"))
        assert code == 0
        report = json.loads(out)
        assert report["euler_class"] == "1"
        assert report["hall"] is True
        assert report["matching"] == []

    def test_text_mode(self, capsys):
        code, out, _ = run_main(
            capsys, "analyze", str(FIXTURES / "family_obstructed.json"), "--text"
        )
        assert code == 0
        assert "verdict: not_subordinate" in out
        assert "euler_class: x1*x2" in out

    def test_rejects_trivial_lines(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        path.write_text('{"sets": [[1]], "trivial_lines": 1}')
        code, _, err = run_main(capsys, "analyze", str(path))
        assert code == 1 and "trivial_lines" in err

    def test_malformed_json_names_problem(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        path.write_text('{"sets": [[1], [0]]}')
        code, _, err = run_main(capsys, "analyze", str(path))
        assert code == 1 and "sets[1]" in err

    def test_missing_file(self, capsys):
        code, _, err = run_main(capsys, "analyze", "/nonexistent/family.json")
        assert code == 1 and "cannot read" in err

    def test_one_pass_per_kernel(self, monkeypatch, capsys):
        # analyze expands the Euler product once and runs one matching,
        # from which both the SDR and the Hall violator are read
        from eulerhall import _kernels

        calls = {"euler_terms": 0, "max_matching": 0}
        for name in calls:
            def counting(*args, _kernel=getattr(_kernels, name), _name=name):
                calls[_name] += 1
                return _kernel(*args)

            monkeypatch.setattr(_kernels, name, counting)
        fixtures = sorted(FIXTURES.glob("*.json"))
        assert fixtures
        for path in fixtures:
            for name in calls:
                calls[name] = 0
            code, _, _ = run_main(capsys, "analyze", str(path))
            assert code == 0
            assert calls == {"euler_terms": 1, "max_matching": 1}, path.name


class TestEuler:
    def test_trivial_line_zeroes_class(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        path.write_text('{"sets": [[1]], "trivial_lines": 1}')
        code, out, _ = run_main(capsys, "euler", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["euler_class"] == "0" and report["euler_nonzero"] is False

    def test_repeated_pair(self, capsys):
        code, out, _ = run_main(capsys, "euler", str(FIXTURES / "family_repeated_pair.json"))
        assert code == 0
        assert json.loads(out)["euler_class"] == "2*x1*x2"


class TestSweep:
    def test_degenerate(self, capsys):
        code, out, _ = run_main(capsys, "sweep", "--max-m", "1", "--max-atom", "1")
        report = json.loads(out)
        assert code == 0 and report["families"] == 1 and report["mismatches"] == 0

    def test_counts_two_three(self, capsys):
        code, out, _ = run_main(capsys, "sweep", "--max-m", "2", "--max-atom", "3")
        report = json.loads(out)
        assert code == 0 and report["families"] == 56 and report["ok"] is True

    def test_cap_requires_force(self, capsys):
        code, _, err = run_main(capsys, "sweep", "--max-m", "5")
        assert code == 1 and "--force" in err

    def test_jobs_flag(self, capsys):
        code, out, _ = run_main(capsys, "sweep", "--max-m", "2", "--max-atom", "3",
                                "--jobs", "2")
        assert code == 0 and json.loads(out)["families"] == 56

    def test_jobs_below_one_rejected(self, capsys):
        for jobs in ("0", "-3"):
            code, out, err = run_main(capsys, "sweep", "--max-m", "1", "--max-atom", "1",
                                      "--jobs", jobs)
            assert code == 1 and out == "" and "jobs" in err

    def test_workers_bounded_by_cpus(self, monkeypatch, capsys):
        # a stand-in pool runs the chunks in this process and records how
        # many workers were asked for; no real process is started
        from eulerhall import sweep

        requested = []

        class RecordingPool:
            def __init__(self, max_workers):
                requested.append(max_workers)
                assert max_workers <= 3  # fail before running thousands of chunks

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, chunks):
                return map(fn, chunks)

        monkeypatch.setattr(sweep, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(sweep.os, "cpu_count", lambda: 3)
        code, out, _ = run_main(capsys, "sweep", "--force", "--max-m", "1",
                                "--max-atom", "16", "--jobs", "100000")
        assert code == 0 and requested == [3]
        assert json.loads(out)["families"] == 2**16 - 1
        monkeypatch.setattr(sweep.os, "cpu_count", lambda: None)
        code, out, _ = run_main(capsys, "sweep", "--max-m", "2", "--max-atom", "3",
                                "--jobs", "4")
        assert code == 0 and requested == [3]  # one CPU: serial, no pool
        assert json.loads(out)["families"] == 56


class TestDynamics:
    def test_depth_zero(self, capsys):
        code, out, _ = run_main(capsys, "dynamics", "--window", "1", "--depth", "0")
        report = json.loads(out)
        assert code == 0
        assert report["generation_sizes"] == [1]
        assert report["labels"] == [1]
        assert report["prefix_sdr"] == [1]
        assert report["hall_confirmed"] is True

    def test_window_two_depth_three(self, capsys):
        code, out, _ = run_main(capsys, "dynamics", "--window", "2", "--depth", "3")
        report = json.loads(out)
        assert code == 0
        assert report["generation_sizes"] == [1, 5, 25, 125]
        assert report["labeling"] == {"membership": True, "injective": True, "level": True}
        assert report["prefix_sdr_size"] == 156

    def test_window_three_depth_five(self, capsys):
        # inside the documented caps; labels outgrow 64 bits at this depth
        code, out, _ = run_main(capsys, "dynamics", "--window", "3", "--depth", "5")
        report = json.loads(out)
        assert code == 0
        assert report["generation_sizes"] == [7**k for k in range(6)]
        assert report["hall_confirmed"] is True
        assert max(report["labels"]) > 2**63 - 1

    def test_caps(self, capsys):
        code, _, err = run_main(capsys, "dynamics", "--window", "5", "--depth", "1")
        assert code == 1 and "--window" in err
        code, _, err = run_main(capsys, "dynamics", "--window", "1", "--depth", "6")
        assert code == 1 and "--depth" in err

    def test_labeling_failure_exits_two(self, capsys, monkeypatch):
        from eulerhall import cli, dynamics

        broken = dynamics.LabelingReport(
            membership_ok=True,
            injective_ok=False,
            level_ok=True,
            injective_failure="label 9 repeats",
        )
        monkeypatch.setattr(cli.dynamics, "verify_labeling", lambda fam: broken)
        code, out, err = run_main(capsys, "dynamics", "--window", "1", "--depth", "1")
        assert code == 2
        assert "labeling" in err
        assert json.loads(out)["labeling_failures"] == ["label 9 repeats"]


class TestSelftest:
    def test_passes(self, capsys):
        code, out, _ = run_main(capsys, "selftest")
        report = json.loads(out)
        assert code == 0 and report["ok"] is True
        checks = report["checks"]
        assert checks and all(ok is True for ok in checks.values())

    def test_sabotaged_ring_fails(self, monkeypatch):
        # mutation control: a broken product must be caught
        def bad_mul(a, b):
            return ring.add(a, b)

        monkeypatch.setattr(ring, "mul", bad_mul)
        assert selftest.check_ring_axioms(trials=50) is False

    def test_sabotaged_product_rule_fails(self, monkeypatch):
        monkeypatch.setattr(ring, "product_of_generators", lambda seq, n: ring.one())
        assert selftest.check_product_rule(max_n=2) is False


class TestUsageAndDeterminism:
    def test_unknown_command_exits_one(self, capsys):
        assert run_main(capsys, "frobnicate")[0] == 1

    def test_no_command_exits_one(self, capsys):
        assert run_main(capsys)[0] == 1

    def test_jobs_belongs_to_sweep_only(self, capsys):
        fixture = str(FIXTURES / "family_obstructed.json")
        for argv in (("analyze", "--jobs", "2", fixture), ("euler", "--jobs", "2", fixture),
                     ("dynamics", "--jobs", "2"), ("selftest", "--jobs", "2")):
            code, out, err = run_main(capsys, *argv)
            assert code == 1 and out == "" and "--jobs" in err, argv

    def test_repeated_runs_byte_identical(self, capsys):
        first = run_main(capsys, "analyze", str(FIXTURES / "family_obstructed.json"))
        second = run_main(capsys, "analyze", str(FIXTURES / "family_obstructed.json"))
        assert first == second
        s1 = run_main(capsys, "sweep", "--max-m", "2", "--max-atom", "2")
        s2 = run_main(capsys, "sweep", "--max-m", "2", "--max-atom", "2")
        assert s1 == s2

    def test_shared_parser_keeps_no_state(self, capsys):
        # main() reuses one parser; flags of one call must not reach the next
        fixture = str(FIXTURES / "family_obstructed.json")
        code, out, _ = run_main(capsys, "analyze", fixture, "--text")
        assert code == 0 and out.startswith("tool: eulerhall")
        code, out, _ = run_main(capsys, "analyze", fixture)
        assert code == 0 and json.loads(out)["verdict"] == "not_subordinate"
        assert run_main(capsys, "sweep", "--max-m", "9")[0] == 1
        code, out, _ = run_main(capsys, "sweep", "--max-m", "1", "--max-atom", "1")
        assert code == 0 and json.loads(out)["families"] == 1

    def test_round_trip_canonicalizes(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        path.write_text('{"sets": [[2, 1, 2], [3, 3]]}')
        _, out, _ = run_main(capsys, "analyze", str(path))
        family = json.loads(out)["family"]
        assert family == {"sets": [[1, 2], [3]], "trivial_lines": 0}


class TestSubprocessContract:
    def test_analyze_roundtrip(self):
        proc = run_proc("analyze", str(FIXTURES / "family_subordinate.json"))
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["verdict"] == "subordinate"
        assert proc.stderr == ""

    def test_usage_error_exit_code(self):
        proc = run_proc("sweep", "--max-m", "not-a-number")
        assert proc.returncode == 1

    def test_console_output_identical_across_processes(self):
        a = run_proc("dynamics", "--window", "1", "--depth", "2")
        b = run_proc("dynamics", "--window", "1", "--depth", "2")
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout
