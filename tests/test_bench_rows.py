"""tools/bench_rows.py on canned harness output: the harness never runs here."""

import ast
import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_rows.py"
spec = importlib.util.spec_from_file_location("bench_rows", TOOL)
bench_rows = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_rows)

RECORD = {
    "workload": "analyze_obstructed", "seed": 1, "seconds": 15.0, "trace": 0,
    "backend": "python", "compiled_available": False, "python": "3.11.7", "nproc": 2,
    "git_sha": "c2082ad4240232de6b45d10482621e0b63fc966b", "source_digest": "6a842ce981e53d6a",
    "attempted": 101, "failed": 0, "failed_share": 0.0, "documented_size_failures": [],
    "failures": [], "run_wall_s": 20.5, "latency_samples": 100, "loop_s": 15.0,
    "as_measured": {"setup_s": 1.45, "op_p50_s": 0.00023, "op_p90_s": 0.00035,
                    "families_per_s": 3617.4, "sets_per_s": 59326.9, "peak_rss_mb": 24.3},
    "calibration_loads": 40,
}
METRICS = {"setup_s": 1.58, "op_p50_s": 0.00021, "op_p90_s": 0.00031,
           "families_per_s": 4044.3, "sets_per_s": 66329.2, "peak_rss_mb": 24.3}
UNITS = {"setup_s": "s", "op_p50_s": "s", "op_p90_s": "s", "families_per_s": "1/s",
         "sets_per_s": "1/s", "peak_rss_mb": "MB"}
BYTECODE = {"dont_write_bytecode": True, "pycache": False}


def harness_output(correct=True, failed=0):
    """The stdout of one ``perfbench/run.py --workload W`` run, as it prints it."""
    result = {"correct": correct, "attempted": 101, "failed": failed,
              "metrics": {n: {"value": v, "unit": UNITS[n]} for n, v in METRICS.items()}}
    lines = ["record " + json.dumps(RECORD)]
    lines += [f"  {n:<38} {v:>16.6f} {UNITS[n]}" for n, v in METRICS.items()]
    lines += [f"  {'op latency samples':<38} {100:>9d}",
              f"  {'failed_share':<38} {failed / 101:>16.6f} ({failed} of 101 ops)",
              json.dumps(result)]
    return "\n".join(lines) + "\n"


def test_parse_reads_the_record_and_the_result():
    record, result = bench_rows.parse(harness_output())
    assert record == RECORD
    assert (result["correct"], result["failed"]) == (True, 0)
    assert {n: m["value"] for n, m in result["metrics"].items()} == METRICS


def test_row_holds_what_identifies_the_run():
    assert bench_rows.row(*bench_rows.parse(harness_output()), BYTECODE) == {
        "git_sha": RECORD["git_sha"], "python": "3.11.7", "nproc": 2,
        "source_digest": "6a842ce981e53d6a", "seed": 1, "seconds": 15.0,
        "metrics": METRICS, "as_measured": RECORD["as_measured"], "bytecode": BYTECODE,
    }


@pytest.mark.parametrize("correct,failed", [(False, 0), (True, 1), (False, 3)])
def test_wrong_outputs_or_failed_ops_are_refused(correct, failed):
    with pytest.raises(bench_rows.Refused):
        bench_rows.row(*bench_rows.parse(harness_output(correct, failed)), BYTECODE)


@pytest.mark.parametrize("stdout", [
    "",
    "analyze_hall:\n  no result (exit 1): boom\n",
    harness_output().replace("record ", "", 1),
    harness_output() + harness_output(),
    harness_output().rstrip("\n") + "}\n",
])
def test_unreadable_output_is_refused(stdout):
    with pytest.raises(bench_rows.Refused):
        bench_rows.parse(stdout)


def run_main(monkeypatch, tmp_path, stdout, returncode=0, status="", status_code=0):
    # `status` is what `git status --porcelain` prints for src/ and
    # perfbench/; every other call is the harness
    calls = []

    def fake_run(argv, **kwargs):
        calls.append(argv)
        if argv[0] == "git":
            return subprocess.CompletedProcess(argv, status_code, status, "not a git repository")
        return subprocess.CompletedProcess(argv, returncode, stdout, "")

    monkeypatch.setattr(bench_rows.subprocess, "run", fake_run)
    monkeypatch.setattr(bench_rows, "ROOT", tmp_path)
    rc = bench_rows.main(["--workload", "analyze_obstructed", "--seed", "1"])
    return rc, calls


def test_main_appends_one_row_per_run(monkeypatch, tmp_path):
    for n in (1, 2):
        rc, calls = run_main(monkeypatch, tmp_path, harness_output())
        assert rc == 0
        rows = json.loads((tmp_path / "BENCH_analyze_obstructed.json").read_text())
        assert len(rows) == n and rows[-1]["metrics"] == METRICS
    git, argv = calls
    assert git == ["git", "status", "--porcelain", "--untracked-files=all", "--",
                   "src", "perfbench"]
    assert argv[-6:] == ["--workload", "analyze_obstructed", "--seed", "1", "--seconds", "15"]
    assert argv[-7].endswith("run.py")


@pytest.mark.parametrize("stdout,returncode", [
    (harness_output(correct=False, failed=1), 1),
    (harness_output(), 1),
    ("", 2),
])
def test_main_writes_no_row_for_a_refused_run(monkeypatch, tmp_path, stdout, returncode):
    rc, _ = run_main(monkeypatch, tmp_path, stdout, returncode)
    assert rc == 1
    assert not (tmp_path / "BENCH_analyze_obstructed.json").exists()


@pytest.mark.parametrize("status,named", [
    (" M src/eulerhall/ring.py\n", "src/eulerhall/ring.py"),
    ("M  perfbench/run.py\n", "perfbench/run.py"),
    ("?? src/eulerhall/new.py\n?? perfbench/extra.py\n",
     "src/eulerhall/new.py, perfbench/extra.py"),
    ("", "git status failed: not a git repository"),
], ids=["edited", "staged", "untracked", "no_git"])
def test_main_refuses_sources_that_differ_from_head(monkeypatch, tmp_path, capsys, status,
                                                     named):
    # the harness never runs, and the rows already written stay byte for byte
    path = tmp_path / "BENCH_analyze_obstructed.json"
    path.write_text(json.dumps([{"git_sha": "c2082ad"}], indent=2) + "\n")
    before = path.read_bytes()
    rc, calls = run_main(monkeypatch, tmp_path, harness_output(), status=status,
                         status_code=0 if status else 128)
    assert rc == 1
    assert [argv[0] for argv in calls] == ["git"]
    assert path.read_bytes() == before
    assert named in capsys.readouterr().err


def test_tool_does_not_import_the_package():
    # the harness imports eulerhall from src/ in its own process; the tool
    # must not load a second copy into its own
    tree = ast.parse(TOOL.read_text(encoding="utf-8"))
    imported = {alias.name.split(".")[0] for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module.split(".")[0] for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module}
    assert "eulerhall" not in imported and "perfbench" not in imported
