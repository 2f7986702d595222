"""CLI contract: reports, exit codes, determinism."""

import contextlib
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from functools import cached_property
from math import comb
from pathlib import Path

import pytest

from eulerhall import BundleFamily, cli, ring, selftest
from eulerhall.cli import _emit, main
from eulerhall.errors import InvalidInput

FIXTURES = Path(__file__).parent / "fixtures"


class _OtherText(str):
    pass


class _VerbatimChild(cli._Verbatim):
    pass


# Size in bytes and sha256 of `dynamics --window W --depth D` stdout
# (default JSON), keyed by (W, D).  The header carries __version__, so a
# version bump changes these bytes and must re-pin them.
DYNAMICS_STDOUT = {
    (1, 0): (327, "9385d5db5bc4f6f0142aa1e3c013c3ebfab8f8239d214a721d821d52c4350dce"),
    (1, 1): (376, "236af872247e2f696c148594c0ab16ff9a298d8116e07ac1a5436938de0d237f"),
    (1, 2): (520, "9a66be11d9c6e93741c650b382bc774ca73d25e9a1f91ce351629794b18d2ba7"),
    (1, 3): (984, "5128a31830c816c940477333ca85830da04002eb805bb2a9a71724c2993f456f"),
    (1, 4): (2605, "7dde8ff82bf5ea5c61c19b1cd592e0516aaf857f7b9d344a8a0c2adc373258b1"),
    (1, 5): (9028, "d7003737c084bfb2f4b9978fc2fc54c7ef24db355808c7efe70e033f5916674d"),
    (2, 0): (327, "f7b7ee058fa204667a842295f11285ca12a43c86c3d05f3b2de5754584ba7f14"),
    (2, 1): (406, "3465cc3628ce566455b62d094732133f01814ac620d487bc1616aef8bc7b6286"),
    (2, 2): (813, "2e942c3d0deeb173035fddf4927d97ff4fa54d2cd61c59698bc755923a329a73"),
    (2, 3): (3117, "f00da22cb002a3ff15a1abaac5bea457da455d8418e08fbe54168988bcb8ec2c"),
    (2, 4): (17616, "f92f4804599eb92e2877f80fae98aa118f239a3d7fe6abc906588c5109ea1ed8"),
    (2, 5): (120337, "00aba90b49fff491609124ab0105873bf20f3d457d0a8b91471220b2df3e2b49"),
    (3, 0): (327, "95aca5df16030d62c613fc0d60edd832df3943ad82ff539d5fefb072258cdaab"),
    (3, 1): (438, "964cee4c7674f0148801a5bbb906c0d7c08ff97aeffa20f783606dfcc7f9e009"),
    (3, 2): (1263, "c2d7b90ab8751116e17c83f3396aeb0ef1f2c3eab74482157c3ba4498f61db3f"),
    (3, 3): (8027, "697ee5851b8cfd4b15e57eabae022ba9d72c3817af68736de69568bb01692d2c"),
    (3, 4): (70284, "e95a2fb807516a9d17f550e91105ce8159ca08518f5353d4d6a4d3471aaee995"),
    (3, 5): (713250, "c34c80135e8a8f85bf8917442c184e01e0f419ada7cde79d17cdcb366ab3ea41"),
    (4, 0): (327, "9b9f73edab62b06ae5293f42d84356ed68943ce0b045b39044269b3966309014"),
    (4, 1): (471, "8cc4ca9db5b768585d45b17871d75979133556a9a6ef254adce3d87d614a3ae9"),
    (4, 2): (1863, "57d71ce7a0a535b3d8884301877d448dd8e26061378bf49c087983865f137a77"),
    (4, 3): (17113, "3ec1384d63f80ab2ecc17d6e9fdf4c481cc6f6badb0a25507d444114ba184471"),
    (4, 4): (202056, "d7ed4c676b06ec18eb249454536aa56b4fd86f6cb942f45c36f91bec63ef211f"),
    (4, 5): (2729080, "5f4486522ad07e0096d6cefd9c076b7723b2d4517809e448ec4afdb5be536fe4"),
    # outside W1-4 at D0-5, within dynamics.DYNAMICS_BUDGET
    (5, 1): (504, "28f03a6c87890749e971efbb1c664dfcf69c8766e8c2fd209a81923628a432e5"),
    (1, 6): (37604, "513a762536fafa7c8b93ad422f722552b22da86778c2be98ed029226c78b49d7"),
    (2, 6): (933649, "d3efcb246b5a7e4cfe7c6ad02e835fe271b656b717f90e6b5afbf0779ed6ec0b"),
    (10, 3): (244234, "7ebfd78e8204724b87f40bb91267b6b44330591fdbd6a44b83276a0f999a6f16"),
    (1, 9): (5246224, "7c2896eba75a5ac04e9898e3886c2469823e3483ac5e40498b8517e78be418dc"),
}

# Size in bytes and sha256 of the stdout of analyze and euler on each
# fixture in both formats, of a 3x3 sweep and of selftest, as the
# stdlib's json.dumps(report, indent=2) wrote them.  The same version
# note applies.
REPORT_STDOUT = {
    ("analyze", "--json", "family_empty.json"): (310, "2b1cc6edb4523c1e37af0b4d0485607b95cc0a075b44e55899a07711e19025c6"),
    ("analyze", "--text", "family_empty.json"): (224, "1e440b25f834a4d17892df708e4c20af78b68f8a632468ae9626779f415e8008"),
    ("euler", "--json", "family_empty.json"): (202, "22ac54ed7194c54a49905100beff6dd6a7140a40b82949c20bfcfa7dfed1ffd7"),
    ("euler", "--text", "family_empty.json"): (143, "780829b839ee39e3f7457dcb4706998452b1d927c19f3e7ed18f7c52a81746c9"),
    ("analyze", "--json", "family_obstructed.json"): (399, "af15f30e9c558377f1bc505ccd6ef4b98346899975dd95a1ad312546eccbb6ed"),
    ("analyze", "--text", "family_obstructed.json"): (243, "52941a2ddcb671487ac962d7f9d4d1f06abbb0aef5d7935c70994cb1121b71d0"),
    ("euler", "--json", "family_obstructed.json"): (275, "289e0753218be13c269e8544a91108303e9317ea1e82cd71ca3b44791bebc0dc"),
    ("euler", "--text", "family_obstructed.json"): (158, "128a77fe98817a9336027e95b9305cebe43bdfbc26fc0642fd8e74e7cf1c727a"),
    ("analyze", "--json", "family_repeated_pair.json"): (412, "967a9003a6a4fadff61de60777a80b0f68b526dca2e550c8345a0e3043e52f70"),
    ("analyze", "--text", "family_repeated_pair.json"): (248, "cd5871a1ac35cbe052fdaeb250456a24c906197dbc7349092b4831842e50aecc"),
    ("euler", "--json", "family_repeated_pair.json"): (288, "183032e678ba948a9718324ad524ddc4dfc6195af9a1b4b883f9e7bddcf61805"),
    ("euler", "--text", "family_repeated_pair.json"): (163, "6d88848bb4586b283d9523a23db4807f3b53586631c010ce24e21a6468939e3f"),
    ("analyze", "--json", "family_subordinate.json"): (382, "c11befe5b03664022c9d03d8cbe33a0ae94e953cd6283ca7a92114968c5f4541"),
    ("analyze", "--text", "family_subordinate.json"): (234, "cc3178760c0e01cf669bc1c49b0c722708c5ae2176ecdd74eb5ad7ce065e6915"),
    ("euler", "--json", "family_subordinate.json"): (264, "4002a19b3c543a2b944c57e148a6d9d0e0c3e9c76bf434b669298b3a497dfc15"),
    ("euler", "--text", "family_subordinate.json"): (155, "9cf824bc6588fb86d36d90815e509da3bbdb471849ae56fa196955c44576ab92"),
    # 18 sets over 19 atoms (three byte tables of columns), every
    # coefficient above 1: a family of the benchmark's analyze_hall pool
    ("analyze", "--json", "family_wide.json"): (2445, "69578f0be86d31f9b2d174fdb3876336648b655f9f489a9aab0e3b1078617ce2"),
    ("analyze", "--text", "family_wide.json"): (1577, "20f5a0503d49adfae7e2ec0b078ceea991ee14edd424d0e9d1dc0db965d1789c"),
    ("euler", "--json", "family_wide.json"): (2198, "c8f5997983d7535cbece89555523474f2426dfe2d8a435d272a627307e0dfe11"),
    ("euler", "--text", "family_wide.json"): (1433, "8876316090177c260a3419ab6b21ae436a8e612ed7c49b62026399d9403c3284"),
    ("sweep", "--max-m", "3", "--max-atom", "3"): (153, "45157724ba18f2622a57c8f7a43f4edc32bbfbf941a67c604615546e727a2c9a"),
    ("selftest",): (265, "9b7bb6de80962246503ece53afed617e56a3ee6a647989adb50902849cd4410a"),
}


# Argvs for the parser dispatch test; "family.json" stands for a fixture.
DISPATCH_ARGVS = [
    ("analyze", "family.json"),
    ("analyze", "family.json", "--json"),
    ("analyze", "--json", "family.json"),
    ("analyze", "family.json", "--text"),
    ("analyze", "--text", "family.json"),
    ("analyze", "--text", "--json", "family.json"),
    ("euler", "family.json", "--text"),
    ("euler", "--text", "family.json"),
    ("euler", "--json", "family.json"),
    ("sweep", "--max-m", "2", "--max-atom", "3", "--jobs", "2"),
    ("sweep", "--jobs", "2", "--max-atom", "3", "--max-m", "2"),
    ("sweep", "--max-m=2", "--text"),
    ("dynamics", "--window", "1", "--depth", "2", "--text"),
    ("dynamics", "--text", "--depth", "2", "--window", "1"),
    ("selftest",),
    ("selftest", "--json"),
    ("analyze", "--jobs", "2", "family.json"),
    ("analyze", "family.json", "--jobs=2"),
    ("analyze", "family.json", "extra"),
    ("selftest", "extra"),
    ("analyze",),
    ("euler", "--text"),
    ("dynamics", "--window", "x"),
    ("frobnicate",),
    ("frobnicate", "family.json"),
    (),
    ("--text", "analyze", "family.json"),
]


def stdout_digest(out):
    data = out.encode()
    return len(data), hashlib.sha256(data).hexdigest()


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

    @pytest.mark.parametrize("fixture, sabotage, message", [
        ("family_repeated_pair.json", lambda col_of: [col_of[0]] * len(col_of),
         "generated labels are not pairwise distinct"),
        ("family_obstructed.json", lambda col_of: col_of[::-1], "label 1 escaped its set [2]"),
    ], ids=["repeated_column", "column_outside_its_row"])
    def test_invalid_sdr_is_a_theorem_violation(self, monkeypatch, capsys, fixture, sabotage,
                                                message):
        # sabotage the matching kernel: the SDR it returns saturates, so
        # the routes agree, and only the certificate check refuses it
        from eulerhall import _kernels

        real = _kernels.max_matching
        monkeypatch.setattr(_kernels, "max_matching",
                            lambda rows, ncols: sabotage(real(rows, ncols)))
        assert run_main(capsys, "analyze", str(FIXTURES / fixture)) == (
            2, "", f"theorem violation: {message}\n")

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

    @pytest.mark.parametrize("doc, message", [
        ('{"sets": [[1, 2], [1, true]]}', "sets[1] contains invalid atom id True"),
        ('{"sets": [[1], [2, 0, 3]]}', "sets[1] contains invalid atom id 0"),
        ('{"sets": [[2], ["3", 1]]}', "sets[1] contains invalid atom id '3'"),
        ('{"sets": [[1, 2.0]], "trivial_lines": 0}', "sets[0] contains invalid atom id 2.0"),
    ], ids=["bool", "zero", "string", "float"])
    def test_invalid_atom_names_it(self, tmp_path, capsys, doc, message):
        path = tmp_path / "f.json"
        path.write_text(doc)
        assert run_main(capsys, "analyze", str(path)) == (1, "", f"error: {message}\n")

    def test_missing_file(self, capsys):
        code, _, err = run_main(capsys, "analyze", "/nonexistent/family.json")
        assert code == 1 and "cannot read" in err

    @pytest.mark.parametrize("command", ["analyze", "euler"])
    def test_not_utf8(self, tmp_path, capsys, command):
        path = tmp_path / "f.json"
        path.write_bytes(b'\xff\xfe{"sets": [[1]]}')
        code, out, err = run_main(capsys, command, str(path))
        assert code == 1 and out == ""
        assert err.startswith(f"error: {path} is not valid JSON: ")

    @pytest.mark.parametrize("command", ["analyze", "euler"])
    def test_nested_past_decoder_limit(self, tmp_path, capsys, command):
        path = tmp_path / "f.json"
        path.write_text("[" * 100_000)
        code, out, err = run_main(capsys, command, str(path))
        assert code == 1 and out == ""
        assert err.startswith(f"error: {path} is not valid JSON: ")

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="the decoder has no int digit limit before Python 3.10.7")
    @pytest.mark.parametrize("command", ["analyze", "euler"])
    def test_integer_past_digit_limit(self, tmp_path, command):
        # the decoder refuses an integer literal longer than
        # sys.get_int_max_str_digits() (4,300 by default) with a ValueError
        path = tmp_path / "f.json"
        path.write_text('{"sets": [[1, ' + "7" * 5000 + "]]}")
        proc = run_proc(command, str(path))
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.startswith(f"error: {path} is not valid JSON: ")
        assert "Traceback" not in proc.stderr

    def test_one_pass_per_kernel(self, monkeypatch, capsys):
        # analyze compresses the family to columns once, expands the Euler
        # product once and runs one matching, from which both the SDR and
        # the Hall violator are read
        from eulerhall import _kernels

        calls = {"columns": 0, "euler_terms": 0, "max_matching": 0}
        for name in ("euler_terms", "max_matching"):
            def counting(*args, _kernel=getattr(_kernels, name), _name=name):
                calls[_name] += 1
                return _kernel(*args)

            monkeypatch.setattr(_kernels, name, counting)

        def compress(f, _columns=BundleFamily.columns.func):
            calls["columns"] += 1
            return _columns(f)

        columns = cached_property(compress)
        columns.__set_name__(BundleFamily, "columns")
        monkeypatch.setattr(BundleFamily, "columns", columns)
        fixtures = sorted(FIXTURES.glob("*.json"))
        assert fixtures
        for path in fixtures:
            for name in calls:
                calls[name] = 0
            code, _, _ = run_main(capsys, "analyze", str(path))
            assert code == 0
            assert calls == {"columns": 1, "euler_terms": 1, "max_matching": 1}, path.name

    def test_class_stays_over_columns(self, monkeypatch, capsys):
        # analyze and euler read the class's bitmasks only; the frozenset
        # view is built for callers of terms alone
        def no_frozensets(self):
            raise AssertionError("frozenset terms built")

        monkeypatch.setattr(ring.RingElement, "terms", property(no_frozensets))
        for path in sorted(FIXTURES.glob("*.json")):
            for command in ("analyze", "euler"):
                assert run_main(capsys, command, str(path))[0] == 0, (command, path.name)


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

    def test_budget_is_the_only_size_rule(self, capsys):
        # 5 sets over 5 atoms lies within the budget and runs with no flag;
        # there is no flag to raise a size rule, so --force is unknown
        code, out, _ = run_main(capsys, "sweep", "--max-m", "5", "--max-atom", "5")
        report = json.loads(out)
        assert code == 0 and report["families"] == sum(31**m for m in range(1, 6))
        assert report["mismatches"] == 0
        code, out, err = run_main(capsys, "sweep", "--force", "--max-m", "2")
        assert code == 1 and out == "" and "unrecognized arguments: --force" in err

    def test_jobs_flag(self, capsys):
        code, out, _ = run_main(capsys, "sweep", "--max-m", "2", "--max-atom", "3",
                                "--jobs", "2")
        assert code == 0 and json.loads(out)["families"] == 56
        # any N >= 1 is accepted and ignored, also at the widest atom cap
        code, out, _ = run_main(capsys, "sweep", "--max-m", "1", "--max-atom", "16",
                                "--jobs", "100000")
        assert code == 0 and json.loads(out)["families"] == 2**16 - 1

    def test_jobs_below_one_rejected(self, capsys):
        for jobs in ("0", "-3"):
            code, out, err = run_main(capsys, "sweep", "--max-m", "1", "--max-atom", "1",
                                      "--jobs", jobs)
            assert code == 1 and out == "" and "jobs" in err

    def test_budget_refuses_before_any_work(self, monkeypatch, capsys):
        from eulerhall import sweep

        def no_work(*args, **kwargs):
            raise AssertionError("a refused sweep must start no work")

        monkeypatch.setattr(sweep._kernels, "sweep_equivalence_range", no_work)
        count = sum(comb(2**16 - 2 + m, m) for m in range(1, 9))
        for jobs in ("1", "2"):
            code, out, err = run_main(capsys, "sweep", "--max-m", "8", "--max-atom", "16",
                                      "--jobs", jobs)
            assert code == 1 and out == ""
            assert str(count) in err and str(sweep.SWEEP_MULTISET_BUDGET) in err
        # the budget admits 6 sets over 5 atoms and refuses 5x6 and 4x7
        assert sweep.multisets_from(6, 5) == 2_324_783 <= sweep.SWEEP_MULTISET_BUDGET
        assert sweep.SWEEP_MULTISET_BUDGET < sweep.multisets_from(5, 6) == 10_424_127
        assert sweep.multisets_from(4, 7) == 11_716_639
        code, _, err = run_main(capsys, "sweep", "--max-m", "5", "--max-atom", "6")
        assert code == 1 and "10424127" in err


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
        # labels outgrow 64 bits at this depth
        code, out, _ = run_main(capsys, "dynamics", "--window", "3", "--depth", "5")
        report = json.loads(out)
        assert code == 0
        assert report["generation_sizes"] == [7**k for k in range(6)]
        assert report["hall_confirmed"] is True
        assert max(report["labels"]) > 2**63 - 1
        assert stdout_digest(out) == DYNAMICS_STDOUT[3, 5]

    @pytest.mark.parametrize("window,depth", sorted(set(DYNAMICS_STDOUT) - {(3, 5), (4, 5)}))
    def test_stdout_pinned(self, capsys, window, depth):
        code, out, _ = run_main(capsys, "dynamics", "--window", str(window), "--depth", str(depth))
        assert code == 0
        assert stdout_digest(out) == DYNAMICS_STDOUT[window, depth]
        report = json.loads(out)
        assert report["generation_sizes"] == [(2 * window + 1) ** k for k in range(depth + 1)]
        assert report["labeling"] == {"membership": True, "injective": True, "level": True}
        assert report["hall_confirmed"] is True
        assert report["prefix_sdr"] == report["labels"]

    def test_window_four_depth_five(self, capsys):
        # the most sets of any pinned size
        code, out, _ = run_main(capsys, "dynamics", "--window", "4", "--depth", "5")
        report = json.loads(out)
        assert code == 0
        assert report["generation_sizes"] == [9**k for k in range(6)]
        assert report["prefix_sdr_size"] == 66430
        assert report["hall_confirmed"] is True
        assert stdout_digest(out) == DYNAMICS_STDOUT[4, 5]

    @pytest.mark.parametrize("window,depth,cost", [
        (72, 2, "800428"),  # the smallest W above the budget at depth 2
        (1, 1_000_000_000, "at least 4466156"),
        (10**18, 1, "500000000000000007250000000000000004"),
    ], ids=["W72-D2", "D1e9", "W1e18"])
    def test_budget_refuses_before_any_work(self, capsys, monkeypatch, window, depth, cost):
        from eulerhall import dynamics

        def no_images(j, atoms):
            raise AssertionError("an image was computed")

        monkeypatch.setattr(dynamics, "_images", no_images)
        start = time.perf_counter()
        code, out, err = run_main(capsys, "dynamics", "--window", str(window),
                                  "--depth", str(depth))
        assert time.perf_counter() - start < 1
        assert (code, out) == (1, "")
        assert err == (f"error: dynamics at window {window}, depth {depth} costs {cost} "
                       f"(atom slots + label digits / 16), above the budget of 800000\n")

    def test_depth_zero_at_any_window(self, capsys, monkeypatch):
        # the seed alone costs 1 under the budget, and no image is computed
        from eulerhall import dynamics

        def no_images(*args):
            raise AssertionError("an image was computed")

        monkeypatch.setattr(dynamics, "_images", no_images)
        start = time.perf_counter()
        code, out, _ = run_main(capsys, "dynamics", "--window", str(10**18), "--depth", "0")
        assert time.perf_counter() - start < 1
        report = json.loads(out)
        assert code == 0
        assert report["generation_sizes"] == [1]
        assert report["labels"] == report["prefix_sdr"] == [1]
        assert report["hall_confirmed"] is True

    def test_labeling_failure_exits_two(self, capsys, monkeypatch):
        # a generator that breaks a label law is a fault of the package:
        # the prefix certificate names the first fault, and no report is
        # written
        from eulerhall import dynamics

        real = dynamics._generate

        def membership(sets, labels):  # member 0 of generation 1 takes member 1's label
            labels[1] = (labels[1][1], *labels[1][1:])

        def level(sets, labels):  # member 0 of generation 1 takes nu(1, 5), of level 2
            sets[1] = (sets[1][0] | {21}, *sets[1][1:])
            labels[1] = (21, *labels[1][1:])

        for sabotage, message in [(membership, "label 2 escaped its set [5]"),
                                  (level, "label 21 at generation 1, member 0 has level 2")]:
            def broken(*args, sabotage=sabotage):
                sets, labels = real(*args)
                sabotage(sets, labels)
                return sets, labels

            monkeypatch.setattr(dynamics, "_generate", broken)
            code, out, err = run_main(capsys, "dynamics", "--window", "1", "--depth", "1")
            assert (code, out, err) == (2, "", f"theorem violation: {message}\n")

    def test_labels_are_checked_once(self, capsys, monkeypatch):
        # one SDR pass per run: the prefix certificate is the one checker
        from eulerhall import certificates

        real, calls = certificates.is_sdr, []
        monkeypatch.setattr(certificates, "is_sdr",
                            lambda sets, labels: calls.append(len(sets)) or real(sets, labels))
        code, out, _ = run_main(capsys, "dynamics", "--window", "2", "--depth", "3")
        assert code == 0 and calls == [156]
        assert stdout_digest(out) == DYNAMICS_STDOUT[2, 3]

    def test_each_label_written_once(self, capsys, monkeypatch):
        # labels and prefix_sdr are one list, converted to decimal once
        calls = []
        monkeypatch.setattr(cli, "_int_repr", lambda n: calls.append(n) or int.__repr__(n))
        code, out, _ = run_main(capsys, "dynamics", "--window", "2", "--depth", "3")
        assert code == 0 and stdout_digest(out) == DYNAMICS_STDOUT[2, 3]
        report = json.loads(out)
        # window, depth, the four generation sizes and prefix_sdr_size
        others = [2, 3, 1, 5, 25, 125, 156]
        assert sorted(calls) == sorted(report["labels"] + others)


class TestSelftest:
    def test_passes(self, capsys):
        code, out, _ = run_main(capsys, "selftest")
        report = json.loads(out)
        assert code == 0 and report["ok"] is True
        checks = report["checks"]
        assert checks and all(ok is True for ok in checks.values())

    def test_sabotaged_ring_fails(self, monkeypatch, capsys):
        # mutation control: an Euler kernel that keeps a term with a
        # repeated column, or one whose terms depend on the row order,
        # must be caught
        from eulerhall import _kernels

        real = _kernels.euler_terms

        def no_squarefree_law(rows, ncols):
            terms = {0: 1}
            for cols in rows:
                step = {}
                for mask, coeff in terms.items():
                    for c in cols:
                        step[mask | 1 << c] = step.get(mask | 1 << c, 0) + coeff
                terms = step
            return terms

        def first_row_dropped(rows, ncols):
            return real(list(rows)[1:], ncols) if len(rows) > 2 else real(rows, ncols)

        for sabotaged in (no_squarefree_law, first_row_dropped):
            monkeypatch.setattr(_kernels, "euler_terms", sabotaged)
            assert selftest.check_ring_axioms(trials=50) is False
            code, out, _ = run_main(capsys, "selftest")
            assert code == 2 and json.loads(out)["checks"]["ring_axioms"] is False

    def test_sabotaged_product_rule_fails(self, monkeypatch, capsys):
        # an Euler kernel whose singleton rows break the permutation rule:
        # a repeated column gives the unit instead of zero
        from eulerhall import _kernels

        real = _kernels.euler_terms
        monkeypatch.setattr(_kernels, "euler_terms",
                            lambda rows, ncols: real(rows, ncols) or {0: 1})
        assert selftest.check_product_rule(max_n=2) is False
        code, out, _ = run_main(capsys, "selftest")
        assert code == 2 and json.loads(out)["checks"]["product_rule"] is False

    def test_order_dependent_matching_fails(self, monkeypatch, capsys):
        # a matching that fails on one ordering of a family it saturates in
        # the other; the sweep, which visits each family once up to row
        # order, cannot see it, the ordered loop must
        from eulerhall import _kernels, sweep

        real = _kernels.max_matching

        def one_order_wrong(rows, ncols):
            if tuple(rows) == ((0, 1), (0,)):
                return [0, -1]
            return real(rows, ncols)

        assert real(((0, 1), (0,)), 3) == [1, 0]
        monkeypatch.setattr(_kernels, "max_matching", one_order_wrong)
        assert sweep.sweep_equivalence(3, 3)[1] == 0
        assert selftest.check_equivalence_sweep() is False
        code, out, _ = run_main(capsys, "selftest")
        assert code == 2 and json.loads(out)["checks"]["equivalence_sweep"] is False


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
            assert err.splitlines()[-1] == f"error: --jobs belongs to 'sweep', not to '{argv[0]}'"
            assert fixture not in err

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

    @pytest.mark.parametrize("argv", DISPATCH_ARGVS, ids=lambda argv: " ".join(argv) or "none")
    def test_dispatch_matches_top_level_parser(self, capsys, argv):
        # _parse hands an argv that starts with a command to that command's
        # parser; it must end as the top-level parser and the extras check do
        fixture = str(FIXTURES / "family_obstructed.json")
        argv = [fixture if a == "family.json" else a for a in argv]

        def top_level(argv):
            parser = cli.build_parser()
            args, extras = parser.parse_known_args(argv)
            cli._reject_extras(parser, args.command, extras)
            return args

        def outcome(parse):
            try:
                result = parse(list(argv))
            except InvalidInput as exc:
                result = str(exc)
            return result, capsys.readouterr()

        assert outcome(cli._parse) == outcome(top_level)

    @pytest.mark.parametrize("argv", list(REPORT_STDOUT), ids=" ".join)
    def test_stdout_pinned(self, capsys, argv):
        args = [str(FIXTURES / a) if a.endswith(".json") else a for a in argv]
        code, out, _ = run_main(capsys, *args)
        assert code == 0
        assert stdout_digest(out) == REPORT_STDOUT[argv]

    @pytest.mark.parametrize("argv, code", [
        pytest.param(("analyze", str(FIXTURES / "family_obstructed.json")), 0, id="analyze"),
        pytest.param(("euler", str(FIXTURES / "family_obstructed.json")), 0, id="euler"),
        pytest.param(("sweep", "--max-m", "3", "--max-atom", "3"), 0, id="sweep"),
        pytest.param(("sweep", "--max-m", "3", "--max-atom", "3", "--jobs", "2"), 0,
                     id="sweep --jobs 2"),
        pytest.param(("dynamics", "--window", "2", "--depth", "3"), 0, id="dynamics"),
        pytest.param(("selftest",), 0, id="selftest"),
        pytest.param(("analyze", "malformed.json"), 1, id="malformed file"),
        pytest.param(("analyze", str(FIXTURES / "missing.json")), 1, id="missing file"),
        pytest.param(("dynamics", "--window", "18"), 1, id="dynamics cap"),
        pytest.param(("sweep", "--max-m", "9"), 1, id="sweep cap"),
        pytest.param(("frobnicate",), 1, id="unknown command"),
        pytest.param(("analyze",), 1, id="no family file"),
        pytest.param((), 1, id="no arguments"),
        pytest.param(("dynamics", "--window", "x"), 1, id="dynamics --window x"),
        pytest.param(("-h",), "SystemExit(0)", id="eulerhall -h"),
        pytest.param(("analyze", "-h"), "SystemExit(0)", id="analyze -h"),
        pytest.param(("dynamics", "-h"), "SystemExit(0)", id="dynamics -h"),
    ])
    def test_no_cyclic_garbage(self, tmp_path, argv, code):
        # main pauses the cyclic collector while a command runs, which is
        # safe only while commands leave no garbage in reference cycles: it
        # would stay until the caller's next collection, and in-process
        # callers (the benchmark, notebooks) would grow with their call
        # count.  Help exits through argparse's SystemExit.
        (tmp_path / "malformed.json").write_text("{not json")
        argv = [str(tmp_path / a) if a == "malformed.json" else a for a in argv]

        def outcome():
            try:
                return main(argv)
            except SystemExit as exc:
                return f"SystemExit({exc.code})"

        with contextlib.redirect_stdout(io.StringIO()):
            assert outcome() == code
            gc.collect()
            gc.disable()
            try:
                assert outcome() == code
                assert gc.collect() == 0
            finally:
                gc.enable()

    @pytest.mark.parametrize("value", [
        1.5, (1,), {1}, {1: "a"}, [1, 2.0], {"k": [None, (1,)]}, {"k": {"j": {2}}},
        _OtherText("x1 + x2"), {"k": _OtherText("a")}, [_VerbatimChild("x1")],
    ], ids=repr)
    def test_writer_rejects_other_types(self, value):
        # the JSON writer covers the types reports hold and writes nothing
        # else; of the str subclasses, it writes only cli._Verbatim itself
        out = io.StringIO()
        with contextlib.redirect_stdout(out), pytest.raises(TypeError):
            _emit(value, "json")
        assert out.getvalue() == ""

    def test_writer_writes_shared_values_once(self, monkeypatch):
        # a value held under two keys is written once, with the text the
        # stdlib writes at each place it appears
        shared_list = [7, [8, 9]]
        shared_dict = {"k": 10, "l": [11, 12]}
        report = {"a": shared_list, "b": shared_dict, "c": shared_list,
                  "d": {"e": shared_dict, "f": shared_dict}, "g": shared_dict}
        calls = []
        monkeypatch.setattr(cli, "_int_repr", lambda n: calls.append(n) or int.__repr__(n))
        gc.collect()
        gc.disable()
        try:
            text = cli._json(report, "")
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert text == json.dumps(report, indent=2)
        # once each for a, b with d and g, and d's own e and f
        assert sorted(calls) == sorted([7, 8, 9] + [10, 11, 12] * 2)

    @pytest.mark.parametrize("command", ["analyze", "euler"])
    def test_class_reaches_writer_verbatim(self, monkeypatch, capsys, command):
        # analyze and euler hand the rendered class to the writer as
        # cli._Verbatim, which it writes as the stdlib would, in both formats
        reports = []
        monkeypatch.setattr(cli, "_emit", lambda report, fmt: reports.append((report, fmt)))
        for path in sorted(FIXTURES.glob("*.json")):
            for fmt in ("--json", "--text"):
                assert run_main(capsys, command, fmt, str(path))[0] == 0
        monkeypatch.undo()
        assert len(reports) == 2 * len(list(FIXTURES.glob("*.json")))
        for report, fmt in reports:
            assert type(report["euler_class"]) is cli._Verbatim
            _emit(report, fmt)
            out = capsys.readouterr().out
            if fmt == "json":
                assert out == json.dumps(report, indent=2) + "\n"
            else:
                assert f"euler_class: {report['euler_class']}\n" in out

    def test_round_trip_canonicalizes(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        path.write_text('{"sets": [[2, 1, 2], [3, 3]]}')
        _, out, _ = run_main(capsys, "analyze", str(path))
        family = json.loads(out)["family"]
        assert family == {"sets": [[1, 2], [3]], "trivial_lines": 0}


class TestCollectorPause:
    # main pauses the cyclic collector while a command runs and leaves it
    # as the caller had it on every way out

    @pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
    def caller_gc(self, request):
        before = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if before else gc.disable)()

    @pytest.mark.parametrize("code", [0, 1, 2])
    def test_exit_restores_state(self, caller_gc, code, monkeypatch, capsys):
        from eulerhall import obstruction

        # the obstructed family satisfies Hall's condition
        name = "missing.json" if code == 1 else "family_obstructed.json"
        if code == 2:
            # sabotage one route: analyze must report the disagreement
            monkeypatch.setattr(obstruction, "euler_class", lambda f: ring.zero())
        code_seen, _, err = run_main(capsys, "analyze", str(FIXTURES / name))
        assert code_seen == code, err
        assert (code == 2) == err.startswith("theorem violation: ")
        assert gc.isenabled() is caller_gc

    def test_escaping_exception_restores_state(self, caller_gc, monkeypatch):
        def broken(args):
            raise RuntimeError("command failed")

        monkeypatch.setitem(cli._COMMANDS, "selftest", broken)
        with pytest.raises(RuntimeError, match="command failed"):
            main(["selftest"])
        assert gc.isenabled() is caller_gc

    def test_command_runs_paused(self, caller_gc, monkeypatch):
        seen = []

        def spy(args):
            seen.append(gc.isenabled())
            return 0

        monkeypatch.setitem(cli._COMMANDS, "selftest", spy)
        assert main(["selftest"]) == 0
        assert seen == [False]
        assert gc.isenabled() is caller_gc


class TestSubprocessContract:
    def test_analyze_roundtrip(self):
        proc = run_proc("analyze", str(FIXTURES / "family_subordinate.json"))
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["verdict"] == "subordinate"
        assert proc.stderr == ""

    def test_usage_error_exit_code(self):
        proc = run_proc("sweep", "--max-m", "not-a-number")
        assert proc.returncode == 1

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("fmt", ["--json", "--text"])
    def test_closed_stdout_exits_one(self, fmt, unbuffered):
        # a reader that stops early (| head -c 100) ends the run with
        # status 1 and nothing on stderr; the report is larger than a pipe
        # buffer (64 KB), so the writer meets the closed pipe.  Unbuffered,
        # a short write must not end the report early with status 0
        assert DYNAMICS_STDOUT[4, 4][0] > 65536
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen(
            [sys.executable, "-m", "eulerhall", "dynamics", "--window", "4", "--depth", "4", fmt],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (1, b"")

    def test_console_output_identical_across_processes(self):
        a = run_proc("dynamics", "--window", "1", "--depth", "2")
        b = run_proc("dynamics", "--window", "1", "--depth", "2")
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout
