"""Experiment commands: invariant flags, reproducibility, CLI surface."""

import dataclasses
import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from advice_lab import compress, harness, qsim
from advice_lab.adapters import GroverInversion, HellmanInversion
from advice_lab.cli import main
from advice_lab.qsim import PermutationOracle


class TestCommands:
    def test_grover_table(self):
        table = harness.cmd_grover(16, trials=5, seed=3)
        assert table.ok
        assert len(table.rows) == 5
        for row in table.rows:
            assert row["abs_error"] <= 1e-6
            assert row["config"] == table.config_hash
            assert row["seed"] == 3

    def test_grover_size_cap(self):
        with pytest.raises(ValueError):
            harness.cmd_grover(512, trials=1, seed=0)

    def test_box_table(self):
        table = harness.cmd_box(8, 2, trials=10, seed=5)
        assert table.ok
        assert all(row["swap_holds"] for row in table.rows)

    @pytest.mark.parametrize("s_values", [[], [4, 4]], ids=["empty", "repeat"])
    def test_hellman_rejects_bad_strides(self, s_values):
        with pytest.raises(ValueError, match="strides"):
            harness.cmd_hellman(64, s_values, trials=1, seed=0)

    def test_hellman_table(self):
        table = harness.cmd_hellman(64, [4, 8], trials=2, seed=1)
        assert table.ok
        assert len(table.rows) == 4
        assert {row["s"] for row in table.rows} == {4, 8}

    def test_compress_table(self):
        table = harness.cmd_compress(16, delta=0.2, c=0.001, trials=25, seed=11)
        assert table.ok
        successes = sum(1 for r in table.rows if r["roundtrip_exact"])
        assert successes >= 20

    @pytest.mark.parametrize("suite", ["swapping", "tv", "collision", "expectation", "eq2"])
    def test_verify_suites(self, suite):
        table = harness.cmd_verify(suite, trials=12, seed=2)
        assert table.ok
        assert all(row["holds"] for row in table.rows)

    def test_verify_unknown_suite(self):
        with pytest.raises(ValueError):
            harness.cmd_verify("nonsense", trials=1, seed=0)


class TestReproducibility:
    def test_same_seed_same_rows(self):
        a = harness.cmd_grover(16, trials=4, seed=9)
        b = harness.cmd_grover(16, trials=4, seed=9)
        assert harness.render_csv(a) == harness.render_csv(b)
        assert harness.render_json(a) == harness.render_json(b)

    def test_different_seed_differs(self):
        a = harness.cmd_compress(16, 0.2, 0.001, trials=5, seed=1)
        b = harness.cmd_compress(16, 0.2, 0.001, trials=5, seed=2)
        assert harness.render_csv(a) != harness.render_csv(b)

    def test_rows_carry_replay_metadata(self):
        table = harness.cmd_box(8, 2, trials=3, seed=21)
        digest = harness.config_hash(table.config)
        assert table.command == "box"
        assert table.columns[-2:] == ["seed", "config"]
        for row in table.rows:
            assert row["seed"] == 21
            assert row["config"] == digest

    # sha256 of render_csv at seed 0.  A change that alters any row on purpose
    # updates its digest here and says so in its change notes.
    GOLDEN = {
        "grover": (lambda: harness.cmd_grover(16, 4, 0),
                   "f69f5a59bf4bc29cdbb31e7569ac283f9c9db97938c3a4232862a2b9b8c1cf13"),
        "box": (lambda: harness.cmd_box(8, 2, 5, 0),
                "d4a7a929aed082f12ea5e12adbc0659cf3efc0b5f0f5b0ab5a28f470fbb66208"),
        "hellman": (lambda: harness.cmd_hellman(64, [4, 8], 2, 0),
                    "ce4758f6e58aac27d6b73eab0eeb5f5de094c493937daed5aae3d7072dd41d15"),
        "compress": (lambda: harness.cmd_compress(16, 0.2, 0.001, 10, 0),
                     "5a025a1fa2e7884ff386f89e14226ebfce12c802d69ae3600f2bc9c2aec838e5"),
        "verify": (lambda: harness.cmd_verify("all", 10, 0),
                   "859fb60ff5ba9bbe105213e15a8b733594b49699d08163eecd808a30dc7cc660"),
    }

    @pytest.mark.parametrize("command", sorted(GOLDEN))
    def test_golden_rows(self, command):
        build, digest = self.GOLDEN[command]
        text = harness.render_csv(build())
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestCompressTrial:
    """The audit reads the encoder's runs against f and decode's runs against
    the hybrid oracle; it makes none of its own."""

    F = PermutationOracle(np.random.default_rng(0).permutation(16))
    FAMILY = HellmanInversion(2)
    R = np.array([1, 6, 11])  # two of the three elements are good
    PARAMS = compress.CompressionParams(0.9, 0.001)

    def test_one_f_run_per_element_and_one_h_run_per_good_element(self, monkeypatch):
        calls = {"run": 0, "build_h": 0, "spec": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(compress, "run", counted("run", qsim.run))
        monkeypatch.setattr(harness, "run", counted("run", qsim.run))
        monkeypatch.setattr(compress, "build_h", counted("build_h", compress.build_h))
        monkeypatch.setattr(HellmanInversion, "spec", counted("spec", HellmanInversion.spec))
        record = harness.compress_trial(self.F, self.FAMILY, self.R, self.PARAMS)
        assert record["roundtrip_exact"] and record["h_ok"]
        assert record["good_count"] == 2
        # encode: every element of R against f; decode: every good element
        # against the hybrid oracle, once each.  The advice is parsed once by
        # encode and once by decode.
        assert calls == {"run": len(self.R) + record["good_count"],
                         "build_h": record["good_count"], "spec": 2}

    def test_failing_decode_is_audited_from_its_runs(self):
        # both elements of R are good, but the hybrid oracle sends both to y,
        # so Grover's output is ambiguous and decode raises
        f = PermutationOracle(np.random.default_rng(0).permutation(8))
        record = harness.compress_trial(f, GroverInversion(), [1, 5],
                                        compress.CompressionParams(0.2, 0.5))
        assert record["good_count"] == 2 and not record["decode_ok"]
        assert record["max_h_distance"] == 0.9999999999999999
        assert not record["h_ok"]

    def test_rank_past_its_bits_fails_length_identity(self, monkeypatch):
        encode = compress.encode

        def oversized(*args):
            enc = encode(*args)
            return dataclasses.replace(enc, outer_rank=1 << enc.component_bits()["outer"])

        monkeypatch.setattr(compress, "encode", oversized)
        record = harness.compress_trial(self.F, self.FAMILY, self.R, self.PARAMS)
        assert not record["length_identity_ok"]
        assert record["length_bound_ok"] and record["envelope_ok"]
        # decode rejects the rank before any run, so the audit is empty
        assert not record["decode_ok"] and record["max_h_distance"] == 0.0

    def test_hellman_at_1024_audits_without_dense_states(self, monkeypatch):
        def dense(*_args):
            raise AssertionError("a classical trial built or normed a dense state")

        monkeypatch.setattr(qsim.BasisState, "amplitudes", property(dense))
        monkeypatch.setattr(np.linalg, "norm", dense)
        rng = np.random.default_rng(1024)
        f = PermutationOracle(rng.permutation(1024))
        family = HellmanInversion(4)
        R = compress.sample_R(1024, 0.9, 2 * family.s + 2, rng)
        record = harness.compress_trial(f, family, R, self.PARAMS)
        assert record["good_count"] > 0
        flags = ("length_identity_ok", "length_bound_ok", "envelope_ok", "h_ok",
                 "decode_ok", "roundtrip_exact")
        assert all(record[flag] for flag in flags), record

    def test_decode_ignores_encoder_runs(self):
        enc = compress.encode(self.F, self.FAMILY, self.R, self.PARAMS)
        assert sorted(enc.runs) == [1, 6]
        clone = compress.encoding_from_json(compress.encoding_to_json(enc), 16)
        assert clone.runs == {}
        assert clone == enc
        decoded, finals = compress.decode(clone, self.R, self.FAMILY, self.PARAMS)
        assert np.array_equal(decoded, self.F.table)
        assert sorted(finals) == sorted(int(self.F.table[x]) for x in enc.runs)


class TestEmission:
    def test_csv_shape(self):
        table = harness.cmd_grover(16, trials=3, seed=0)
        text = harness.render_csv(table)
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(table.columns)
        assert len(lines) == 4

    def test_json_mirrors_csv_rows(self):
        table = harness.cmd_grover(16, trials=3, seed=0)
        doc = json.loads(harness.render_json(table))
        assert doc["columns"] == table.columns
        assert len(doc["rows"]) == 3
        assert doc["ok"] is True
        assert doc["config_hash"] == table.config_hash

    def test_emit_writes_identical_bytes(self, tmp_path):
        table = harness.cmd_verify("tv", trials=5, seed=4)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        harness.emit(table, str(p1), "csv")
        harness.emit(harness.cmd_verify("tv", trials=5, seed=4), str(p2), "csv")
        assert p1.read_bytes() == p2.read_bytes()


class TestCli:
    def test_grover_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "g.csv"
        code = main(["grover", "--n", "16", "--trials", "3", "--seed", "1",
                     "--out", str(out)])
        assert code == 0
        assert out.read_text().startswith("trial,")

    def test_json_format(self, tmp_path):
        out = tmp_path / "v.json"
        code = main(["verify", "tv", "--trials", "5", "--seed", "0",
                     "--out", str(out), "--format", "json"])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["ok"] is True

    def test_stdout_default(self, capsys):
        code = main(["grover", "--n", "8", "--trials", "2", "--seed", "0"])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("trial,")

    def test_bad_config_exit_two(self, capsys):
        code = main(["grover", "--n", "512", "--trials", "1", "--seed", "0"])
        assert code == 2

    @pytest.mark.parametrize("n", ["0", "-4"])
    def test_grover_too_small_exit_two(self, n, capsys):
        assert main(["grover", "--n", n, "--trials", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    @pytest.mark.parametrize("strides", [",", "4,,8", "4,4"], ids=["empty", "hole", "repeat"])
    def test_bad_stride_list_exit_two(self, strides, capsys):
        assert main(["hellman", "--n", "64", "--s", strides, "--trials", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    @pytest.mark.parametrize("argv", [["grover", "--n", "16"], ["box"],
                                      ["hellman", "--n", "64", "--s", "4"], ["compress"],
                                      ["verify", "all"]], ids=lambda argv: argv[0])
    def test_negative_trials_exit_two(self, argv, capsys):
        assert main(argv + ["--trials", "-3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "trial count" in captured.err

    def test_compress_flags(self, tmp_path):
        out = tmp_path / "c.csv"
        code = main(["compress", "--n", "16", "--delta", "0.2", "--c", "0.001",
                     "--trials", "10", "--seed", "3", "--out", str(out)])
        assert code == 0

    def test_hellman_stride_list(self, tmp_path):
        out = tmp_path / "h.csv"
        code = main(["hellman", "--n", "64", "--s", "4,8", "--trials", "1",
                     "--seed", "0", "--out", str(out)])
        assert code == 0
        body = out.read_text()
        assert "4," in body and "8," in body

    def test_installed_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "advice_lab.cli", "verify", "collision",
             "--trials", "4", "--seed", "6"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.startswith("suite,")
