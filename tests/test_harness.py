"""Experiment commands: invariant flags, reproducibility, CLI surface."""

import hashlib
import json
import subprocess
import sys

import pytest

from advice_lab import harness
from advice_lab.cli import main


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
                   "be8af78420113339174d65bd01124a21ba92dcf810c209fa434d1269424b1ff8"),
    }

    @pytest.mark.parametrize("command", sorted(GOLDEN))
    def test_golden_rows(self, command):
        build, digest = self.GOLDEN[command]
        text = harness.render_csv(build())
        assert hashlib.sha256(text.encode()).hexdigest() == digest


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
