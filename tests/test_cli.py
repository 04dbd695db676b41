"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_setting_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table2", "--settings", "Nope-S"])

    def test_defaults(self):
        args = build_parser().parse_args(["table1"])
        assert args.scale == 0.2
        assert args.samples == 64


class TestCommands:
    def test_list_settings(self, capsys):
        assert main(["list-settings"]) == 0
        out = capsys.readouterr().out
        assert "Digg-S" in out and "Slashdot-F" in out

    def test_sphere_command(self, capsys):
        code = main(
            [
                "sphere",
                "--setting",
                "NetHEPT-W",
                "--node",
                "1",
                "--scale",
                "0.03",
                "--samples",
                "8",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Sphere of influence of node 1" in out
        assert "cost" in out

    def test_table2_subset(self, capsys):
        code = main(
            [
                "table2",
                "--scale",
                "0.03",
                "--samples",
                "8",
                "--settings",
                "NetHEPT-W",
                "--max-nodes",
                "10",
            ]
        )
        assert code == 0
        assert "NetHEPT-W" in capsys.readouterr().out

    def test_fig7_runs_small(self, capsys):
        code = main(
            [
                "fig7",
                "--scale",
                "0.03",
                "--samples",
                "8",
                "--settings",
                "NetHEPT-F",
            ]
        )
        assert code == 0
        assert "marginal gain" in capsys.readouterr().out


class TestIndexCommands:
    @pytest.fixture
    def built(self, tmp_path, capsys):
        path = tmp_path / "idx"
        assert main(
            [
                "index", "build",
                "--setting", "NetHEPT-W",
                "--scale", "0.03",
                "--samples", "6",
                "--seed", "11",
                "--out", str(path),
            ]
        ) == 0
        capsys.readouterr()
        return path

    def test_build_reports_header(self, tmp_path, capsys):
        path = tmp_path / "idx"
        code = main(
            [
                "index", "build",
                "--setting", "NetHEPT-W",
                "--scale", "0.03",
                "--samples", "6",
                "--seed", "11",
                "--out", str(path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "worlds: 6" in out
        assert "content digest: sha256:" in out
        assert (path / "header.json").is_file()

    def test_info_full_verify(self, built, capsys):
        assert main(["index", "info", str(built), "--verify", "full"]) == 0
        out = capsys.readouterr().out
        assert "seed entropy: 11" in out
        assert "verified: full sha256" in out

    def test_verify_clean_store(self, built, capsys):
        assert main(["index", "verify", str(built)]) == 0
        out = capsys.readouterr().out
        assert "result: clean" in out
        assert "members.npy" in out
        assert "CORRUPT" not in out

    def test_verify_json_clean(self, built, capsys):
        assert main(["index", "verify", str(built), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["corrupt"] == []
        names = {column["name"] for column in payload["columns"]}
        assert "members" in names and "graph_targets" in names

    def test_verify_corrupt_store_exits_2(self, built, capsys):
        target = built / "members.npy"
        data = bytearray(target.read_bytes())
        data[-30] ^= 0xFF
        target.write_bytes(bytes(data))
        with pytest.raises(SystemExit) as excinfo:
            main(["index", "verify", str(built)])
        assert excinfo.value.code == 2
        out = capsys.readouterr().out
        assert "members.npy" in out
        assert "CORRUPT (sha256 mismatch)" in out
        assert "result: CORRUPT" in out
        assert "1 damaged" in out

    def test_verify_json_reports_every_damaged_file(self, built, capsys):
        (built / "graph_probs.npy").unlink()
        target = built / "dag_targets.npy"
        target.write_bytes(target.read_bytes()[:-8])
        with pytest.raises(SystemExit) as excinfo:
            main(["index", "verify", str(built), "--json"])
        assert excinfo.value.code == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["corrupt"] == ["dag_targets", "graph_probs"]

    def test_verify_missing_path_is_operational_error(self, tmp_path, capsys):
        assert main(["index", "verify", str(tmp_path / "nope")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_append_grows_store(self, built, capsys):
        assert main(["index", "append", str(built), "--samples", "2"]) == 0
        out = capsys.readouterr().out
        assert "appended 2 worlds" in out
        assert "worlds: 8" in out

    def test_query_cascade_sphere_infmax(self, built, capsys):
        code = main(
            [
                "index", "query", str(built),
                "--node", "1",
                "--world", "0",
                "--sphere",
                "--infmax", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cascade of node 1 in world 0" in out
        assert "sphere of node 1" in out
        assert "InfMax_TC seeds (k=2)" in out

    def test_query_without_work_errors(self, built):
        with pytest.raises(SystemExit):
            main(["index", "query", str(built)])

    def test_sphere_accepts_saved_index(self, built, capsys):
        assert main(["sphere", "--index", str(built), "--node", "1"]) == 0
        out = capsys.readouterr().out
        assert "Sphere of influence of node 1" in out

    def test_sphere_requires_setting_or_index(self):
        with pytest.raises(SystemExit):
            main(["sphere", "--node", "1"])

    def test_sphere_requires_node_xor_all(self, built):
        with pytest.raises(SystemExit, match="exactly one"):
            main(["sphere", "--index", str(built)])
        with pytest.raises(SystemExit, match="exactly one"):
            main(["sphere", "--index", str(built), "--node", "1", "--all"])


class TestErrorHygiene:
    """Operational failures exit 2 with one stderr line, never a traceback."""

    def test_missing_store_path(self, capsys):
        assert main(["index", "info", "/no/such/store"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro index: error:")
        assert err.count("\n") == 1

    def test_corrupt_index_archive(self, tmp_path, capsys):
        bad = tmp_path / "bad.npz"
        bad.write_bytes(b"garbage, not a store directory")
        assert main(["sphere", "--index", str(bad), "--node", "0"]) == 2
        err = capsys.readouterr().err
        assert "repro index build" in err
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_missing_index_file(self, tmp_path, capsys):
        assert main(
            ["sphere", "--index", str(tmp_path / "nope"), "--node", "0"]
        ) == 2
        assert "error:" in capsys.readouterr().err

    def test_torn_store_append(self, tmp_path, capsys):
        path = tmp_path / "idx"
        assert main(
            [
                "index", "build",
                "--setting", "NetHEPT-W",
                "--scale", "0.03",
                "--samples", "4",
                "--out", str(path),
            ]
        ) == 0
        capsys.readouterr()
        victim = path / "members.npy"
        victim.write_bytes(victim.read_bytes()[:-8])
        assert main(["index", "append", str(path), "--samples", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro index: error:")
        assert "Traceback" not in err


class TestResumableCommands:
    @pytest.fixture
    def built(self, tmp_path, capsys):
        path = tmp_path / "base-idx"
        assert main(
            [
                "index", "build",
                "--setting", "NetHEPT-W",
                "--scale", "0.03",
                "--samples", "6",
                "--seed", "11",
                "--out", str(path),
            ]
        ) == 0
        capsys.readouterr()
        return path

    def test_batched_build_then_resume_grows_store(self, tmp_path, capsys):
        path = tmp_path / "idx"
        common = [
            "index", "build",
            "--setting", "NetHEPT-W",
            "--scale", "0.03",
            "--seed", "11",
            "--out", str(path),
            "--batch-size", "3",
        ]
        assert main(common + ["--samples", "6"]) == 0
        assert "worlds: 6" in capsys.readouterr().out
        assert main(common + ["--samples", "10", "--resume"]) == 0
        assert "worlds: 10" in capsys.readouterr().out

    def test_resumed_build_matches_monolithic(self, tmp_path, capsys):
        from repro.store import read_header

        batched = tmp_path / "batched"
        mono = tmp_path / "mono"
        base = [
            "index", "build",
            "--setting", "NetHEPT-W",
            "--scale", "0.03",
            "--samples", "8",
            "--seed", "11",
        ]
        assert main(base + ["--out", str(batched), "--batch-size", "3"]) == 0
        assert main(base + ["--out", str(mono)]) == 0
        capsys.readouterr()
        assert (
            read_header(batched).content_digest == read_header(mono).content_digest
        )

    def test_sphere_all_sweep_refuse_and_resume(self, built, capsys):
        sweep = ["sphere", "--index", str(built), "--all",
                 "--checkpoint-every", "8"]
        assert main(sweep) == 0
        first = capsys.readouterr().out
        assert "into its sphere family" in first
        assert "digest: sha256:" in first
        assert main(["index", "info", str(built), "--verify", "full"]) == 0
        capsys.readouterr()
        # a second sweep over a store that holds a family refuses without
        # --resume
        assert main(sweep) == 2
        assert "--resume" in capsys.readouterr().err
        # with --resume it finds everything committed: the same digest
        assert main(sweep + ["--resume"]) == 0
        second = capsys.readouterr().out
        digest = [ln for ln in first.splitlines() if "digest:" in ln]
        assert digest and digest[0] in second

    def test_sphere_all_requires_out(self, built):
        # The family is written into the store named by --index.
        with pytest.raises(SystemExit, match="--index is required"):
            main(["sphere", "--setting", "NetHEPT-W", "--all"])


class TestReportCommand:
    def test_report_writes_markdown(self, tmp_path, capsys):
        results = tmp_path / "results"
        results.mkdir()
        (results / "table1.txt").write_text("FAKE TABLE")
        out = tmp_path / "EXPERIMENTS.md"
        code = main(
            ["report", "--results-dir", str(results), "--output", str(out)]
        )
        assert code == 0
        assert out.exists()
        assert "FAKE TABLE" in out.read_text()
