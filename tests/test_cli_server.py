"""Tests for the ``repro server`` subcommand."""

import json

from repro.cli import main

SCENARIO = "examples/server_awacs_modes.json"
MUTATIONS = "examples/server_awacs_mutations.json"


class TestServerCommand:
    def test_scripted_awacs_mode_cycle(self, capsys):
        code = main(["server", SCENARIO, "--script", MUTATIONS])
        out = capsys.readouterr().out
        assert code == 0
        assert "scenario awacs-live" in out
        assert "mutations applied: 2" in out
        assert "splice violations: 0" in out
        assert "mode -> combat" in out
        assert "cache hit" in out

    def test_json_record(self, capsys):
        code = main(
            ["server", SCENARIO, "--script", MUTATIONS, "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"] == "awacs-live"
        assert len(payload["splice_slots"]) == 2
        assert payload["violations"] == []
        assert payload["cache"]["hits"] == 1
        assert len(payload["epochs"]) == 3
        assert payload["epochs"][2]["cache_hit"] is True
        assert payload["traffic"]["requests"] == 240

    def test_log_written_and_parseable(self, tmp_path, capsys):
        from repro.server.asrun import read_asrun

        log = tmp_path / "asrun.jsonl"
        code = main(
            [
                "server", SCENARIO, "--script", MUTATIONS,
                "--log", str(log), "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        records = read_asrun(log)
        assert payload["asrun"] == str(log)
        kinds = [r["type"] for r in records]
        assert kinds.count("splice") == 2
        assert kinds[-1] == "sign-off"

    def test_no_script_is_a_plain_run(self, capsys):
        code = main(["server", SCENARIO, "--until", "120"])
        out = capsys.readouterr().out
        assert code == 0
        assert "mutations applied: 0, splices at []" in out

    def test_warm_cache_dir_skips_re_solves(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "solve-cache")
        main(
            ["server", SCENARIO, "--script", MUTATIONS,
             "--cache-dir", cache_dir, "--json"]
        )
        capsys.readouterr()
        code = main(
            ["server", SCENARIO, "--script", MUTATIONS,
             "--cache-dir", cache_dir, "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        # Every design was on disk: the warm run never ran the designer.
        assert payload["cache"]["solves"] == 0
        assert payload["cache"]["misses"] == 0

    def test_bad_script_fails_with_a_clear_message(
        self, tmp_path, capsys
    ):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([{"at_slot": -3, "mutation": {}}]))
        code = main(["server", SCENARIO, "--script", str(bad)])
        assert code != 0
        assert "at_slot must be >= 0" in capsys.readouterr().err

    def test_inapplicable_script_fails_before_airing(
        self, tmp_path, capsys
    ):
        script = tmp_path / "script.json"
        script.write_text(json.dumps([{"at_slot": 400, "mutation": {
            "kind": "temporal_edit", "name": "pos", "update_period": 4,
        }}]))
        log = tmp_path / "asrun.jsonl"
        code = main([
            "server", SCENARIO, "--script", str(script), "--log", str(log),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "error: mutations[0]: temporal_edit 'pos': scenario "
            "'awacs-live' has no temporal spec"
        ]
        assert not log.exists()
