"""Exit-code and round-trip tests for ``python -m repro fuzz``."""

import json

import pytest

from repro.__main__ import main
from repro.fuzz import cli as fuzz_cli
from repro.fuzz.campaign import CampaignResult
from repro.fuzz.case import FuzzCase, run_case

VIOLATING_DICT = FuzzCase(
    seed=0,
    protocols=("MESI", "MEI"),
    wrapped=False,
    workload={
        "kind": "racy", "n": 20, "seed": 1,
        "footprint_words": 4, "write_ratio": 0.5,
    },
).to_dict()

#: a violation whose detail (the violation count) shrinks with the case
SILENT_SNOOP_DICT = FuzzCase(
    seed=0,
    protocols=("MESI", "MESI"),
    fault={"site": "snoop.silent", "count": None},
    workload={
        "kind": "racy", "n": 20, "seed": 1,
        "footprint_words": 4, "write_ratio": 0.5,
    },
).to_dict()


def write_reproducer(path, case_dict, result=None):
    payload = {"case": case_dict}
    if result is not None:
        payload["result"] = result
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    return str(path)


class TestRun:
    def test_clean_campaign_exits_0(self, capsys, tmp_path):
        code = main([
            "fuzz", "run", "--seed", "13", "--cases", "5",
            "--out", str(tmp_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "campaign seed=13" in out
        assert "OK" in out
        assert (tmp_path / "results.jsonl").exists()

    def test_resume_shows_in_summary(self, capsys, tmp_path):
        argv = ["fuzz", "run", "--seed", "13", "--cases", "5",
                "--out", str(tmp_path)]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        assert "5 resumed" in capsys.readouterr().out

    def test_unexpected_campaign_exits_1(self, capsys, monkeypatch):
        fake = CampaignResult(seed=0, n_cases=1)
        fake.counts = {"error": 1}
        fake.unexpected = [{
            "index": 0, "case": VIOLATING_DICT,
            "result": {"outcome": "error", "allowed": ["clean"]},
            "reproducer": None,
        }]
        monkeypatch.setattr(
            fuzz_cli, "run_campaign", lambda config, progress=None: fake
        )
        assert main(["fuzz", "run", "--cases", "1"]) == 1
        assert "UNEXPECTED" in capsys.readouterr().out

    def test_shrunk_reproducer_replays_byte_identically(
        self, capsys, monkeypatch, tmp_path
    ):
        case = SILENT_SNOOP_DICT
        reproducer = write_reproducer(tmp_path / "case-0.json", case)
        fake = CampaignResult(seed=0, n_cases=1)
        fake.counts = {"violation": 1}
        fake.unexpected = [{
            "index": 0, "case": case,
            "result": run_case(FuzzCase.from_dict(case)).to_dict(),
            "reproducer": reproducer,
        }]
        monkeypatch.setattr(
            fuzz_cli, "run_campaign", lambda config, progress=None: fake
        )
        assert main(["fuzz", "run", "--cases", "1", "--shrink"]) == 1
        capsys.readouterr()
        shrunk = str(tmp_path / "case-0.shrunk.json")
        # The shrunk case reports a different detail than the original,
        # so only its own recorded result replays byte-identically.
        assert main(["fuzz", "repro", shrunk]) == 0
        assert "reproduced byte-identically" in capsys.readouterr().out

    def test_bad_cases_count_exits_2(self, capsys):
        assert main(["fuzz", "run", "--cases", "0"]) == 2
        assert "n_cases" in capsys.readouterr().err


class TestRepro:
    def test_missing_file_exits_2(self, capsys, tmp_path):
        assert main(["fuzz", "repro", str(tmp_path / "nope.json")]) == 2

    def test_invalid_json_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["fuzz", "repro", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_wrong_shape_exits_2(self, capsys, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text('{"hello": 1}', encoding="utf-8")
        assert main(["fuzz", "repro", str(path)]) == 2

    def test_reproducer_replays_byte_identically(self, capsys, tmp_path):
        recorded = run_case(FuzzCase.from_dict(VIOLATING_DICT)).to_dict()
        path = write_reproducer(
            tmp_path / "case.json", VIOLATING_DICT, recorded
        )
        assert main(["fuzz", "repro", path]) == 0
        assert "reproduced byte-identically" in capsys.readouterr().out

    def test_stale_reproducer_exits_1(self, capsys, tmp_path):
        path = write_reproducer(
            tmp_path / "case.json", VIOLATING_DICT,
            {"outcome": "deadlock", "detail": "never happened"},
        )
        assert main(["fuzz", "repro", path]) == 1
        assert "DOES NOT REPRODUCE" in capsys.readouterr().err

    def test_bare_case_dict_is_accepted(self, capsys, tmp_path):
        path = write_reproducer(tmp_path / "bare.json", VIOLATING_DICT)
        # No recorded result: exit reflects expected/unexpected. An
        # unwrapped incompatible pair violating is expected -> 0.
        assert main(["fuzz", "repro", path]) == 0
        assert "violation" in capsys.readouterr().out


class TestShrink:
    def test_clean_case_exits_2(self, capsys, tmp_path):
        clean = FuzzCase(
            seed=0, workload={"kind": "producer-consumer", "n_items": 3}
        ).to_dict()
        path = write_reproducer(tmp_path / "clean.json", clean)
        assert main(["fuzz", "shrink", path]) == 2
        assert "nothing to shrink" in capsys.readouterr().err

    def test_shrinks_and_writes_round_trippable_output(
        self, capsys, tmp_path
    ):
        path = write_reproducer(tmp_path / "case.json", VIOLATING_DICT)
        out = tmp_path / "shrunk.json"
        assert main(["fuzz", "shrink", path, "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "shrunk" in stdout
        with open(out, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["result"]["outcome"] == "violation"
        # The shrunk artefact is itself a valid reproducer: replaying
        # it through the CLI reproduces the recorded outcome.
        assert main(["fuzz", "repro", str(out)]) == 0


class TestParser:
    def test_missing_action_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["fuzz"])
        assert exc.value.code == 2
