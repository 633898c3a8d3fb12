"""Tests for the command-line interface (python -m repro)."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs import counters_snapshot
from repro.spec.dsl import load_properties

SPEC = """
peer S {
    database items/1
    input pick/1
    out flat msg/1
    input pick(x) <- items(x)
    send  msg(x)  <- pick(x)
}
peer R {
    state got/1
    in flat msg/1
    insert got(x) <- ?msg(x)
}
database S {
    items: ("a",)
}
property safety:
    forall x: G( R.got(x) -> S.items(x) )
property liveness:
    forall x: G( S.pick(x) -> F R.got(x) )
"""


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "relay.dws"
    path.write_text(SPEC)
    return str(path)


class TestLoadProperties:
    def test_both_found(self):
        props = load_properties(SPEC)
        assert set(props) == {"safety", "liveness"}
        assert props["safety"].startswith("forall x:")

    def test_multiline_body_merged(self):
        props = load_properties(SPEC)
        assert "F R.got(x)" in props["liveness"]

    def test_duplicate_rejected(self):
        from repro.errors import ParseError
        with pytest.raises(ParseError):
            load_properties("property a: G true\nproperty a: G true")


class TestVerifyCommand:
    def test_single_property_ok(self, spec_file, capsys):
        code = main(["verify", spec_file, "--property", "safety"])
        out = capsys.readouterr().out
        assert code == 0
        assert "safety: SATISFIED" in out

    def test_failing_property_exit_code(self, spec_file, capsys):
        code = main(["verify", spec_file, "--property", "liveness"])
        out = capsys.readouterr().out
        assert code == 1
        assert "liveness: VIOLATED" in out

    def test_all_properties(self, spec_file, capsys):
        code = main(["verify", spec_file])
        out = capsys.readouterr().out
        assert code == 1  # liveness fails
        assert "safety: SATISFIED" in out

    def test_fair_perfect_flips_liveness(self, spec_file, capsys):
        code = main(["verify", spec_file, "--property", "liveness",
                     "--perfect", "--fair"])
        out = capsys.readouterr().out
        assert code == 0
        assert "liveness: SATISFIED" in out

    def test_counterexample_printed(self, spec_file, capsys):
        code = main(["verify", spec_file, "--property", "liveness",
                     "--counterexample"])
        out = capsys.readouterr().out
        assert code == 1
        assert "counterexample to:" in out

    def test_unknown_property(self, spec_file, capsys):
        code = main(["verify", spec_file, "--property", "nosuch"])
        assert code == 2

    def test_no_properties_declared(self, tmp_path, capsys):
        path = tmp_path / "bare.dws"
        path.write_text(SPEC.split("property", 1)[0])
        assert main(["verify", str(path)]) == 2


class TestCheckCommand:
    def test_clean_spec(self, spec_file, capsys):
        assert main(["check", spec_file]) == 0
        assert "no violations" in capsys.readouterr().out

    def test_violating_spec(self, tmp_path, capsys):
        path = tmp_path / "bad.dws"
        path.write_text("""
        peer P {
            database d/1
            state s/1
            out flat q/1
            insert s(x) <- d(x)
            send q(x) <- s(x)
        }
        """)
        assert main(["check", str(path)]) == 1


class TestSimulateCommand:
    def test_prints_steps(self, spec_file, capsys):
        code = main(["simulate", spec_file, "--steps", "5", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("step") == 6

    def test_parse_error_reported(self, tmp_path, capsys):
        path = tmp_path / "broken.dws"
        path.write_text("peer P { junk }")
        assert main(["check", str(path)]) == 2
        assert "error:" in capsys.readouterr().err


AUCTION = str(Path(__file__).parent.parent / "examples" / "specs"
              / "auction.dws")


def _untimed(out: str) -> list[str]:
    """Verdict lines with their elapsed-time field dropped."""
    return [re.sub(r", \d+\.\d+s\)$", ")", line)
            for line in out.splitlines() if ": SATISFIED" in line
            or ": VIOLATED" in line]


class TestAuctionSpecProperties:
    def test_shipped_spec_verifies_via_cli(self, capsys):
        assert main(["verify", AUCTION]) == 0

    @pytest.mark.parametrize("command,lines", [
        ("verify", [
            "outcome_is_definite: SATISFIED  (states=35)",
            "sold_meets_reserve: SATISFIED  (states=35)",
        ]),
        ("profile", [
            "outcome_is_definite: SATISFIED  (valuations=141, states=35, "
            "product nodes=5551)",
            "sold_meets_reserve: SATISFIED  (valuations=26, states=35, "
            "product nodes=990)",
        ]),
    ])
    def test_document_explored_once(self, command, lines, tmp_path,
                                    capsys):
        """Both properties share one exploration of the 35-state graph
        (one exploration per property expanded 70 states)."""
        out = tmp_path / "m.json"
        before = counters_snapshot().get("product.states_expanded", 0)
        assert main([command, AUCTION, "--metrics-json", str(out)]) == 0
        assert _untimed(capsys.readouterr().out) == lines
        registry = json.loads(out.read_text())["registry"]
        expanded = registry["counters"]["product.states_expanded"] - before
        assert expanded == 35

    def test_non_input_bounded_property_refused(self, tmp_path, capsys):
        path = tmp_path / "unbounded.dws"
        path.write_text(SPEC + "property unbounded:\n"
                               "    G( exists y: R.got(y) )\n")
        assert main(["verify", str(path)]) == 2
        err = capsys.readouterr().err
        assert ("error: verification requires input-bounded "
                "specifications (Theorem 3.4); violations:\n[property] "
                "no input/prev-input/flat-queue guard atom covers the "
                "quantified variables ['y']") in err


@pytest.mark.obs
class TestObservabilityFlags:
    def test_verify_writes_metrics_json(self, spec_file, tmp_path, capsys):
        out = tmp_path / "m.json"
        code = main(["verify", spec_file, "--property", "safety",
                     "--metrics-json", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == "repro.metrics/2"
        assert payload["command"] == "verify"
        assert payload["registry"]["schema"] == "repro.metrics/2"
        (entry,) = payload["results"]
        assert entry["property"] == "safety"
        assert entry["verdict"] == "SATISFIED"
        assert entry["stats"]["phase_seconds"]
        assert entry["stats"]["rule_cache"].get("misses", 0) > 0

    def test_verify_writes_trace_jsonl(self, spec_file, tmp_path, capsys):
        out = tmp_path / "t.jsonl"
        code = main(["verify", spec_file, "--property", "safety",
                     "--trace", str(out)])
        assert code == 0
        events = [json.loads(line)
                  for line in out.read_text().splitlines() if line]
        assert events[0]["name"] == "stream-start"
        # CLI entry points open a run-ledger context, so every event is
        # stamped with the run id
        assert all(ev.get("run") for ev in events)
        names = {ev["name"] for ev in events}
        assert {"search", "expand"} <= names
        # tracing is switched back off after main() returns
        from repro.obs import tracing_enabled
        assert not tracing_enabled()

    def test_check_accepts_metrics_json(self, spec_file, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert main(["check", spec_file,
                     "--metrics-json", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["command"] == "check"
        assert payload["results"][0]["violations"] == []

    def test_simulate_accepts_trace(self, spec_file, tmp_path, capsys):
        out = tmp_path / "t.jsonl"
        assert main(["simulate", spec_file, "--steps", "3",
                     "--trace", str(out)]) == 0
        assert out.exists()


class TestProfileCommand:
    def test_profile_spec_file(self, spec_file, capsys):
        code = main(["profile", spec_file, "--property", "safety"])
        out = capsys.readouterr().out
        assert code == 0
        assert "safety: SATISFIED" in out
        assert "total (wall)" in out
        assert "(other)" in out
        assert "search" in out

    def test_profile_library_target(self, capsys):
        code = main(["profile", "loan",
                     "--property", "bank_policy_pointwise"])
        out = capsys.readouterr().out
        assert code == 0
        assert "bank_policy_pointwise: SATISFIED" in out
        assert "rule cache:" in out

    def test_profile_phase_rows_sum_to_wall(self, spec_file, capsys):
        assert main(["profile", spec_file, "--property", "safety"]) == 0
        out = capsys.readouterr().out
        import re
        rows = {}
        for line in out.splitlines():
            m = re.match(r"\s+(.+?)\s+(?:\d+|-)?\s*(\d+\.\d+)s\s+"
                         r"\d+\.\d+%\s*$", line)
            if m:
                rows[m.group(1).strip()] = float(m.group(2))
        wall = rows.pop("total (wall)")
        assert rows, "no phase rows parsed"
        # rows are exclusive self-times plus the uninstrumented
        # remainder, so up to per-row rounding they sum to the wall
        assert sum(rows.values()) == pytest.approx(
            wall, abs=0.002 * (len(rows) + 1))

    def test_profile_unknown_library(self, capsys):
        assert main(["profile", "nosuchlib"]) == 2
        assert "error:" in capsys.readouterr().err


def test_cli_import_loads_no_process_pool_modules():
    """Every sweep runs in process, so the CLI's cold import pays for
    no multiprocessing or concurrent.futures machinery."""
    root = Path(__file__).resolve().parent.parent
    probe = ("import sys, repro.cli; print(sorted(m for m in sys.modules "
             "if m.split('.')[0] == 'multiprocessing' "
             "or m.startswith('concurrent.futures')))")
    out = subprocess.run(
        [sys.executable, "-c", probe], cwd=root, check=True,
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
    ).stdout
    assert out.strip() == "[]"
