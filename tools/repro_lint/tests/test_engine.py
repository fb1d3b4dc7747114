"""Engine behavior: suppressions, baseline lifecycle, CLI contract."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro_lint.baseline import Baseline
from repro_lint.cli import main
from repro_lint.engine import Finding, lint_source

REPO_ROOT = Path(__file__).resolve().parents[3]

POSITIVE = "def f(acc=[]):\n    return acc\n"


# ----------------------------------------------------------------------
# Inline suppressions
# ----------------------------------------------------------------------
def test_same_line_suppression():
    source = "def f(acc=[]):  # repro-lint: disable=RL008\n    return acc\n"
    assert lint_source(source, "src/repro/x.py") == []


def test_previous_line_suppression():
    source = (
        "# repro-lint: disable=RL008\n"
        "def f(acc=[]):\n"
        "    return acc\n"
    )
    assert lint_source(source, "src/repro/x.py") == []


def test_disable_all_and_multiple_rules():
    source = (
        "import os\n"
        "def f(acc=[]):  # repro-lint: disable=RL008,RL009\n"
        "    return acc, os.getenv('X')\n"
    )
    found = lint_source(source, "src/repro/x.py")
    # RL008 suppressed on line 2; the env read on line 3 still fires.
    assert [f.rule_id for f in found] == ["RL009"]
    source_all = source.replace("disable=RL008,RL009", "disable=all")
    found_all = lint_source(source_all, "src/repro/x.py")
    assert [f.rule_id for f in found_all] == ["RL009"]


def test_suppressing_a_different_rule_does_not_hide_findings():
    source = "def f(acc=[]):  # repro-lint: disable=RL001\n    return acc\n"
    found = lint_source(source, "src/repro/x.py")
    assert [f.rule_id for f in found] == ["RL008"]


# ----------------------------------------------------------------------
# Baseline lifecycle
# ----------------------------------------------------------------------
def _finding(message="m", rule="RL008", path="src/repro/x.py", line=1):
    return Finding(path=path, line=line, col=0, rule_id=rule, message=message)


def test_baseline_multiset_matching():
    entries = [
        {"rule": "RL008", "path": "src/repro/x.py", "message": "m",
         "justification": "grandfathered"},
    ]
    baseline = Baseline(entries)
    # Two identical findings, one baseline entry: one stays fresh.
    fresh, stale = baseline.split([_finding(line=1), _finding(line=9)])
    assert len(fresh) == 1 and stale == []
    # Line numbers are irrelevant to matching.
    fresh, stale = baseline.split([_finding(line=42)])
    assert fresh == [] and stale == []
    # No findings at all: the entry is stale.
    fresh, stale = baseline.split([])
    assert fresh == [] and len(stale) == 1


def test_baseline_regeneration_preserves_justifications(tmp_path):
    previous = Baseline(
        [
            {"rule": "RL008", "path": "src/repro/x.py", "message": "m",
             "justification": "because reasons"},
        ]
    )
    regenerated = Baseline.from_findings(
        [_finding(), _finding(message="new one")], previous
    )
    by_message = {e["message"]: e["justification"] for e in regenerated.entries}
    assert by_message["m"] == "because reasons"
    assert by_message["new one"] == "TODO: justify"
    target = tmp_path / "baseline.json"
    regenerated.save(target)
    assert Baseline.load(target).entries == sorted(
        regenerated.entries, key=Baseline._key
    )


def test_baseline_rejects_malformed_files(tmp_path):
    bad_version = tmp_path / "v.json"
    bad_version.write_text(json.dumps({"version": 99, "findings": []}))
    with pytest.raises(ValueError, match="unsupported baseline version"):
        Baseline.load(bad_version)
    missing_field = tmp_path / "f.json"
    missing_field.write_text(
        json.dumps({"version": 1, "findings": [{"rule": "RL008"}]})
    )
    with pytest.raises(ValueError, match="missing field"):
        Baseline.load(missing_field)


# ----------------------------------------------------------------------
# CLI contract
# ----------------------------------------------------------------------
def _write_tree(tmp_path: Path, source: str) -> Path:
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    (pkg / "mod.py").write_text(source)
    return tmp_path


def test_cli_exit_codes(tmp_path, capsys):
    root = _write_tree(tmp_path, POSITIVE)
    argv = ["--root", str(root), str(root / "src")]
    assert main(argv) == 1  # findings
    (root / "src" / "repro" / "mod.py").write_text("x = 1\n")
    assert main(argv) == 0  # clean
    assert main(["--root", str(root), str(root / "nope")]) == 2  # bad path
    (root / "src" / "repro" / "mod.py").write_text("def broken(:\n")
    assert main(argv) == 2  # syntax error
    capsys.readouterr()


def test_cli_json_output(tmp_path, capsys):
    root = _write_tree(tmp_path, POSITIVE)
    rc = main(["--root", str(root), "--format", "json", str(root / "src")])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert payload["baselined"] == 0
    assert [f["rule"] for f in payload["findings"]] == ["RL008"]
    assert payload["findings"][0]["path"].endswith("mod.py")


def test_cli_write_baseline_then_clean(tmp_path, capsys):
    root = _write_tree(tmp_path, POSITIVE)
    baseline = "baseline.json"
    argv = ["--root", str(root), "--baseline", baseline, str(root / "src")]
    assert main(argv + ["--write-baseline"]) == 0
    entries = json.loads((root / baseline).read_text())["findings"]
    assert len(entries) == 1 and entries[0]["justification"] == "TODO: justify"
    assert main(argv) == 0  # baselined -> clean
    assert main(argv + ["--no-baseline"]) == 1  # ignoring baseline -> dirty
    capsys.readouterr()


def test_cli_stale_baseline_entries_fail(tmp_path, capsys):
    root = _write_tree(tmp_path, POSITIVE)
    baseline = "baseline.json"
    argv = ["--root", str(root), "--baseline", baseline, str(root / "src")]
    assert main(argv + ["--write-baseline"]) == 0
    (root / "src" / "repro" / "mod.py").write_text("x = 1\n")
    assert main(argv) == 1  # stale entries fail until pruned
    out = capsys.readouterr().out
    assert "stale baseline" in out and "--prune-baseline" in out


def test_cli_prune_baseline_drops_stale_entries(tmp_path, capsys):
    root = _write_tree(tmp_path, POSITIVE)
    baseline = "baseline.json"
    argv = ["--root", str(root), "--baseline", baseline, str(root / "src")]
    assert main(argv + ["--write-baseline"]) == 0
    (root / "src" / "repro" / "mod.py").write_text("x = 1\n")
    assert main(argv + ["--prune-baseline"]) == 0
    out = capsys.readouterr().out
    assert "pruned 1 stale baseline entry" in out
    entries = json.loads((root / baseline).read_text())["findings"]
    assert entries == []
    assert main(argv) == 0  # clean after the prune


def test_cli_prune_baseline_keeps_live_entries(tmp_path, capsys):
    root = _write_tree(tmp_path, POSITIVE)
    baseline = "baseline.json"
    argv = ["--root", str(root), "--baseline", baseline, str(root / "src")]
    assert main(argv + ["--write-baseline"]) == 0
    assert main(argv + ["--prune-baseline"]) == 0
    out = capsys.readouterr().out
    assert "no stale entries" in out
    entries = json.loads((root / baseline).read_text())["findings"]
    assert len(entries) == 1  # still covering the live finding


def test_cli_stale_baseline_entries_fail_in_json_format(tmp_path, capsys):
    root = _write_tree(tmp_path, POSITIVE)
    baseline = "baseline.json"
    argv = ["--root", str(root), "--baseline", baseline, str(root / "src")]
    assert main(argv + ["--write-baseline"]) == 0
    (root / "src" / "repro" / "mod.py").write_text("x = 1\n")
    capsys.readouterr()
    rc = main(argv + ["--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert payload["findings"] == []
    assert len(payload["stale_baseline_entries"]) == 1


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in [f"RL00{i}" for i in range(1, 10)] + [
        f"RL01{i}" for i in range(7)
    ]:
        assert rule_id in out


# ----------------------------------------------------------------------
# End to end: the real tree must be clean against the committed baseline.
# ----------------------------------------------------------------------
def test_repository_is_lint_clean():
    rc = main(
        ["--root", str(REPO_ROOT)]
        + [
            str(REPO_ROOT / part)
            for part in ("src", "tests", "examples", "tools")
        ]
    )
    assert rc == 0, "repo has non-baselined or stale repro-lint findings"
