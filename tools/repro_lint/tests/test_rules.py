"""Per-rule fixture tests: every rule has positive and negative cases.

Each ``fixtures/rlNNN_positive.py`` marks its expected findings with a
trailing ``# expect: RLNNN`` comment; the test lints the fixture under a
virtual path *inside* the rule's scope and requires the reported
``(rule, line)`` pairs to match the markers exactly.  Negative fixtures
must produce zero findings for their rule.  Path-scoped rules are
additionally checked to stay silent when the same positive source is
linted from outside their scope.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro_lint.engine import LintEngine, lint_source
from repro_lint.rules import all_rules, rule_classes

FIXTURES = Path(__file__).parent / "fixtures"

#: rule id -> virtual repo-relative path inside the rule's scope.
IN_SCOPE_PATH = {
    "RL001": "src/repro/sched/fixture.py",
    "RL002": "src/repro/workloads/fixture.py",
    "RL003": "src/repro/core/fixture.py",
    "RL004": "src/repro/metrics/fixture.py",
    "RL005": "src/repro/api/fixture.py",
    "RL006": "src/repro/experiments/fixture.py",
    "RL008": "src/repro/config/fixture.py",
    "RL009": "src/repro/sim/fixture.py",
    "RL010": "src/repro/experiments/fixture.py",
    "RL011": "src/repro/api/fixture.py",
    "RL012": "src/repro/api/fixture.py",
    "RL013": "src/repro/experiments/fixture.py",
    "RL014": "src/repro/net/fixture.py",
    "RL015": "src/repro/sched/fixture.py",
    "RL016": "src/repro/sim/fixture.py",
    "RL017": "src/repro/core/fixture.py",
}

#: rule id -> a path the rule's scope excludes (None: rule is unscoped).
OUT_OF_SCOPE_PATH = {
    "RL001": "bench_e2e/fixture.py",
    "RL002": "src/repro/sim/rng.py",
    "RL003": "tests/fixture.py",
    "RL004": "tests/test_property_fixture.py",
    "RL005": None,
    "RL006": None,
    "RL008": None,
    "RL009": "src/repro/cli.py",
    "RL010": None,
    "RL011": "src/repro/sched/fixture.py",
    "RL012": "src/repro/core/fixture.py",
    "RL013": None,
    "RL014": None,
    "RL015": "tests/fixture.py",
    "RL016": "tests/fixture.py",
    "RL017": "tests/fixture.py",
}

RULE_IDS = sorted(IN_SCOPE_PATH)


def expected_lines(source: str, rule_id: str):
    marker = re.compile(rf"#\s*expect:\s*{rule_id}\b")
    return sorted(
        lineno
        for lineno, line in enumerate(source.splitlines(), start=1)
        if marker.search(line)
    )


def findings_for(source: str, path: str, rule_id: str):
    return [f for f in lint_source(source, path) if f.rule_id == rule_id]


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_positive_fixture_reports_every_marked_line(rule_id):
    source = (FIXTURES / f"{rule_id.lower()}_positive.py").read_text()
    expected = expected_lines(source, rule_id)
    assert expected, f"fixture for {rule_id} must mark expected findings"
    found = findings_for(source, IN_SCOPE_PATH[rule_id], rule_id)
    assert sorted(f.line for f in found) == expected


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_negative_fixture_is_clean(rule_id):
    source = (FIXTURES / f"{rule_id.lower()}_negative.py").read_text()
    found = findings_for(source, IN_SCOPE_PATH[rule_id], rule_id)
    assert found == []


@pytest.mark.parametrize(
    "rule_id", [r for r in RULE_IDS if OUT_OF_SCOPE_PATH[r] is not None]
)
def test_positive_fixture_is_out_of_scope_elsewhere(rule_id):
    source = (FIXTURES / f"{rule_id.lower()}_positive.py").read_text()
    found = findings_for(source, OUT_OF_SCOPE_PATH[rule_id], rule_id)
    assert found == []


# ----------------------------------------------------------------------
# RL007 is project-level: exercised against a scratch repo tree.
# ----------------------------------------------------------------------
def _rl007_tree(tmp_path: Path, init_fixture: str) -> LintEngine:
    api_dir = tmp_path / "src" / "repro" / "api"
    api_dir.mkdir(parents=True)
    (api_dir / "__init__.py").write_text(
        (FIXTURES / init_fixture).read_text()
    )
    docs = tmp_path / "docs"
    docs.mkdir()
    (docs / "API.md").write_text((FIXTURES / "rl007_doc.md").read_text())
    return LintEngine(all_rules(), root=tmp_path)


def test_rl007_reports_undocumented_export(tmp_path):
    engine = _rl007_tree(tmp_path, "rl007_init_positive.py")
    findings, errors = engine.lint_paths([tmp_path / "src"])
    assert errors == []
    rl007 = [f for f in findings if f.rule_id == "RL007"]
    assert len(rl007) == 1
    assert "HiddenKnob" in rl007[0].message
    init_source = (FIXTURES / "rl007_init_positive.py").read_text()
    assert [rl007[0].line] == expected_lines(init_source, "RL007")


def test_rl007_clean_when_everything_documented(tmp_path):
    engine = _rl007_tree(tmp_path, "rl007_init_negative.py")
    findings, errors = engine.lint_paths([tmp_path / "src"])
    assert errors == []
    assert [f for f in findings if f.rule_id == "RL007"] == []


def test_rl007_reports_missing_api_doc(tmp_path):
    engine = _rl007_tree(tmp_path, "rl007_init_positive.py")
    (tmp_path / "docs" / "API.md").unlink()
    findings, _ = engine.lint_paths([tmp_path / "src"])
    rl007 = [f for f in findings if f.rule_id == "RL007"]
    assert len(rl007) == 1
    assert "docs/API.md is missing" in rl007[0].message


# ----------------------------------------------------------------------
# The acceptance scenario: a seeded violation in a real hot-path module.
# ----------------------------------------------------------------------
def test_seeded_wallclock_in_aub_is_caught():
    source = (
        "import time\n"
        "def admissible(self, now):\n"
        "    started = time.time()\n"
        "    return started\n"
    )
    found = findings_for(source, "src/repro/sched/aub.py", "RL001")
    assert [f.line for f in found] == [3]


def test_every_registered_rule_has_fixture_coverage():
    covered = set(RULE_IDS) | {"RL007"}
    assert covered == set(rule_classes())


# ----------------------------------------------------------------------
# Cross-module behavior of the flow-aware rules: the engine builds one
# ProjectIndex over every scanned file, so references resolved through
# from-imports participate in the analysis.
# ----------------------------------------------------------------------
def _lint_tree(tmp_path: Path, sources) -> list:
    for rel, text in sources.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text)
    engine = LintEngine(all_rules(), root=tmp_path)
    findings, errors = engine.lint_paths([tmp_path / "src"])
    assert errors == []
    return findings


def test_rl010_cross_module_lambda_payload(tmp_path):
    findings = _lint_tree(
        tmp_path,
        {
            "src/repro/experiments/helpers.py": "cell = lambda a: a + 1\n",
            "src/repro/experiments/main.py": (
                "from repro.experiments.helpers import cell\n"
                "from repro.experiments.runner import run_cells\n"
                "def main(data):\n"
                "    return run_cells(cell, data)\n"
            ),
        },
    )
    rl010 = [f for f in findings if f.rule_id == "RL010"]
    assert len(rl010) == 1
    assert rl010[0].path == "src/repro/experiments/main.py"
    assert "repro.experiments.helpers" in rl010[0].message


def test_rl013_cross_module_env_read_chain(tmp_path):
    findings = _lint_tree(
        tmp_path,
        {
            "src/repro/experiments/knobs.py": (
                "import os\n"
                "def scale_factor():\n"
                "    return float(os.environ.get('SCALE', '1'))\n"
            ),
            "src/repro/experiments/main.py": (
                "from repro.experiments.knobs import scale_factor\n"
                "from repro.experiments.runner import run_cells\n"
                "def cell(a):\n"
                "    return a * scale_factor()\n"
                "def main(data):\n"
                "    return run_cells(cell, data)\n"
            ),
        },
    )
    rl013 = [f for f in findings if f.rule_id == "RL013"]
    assert len(rl013) == 1
    assert rl013[0].path == "src/repro/experiments/main.py"
    assert "'cell'" in rl013[0].message
    assert "scale_factor" in rl013[0].message


def test_rl013_repro_env_helper_counts_as_env_read(tmp_path):
    findings = _lint_tree(
        tmp_path,
        {
            "src/repro/env.py": (
                "import os\n"
                "def workers_override():\n"
                "    return os.environ.get('REPRO_WORKERS')\n"
            ),
            "src/repro/experiments/main.py": (
                "from repro.env import workers_override\n"
                "from repro.experiments.runner import run_cells\n"
                "def cell(a):\n"
                "    return (a, workers_override())\n"
                "def main(data):\n"
                "    return run_cells(cell, data)\n"
            ),
        },
    )
    rl013 = [f for f in findings if f.rule_id == "RL013"]
    assert len(rl013) == 1
    assert "repro.env.workers_override" in rl013[0].message


def test_rl016_cross_module_stream_sharing(tmp_path):
    findings = _lint_tree(
        tmp_path,
        {
            "src/repro/workloads/arrivals.py": (
                "def plan(rngs):\n"
                "    return rngs.stream('jitter').random()\n"
            ),
            "src/repro/net/latency.py": (
                "def delay(rngs):\n"
                "    return rngs.stream('jitter').random()\n"
            ),
        },
    )
    rl016 = [f for f in findings if f.rule_id == "RL016"]
    assert len(rl016) == 2
    assert {f.path for f in rl016} == {
        "src/repro/workloads/arrivals.py",
        "src/repro/net/latency.py",
    }


def test_index_findings_honor_inline_suppressions(tmp_path):
    findings = _lint_tree(
        tmp_path,
        {
            "src/repro/workloads/arrivals.py": (
                "def plan(rngs):\n"
                "    # repro-lint: disable=RL016\n"
                "    return rngs.stream('jitter').random()\n"
            ),
            "src/repro/net/latency.py": (
                "def delay(rngs):\n"
                "    return rngs.stream('jitter').random()\n"
            ),
        },
    )
    rl016 = [f for f in findings if f.rule_id == "RL016"]
    assert [f.path for f in rl016] == ["src/repro/net/latency.py"]
