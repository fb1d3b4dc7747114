#!/usr/bin/env python3
"""The front-end configuration engine end to end (paper Figure 4).

1. Write a workload specification file (the paper's first input).
2. Answer the engine's four questions.
3. The engine maps the answers to strategies (Table 1), generates the
   XML deployment plan with EDMS priorities, and validates it —
   including refusing an invalid hand-edited plan.
4. The XML plan is deployed: checked against the plan its own workload
   and combination generate, then built and run.  The same decision,
   emitted as a declarative ``repro.api`` Scenario that round-trips
   through JSON, runs the identical system through a Session.
"""

import os
import tempfile
from pathlib import Path

from repro.api import Scenario, Session
from repro.config import ConfigurationEngine
from repro.errors import ConfigurationError, InvalidStrategyCombination
from repro.core.strategies import StrategyCombo

DURATION = float(os.environ.get("REPRO_EXAMPLE_DURATION", "60.0"))

WORKLOAD_SPEC = """\
# Conveyor-line workload: two end-to-end tasks over three processors.
processors lineA lineB lineC
manager task_manager

task belt_control periodic deadline=0.5 period=0.5
  subtask exec=0.02 on=lineA replicas=lineB
  subtask exec=0.03 on=lineB replicas=lineC

task jam_alert aperiodic deadline=0.25
  subtask exec=0.01 on=lineA replicas=lineC
  subtask exec=0.02 on=lineC replicas=lineB
"""

ANSWERS = {
    "job_skipping": "Y",            # loss-tolerant alerts
    "replicated_components": "Y",   # duplicates above
    "state_persistence": "N",       # stateless proportional control
    "overhead_tolerance": "PJ",     # accept per-job overhead
}


def main() -> None:
    engine = ConfigurationEngine()

    with tempfile.TemporaryDirectory() as tmp:
        spec_path = Path(tmp) / "conveyor.spec"
        spec_path.write_text(WORKLOAD_SPEC)
        result = engine.configure_from_files(spec_path, ANSWERS)

    print("questionnaire answers  :", ANSWERS)
    print("mapped strategy combo  :", result.combo.label)
    for note in result.notes:
        print("engine note            :", note)

    print("\n--- generated XML deployment plan (excerpt) ---")
    for line in result.xml.splitlines()[:28]:
        print(line)
    print("  ... "
          f"({len(result.plan.instances)} instances, "
          f"{len(result.plan.connections)} connections total)")

    # The engine refuses invalid combinations outright.
    print("\n--- invalid configuration attempt ---")
    try:
        engine.configure(
            result.workload, combo=StrategyCombo.from_label("T_J_N")
        )
    except InvalidStrategyCombination as exc:
        print(f"rejected as expected: {exc}")

    # The decision as a declarative scenario, round-tripped through JSON.
    scenario = engine.scenario(result, duration=DURATION, seed=1)
    restored = Scenario.from_json_str(scenario.to_json_str())
    assert restored == scenario
    print("\n--- scenario JSON round-trip ---")
    print(f"combo={restored.combo} duration={restored.duration:.0f}s "
          f"seed={restored.seed} (round-trip exact)")

    # A hand-edited plan that says something its workload and combo do
    # not generate is refused before any component exists.
    edited = result.xml.replace("per_job", "per_task", 1)
    assert edited != result.xml
    try:
        engine.deploy_xml(edited)
    except ConfigurationError as exc:
        print(f"edited plan refused: {exc}")

    # Deploy the XML plan just emitted and run it (Figure 4: configure ->
    # XML -> deploy); the Session builds the identical system.
    system = engine.deploy_xml(result.xml, seed=1)
    run = system.run(DURATION)
    session_run = Session(restored).run()
    assert session_run.accepted_utilization_ratio == run.accepted_utilization_ratio
    print(f"\n--- deployed system run ({DURATION:.0f} s) ---")
    print(f"accepted utilization ratio : {run.accepted_utilization_ratio:.3f}"
          " (the Session run agrees)")
    print(f"jobs arrived / released    : "
          f"{run.metrics.arrived_jobs} / {run.metrics.released_jobs}")
    print(f"deadline misses            : {run.deadline_misses}")


if __name__ == "__main__":
    main()
