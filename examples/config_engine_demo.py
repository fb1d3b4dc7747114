#!/usr/bin/env python3
"""The front-end configuration engine end to end (paper Figure 4).

1. Describe the application in a scenario file (the paper's workload
   specification): here a conveyor-line workload as scenario JSON text.
2. Answer the engine's four questions.
3. The engine maps the answers to strategies (Table 1), notes any
   feasibility clamp, and refuses an invalid combination outright.
4. The input scenario with the mapped combination is the configured
   run: it round-trips through JSON, and a Session deploys and runs it.
"""

import os

from repro.api import Scenario, Session
from repro.config import ApplicationCharacteristics, ConfigurationEngine
from repro.core.strategies import StrategyCombo
from repro.errors import InvalidStrategyCombination

DURATION = float(os.environ.get("REPRO_EXAMPLE_DURATION", "60.0"))

#: Conveyor-line workload: two end-to-end tasks over three processors,
#: each stage with one duplicate.  Omitted fields take their defaults.
SCENARIO_JSON = """\
{
  "seed": 1,
  "workload": {
    "kind": "explicit",
    "workload": {
      "app_nodes": ["lineA", "lineB", "lineC"],
      "tasks": [
        {"task_id": "belt_control", "kind": "periodic",
         "deadline": 0.5, "period": 0.5,
         "subtasks": [
           {"index": 0, "execution_time": 0.02, "home": "lineA",
            "replicas": ["lineB"]},
           {"index": 1, "execution_time": 0.03, "home": "lineB",
            "replicas": ["lineC"]}]},
        {"task_id": "jam_alert", "kind": "aperiodic", "deadline": 0.25,
         "subtasks": [
           {"index": 0, "execution_time": 0.01, "home": "lineA",
            "replicas": ["lineC"]},
           {"index": 1, "execution_time": 0.02, "home": "lineC",
            "replicas": ["lineB"]}]}
      ]
    }
  }
}
"""

ANSWERS = {
    "job_skipping": "Y",            # loss-tolerant alerts
    "replicated_components": "Y",   # duplicates above
    "state_persistence": "N",       # stateless proportional control
    "overhead_tolerance": "PJ",     # accept per-job overhead
}


def main() -> None:
    scenario = Scenario.from_json_str(SCENARIO_JSON)
    workload = scenario.workload.materialize()
    characteristics = ApplicationCharacteristics.from_answers(ANSWERS)
    engine = ConfigurationEngine()
    result = engine.configure(workload, characteristics)

    print("questionnaire answers  :", ANSWERS)
    print("characteristics        :", characteristics.describe())
    print("Table 1 strategy combo :", result.combo.label)
    for note in result.notes:
        print("engine note            :", note)

    # The engine refuses invalid combinations outright.
    print("\n--- invalid configuration attempt ---")
    try:
        engine.configure(workload, combo=StrategyCombo.from_label("T_J_N"))
    except InvalidStrategyCombination as exc:
        print(f"rejected as expected: {exc}")

    # The configured run: the input scenario with the mapped combo.
    configured = scenario.with_changes(
        combo=result.combo.label, duration=DURATION
    )
    restored = Scenario.from_json_str(configured.to_json_str())
    assert restored == configured
    print("\n--- configured scenario ---")
    print(f"combo={restored.combo} duration={restored.duration:.0f}s "
          f"seed={restored.seed} (JSON round-trip exact)")

    run = Session(restored).run()
    print(f"\n--- Session run ({DURATION:.0f} s) ---")
    print(f"accepted utilization ratio : {run.accepted_utilization_ratio:.3f}")
    print(f"jobs arrived / released    : "
          f"{run.arrived_jobs} / {run.released_jobs}")
    print(f"deadline misses            : {run.deadline_misses}")


if __name__ == "__main__":
    main()
