"""Record the per-iteration test error of each workload for seeds 0-10.

    python3 perfbench/record_reference.py

Runs every workload to its full 100 iterations with no instrumentation and
writes ``perfbench/reference.json``, which the benchmark checks its runs
against.  Re-record only when a change is meant to alter the trajectories,
and say why in the change.
"""

from __future__ import annotations

import json
from pathlib import Path

from workloads import WORKLOADS, load_flrlab, settings_hash, workload_config

REFERENCE = Path(__file__).resolve().parent / "reference.json"
SEEDS = range(0, 11)


def main() -> None:
    load_flrlab()
    from flrlab.harness import run_experiment

    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    for name in sorted(WORKLOADS):
        for seed in SEEDS:
            config = workload_config(name, seed)
            trial = run_experiment(config).trial_results[0]
            reference.setdefault(name, {})[str(seed)] = {
                "settings_hash": settings_hash(name, seed),
                "test_error": [r.test_error for r in trial.records],
            }
            REFERENCE.write_text(json.dumps(reference, sort_keys=True) + "\n")
            print(name, seed, trial.final_test_error, flush=True)


if __name__ == "__main__":
    main()
