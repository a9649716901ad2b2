"""Write bench/reference.json: outcome, iteration count and final iterate of
every solver op in the orbit-full and ivp-sweep-full workloads.

    python3 bench/make_reference.py

The benchmark reports deviations from this file (``iterate_dev_max`` and the
ops whose outcome or iteration count changed) without gating on them.
Regenerate it only when a change is meant to alter the iterates, and say why.
"""

import json
import sys

import run


def main():
    run.load_package()
    log = run.SolveLog()
    undo = log.install()
    reference = {}
    try:
        for workload in ("orbit-full", "ivp-sweep-full"):
            for op in run.WORKLOADS[workload].ops():
                try:
                    op.run()
                except Exception as exc:  # record the outcome of every op
                    print(f"{op.name}: raised {type(exc).__name__}: {exc}", file=sys.stderr)
                (record,) = log.take()
                reference[op.name] = {
                    "outcome": record.outcome,
                    "iterations": record.iterations,
                    "z": None if record.z is None else record.z.tolist(),
                }
                print(op.name, record.outcome, record.iterations, flush=True)
    finally:
        undo()
    with open(run.REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
