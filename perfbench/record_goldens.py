"""Record perfbench/goldens.json from one pass of each workload.

    python3 perfbench/record_goldens.py [--seed N]

Outputs of jobs on fixed graphs are recorded for every seed, the others for
the given seed (default 1).  A workload whose pass fails its own checks is
not recorded.  Run it only on a program whose outputs are trusted.
"""

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    os.chdir(HERE.parent)
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    import workloads

    recorded = json.loads(workloads.GOLDENS.read_text(encoding="utf-8"))
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(args.seed)
        outputs = workload.run(workload.setup())
        failures = workload.check(args.seed, [outputs], goldens={})
        if failures:
            for (_, job), reason in sorted(failures.items()):
                print(f"{name} {job}: {reason}", file=sys.stderr)
            return 1
        values = {job: workload.golden(out) for job, out in zip(workload.jobs, outputs)}
        entry = recorded.setdefault(name, {"fixed": {}, "seeded": {}})
        entry["fixed"] = {j: v for j, v in values.items() if j in workload.FIXED}
        entry["seeded"][str(args.seed)] = {j: v for j, v in values.items() if j not in workload.FIXED}
        print(f"{name}: recorded {len(values)} jobs")
    workloads.GOLDENS.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
