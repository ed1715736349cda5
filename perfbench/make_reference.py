"""Write the committed reference rows of every workload at seed 0.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Each file holds the argv of every sweep and its rows in CSV column order at
full precision (NaN as null). Regenerate only when a change is meant to
alter the numbers, and say so where the change is recorded.
"""

from __future__ import annotations

import json
import math
import os
import sys
import tempfile

from checks import COLUMNS
from run import THREAD_ENV
from sweeps import load_unruh, run_sweep
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))


def main(names) -> int:
    root = os.path.dirname(HERE)
    os.environ.update(THREAD_ENV)
    unruh = load_unruh(root)
    os.makedirs(os.path.join(root, ".bench_build"), exist_ok=True)
    for name in names or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        with tempfile.TemporaryDirectory(dir=os.path.join(root, ".bench_build")) as scratch:
            sweep = run_sweep(unruh, workload.argvs(0), scratch)
        if any(sweep.exit_codes) or any(r is None for rs in sweep.reports for r in rs):
            print(f"error: {name} did not sweep cleanly:\n{sweep.log}", file=sys.stderr)
            return 1
        rows = [[[None if math.isnan(v) else v for v in rep.as_row()] for rep in reports]
                for reports in sweep.reports]
        with open(os.path.join(HERE, "reference", f"{name}.json"), "w") as f:
            f.write(f'{{"columns": {json.dumps(COLUMNS)},\n "argvs": '
                    f'{json.dumps(workload.argvs(0))},\n "rows": [\n')
            f.write(",\n".join("  [\n" + ",\n".join(f"   {json.dumps(row)}" for row in sweep_rows)
                               + "\n  ]" for sweep_rows in rows))
            f.write("\n ]}\n")
        print(f"{name}: {sum(map(len, rows))} rows")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
