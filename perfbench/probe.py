"""Set-up probe: a fresh interpreter imports unruh from the checkout and
runs a workload's first sweep up to its first row with r > 0, then exits at
once.

    python3 perfbench/probe.py WORKLOAD SEED SCRATCH_DIR

Every seed thus reaches the same kind of row. A row at r = 0 (the first one
at seed 0) would not: the scalar closed route returns there before its
block sum and never imports scipy. run.py times this process from start to
exit; nothing is written.
"""

from __future__ import annotations

import os
import sys

from sweeps import FirstRowDone, RowRecorder, load_unruh
from workloads import WORKLOADS


def main(argv) -> int:
    name, seed, scratch = argv
    unruh = load_unruh(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    first_argv = WORKLOADS[name].argvs(int(seed))[0]
    with RowRecorder(unruh.sweep, stop_at_positive_r=True) as rec:
        try:
            unruh.cli.main(first_argv + ["--out", os.path.join(scratch, "probe.csv")])
        except FirstRowDone:
            pass
    if not rec.rows or rec.rows[-1][1] is None or not rec.rows[-1][1].r > 0:
        print("error: no row with r > 0 was computed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    code = main(sys.argv[1:])
    sys.stderr.flush()
    os._exit(code)  # skip interpreter teardown: it is not set-up time
