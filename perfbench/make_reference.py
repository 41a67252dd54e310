"""Regenerate the reference outputs the benchmark checks against.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Run from the root of a checkout of the baseline commit.  Runs one untraced
pass of each workload at REFERENCE_SEED and copies its CSV to
``perfbench/reference/<workload>.csv``; a workload with ``wilson_trel`` also
gets its Wilson invariants in ``reference/<workload>_wilson.csv``.  Only a deliberate change of the
expected results should regenerate these files.
"""

import os
import shutil
import sys
import time

from checks import REFERENCE, WILSON_COLUMNS
from run import child_env, spawn_pass
from workloads import WORKLOADS

REFERENCE_SEED = 2106


def main(names) -> int:
    root = os.getcwd()
    env = child_env()
    for name in names or sorted(WORKLOADS):
        shutil.rmtree(os.path.join(root, ".perfbench_out", name), ignore_errors=True)
        result, out = spawn_pass(root, name, REFERENCE_SEED, 0, False, env, None,
                                 time.monotonic() + 600)
        if result is None:
            print(f"{name}: pass failed", file=sys.stderr)
            return 1
        shutil.copyfile(out, os.path.join(REFERENCE, f"{name}.csv"))
        if WORKLOADS[name].wilson_trel:
            with open(os.path.join(REFERENCE, f"{name}_wilson.csv"), "w",
                      encoding="utf-8") as fh:
                fh.write(",".join(WILSON_COLUMNS) + "\n")
                fh.writelines(",".join(map(repr, row)) + "\n" for row in result["wilson"])
        print(f"{name}: wall {result['wall_s']:.2f} s -> reference/{name}.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
