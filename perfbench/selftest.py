"""Self-test of the tracing wrappers and the output checks.

    python3 perfbench/selftest.py [WORKLOAD ...]

Run from the root of a checkout.  For each workload it runs one untraced and
one traced pass at CHECK_SEED, a seed other than the reference seed, and
checks that

* the traced call counts equal the call structure of the baseline commit
  (EXPECTED_COUNTS), so no call path escapes the wrappers and no layer is
  absent;
* the traced CSV is byte-identical to the untraced one apart from the
  ``# generated`` line.  Both passes pin the eigensolver's start vector,
  because ``eigsh`` otherwise draws it from OS entropy and ``gap_sweep``'s
  output then changes in its last digits from pass to pass;
* every output value passes its correctness check.

A change that alters the call structure on purpose (say, building each
generator once instead of once per start) changes EXPECTED_COUNTS with it.
"""

import os
import shutil
import sys
import time

from checks import check_pass, csv_body, max_abs_diff
from run import child_env, cpu_caches, spawn_pass
from tracing import PER_LAYER
from workloads import WORKLOADS

CHECK_SEED = 7  # any seed but make_reference.REFERENCE_SEED

# Call counts at the baseline commit: 3 k x 5 starts generator builds and
# 3 x 5 x 40 transients; 20 times x (1 pair generator, 16 Wilson starts);
# one replica per simulate call.
EXPECTED_COUNTS = {
    "exact_cutoff": {"spectral.assemble_calls": 15, "spectral.assemble_distinct": 3,
                     "spectral.transient_calls": 600},
    "bound_cutoff": {"spectral.labeled_calls": 20, "spectral.labeled_distinct": 1,
                     "distances.wilson_calls": 320, "distances.spectrum_calls": 321},
    "mc_crossing": {"simulate.replicas": WORKLOADS["mc_crossing"].config["replicas"]},
    "gap_sweep": {"spectral.assemble_calls": 4, "spectral.eig_calls": 6,
                  "spectral.eig_sparse_calls": 1},
}


def main(names) -> int:
    root = os.getcwd()
    env = child_env()
    caches = cpu_caches()
    llc = caches[max(caches)] if caches else None
    problems = 0

    def report(ok, text):
        nonlocal problems
        problems += not ok
        print(f"{'PASS' if ok else 'FAIL'}  {text}")

    for name in names or sorted(WORKLOADS):
        shutil.rmtree(os.path.join(root, ".perfbench_out", name), ignore_errors=True)
        passes = []
        for index, trace in enumerate((False, True)):
            label = "traced" if trace else "untraced"
            result, out = spawn_pass(root, name, CHECK_SEED, index, trace, env, llc,
                                     time.monotonic() + 600, pin_eigsh=True)
            attempted, failed = check_pass(name, result, out)
            report(failed == 0, f"{name}: {attempted - failed}/{attempted} values pass "
                                f"their check at seed {CHECK_SEED} ({label})")
            if result is None:
                break
            passes.append((result, out))
        if len(passes) < 2:
            continue
        (_, plain_out), (traced, traced_out) = passes
        layers = traced["layers"]
        report(not traced["absent"] and set(PER_LAYER) - set(layers) <= {
            "process.cpu_s", "process.cpu_util", "trace.overhead_s"},
            f"{name}: every layer present (absent: {traced['absent'] or 'none'})")
        for key, want in EXPECTED_COUNTS.get(name, {}).items():
            got = layers.get(key)
            report(got == want, f"{name}: {key} = {got:g}, expected {want}")
        plain_body, traced_body = csv_body(plain_out), csv_body(traced_out)
        report(plain_body == traced_body,
               f"{name}: traced CSV byte-identical to untraced" if plain_body == traced_body
               else f"{name}: traced CSV differs from untraced (max absolute difference "
                    f"{max_abs_diff(plain_body, traced_body):.3g})")
    print(f"selftest: {'ok' if problems == 0 else f'{problems} problem(s)'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
