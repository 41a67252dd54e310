"""binsplit benchmark: runs one experiment workload end to end and reports.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a binsplit checkout.  Load model: closed loop, one
client per lane.  A user runs one experiment config and waits for its CSV, so
every pass is a fresh interpreter (``one_pass.py``) that imports binsplit from
``src/``, parses the config, runs the harness runner and writes its outputs
under ``.perfbench_out/``.  LANES passes run at once, each pinned to its own
CPU with one BLAS thread, so a run samples every CPU it may use: on a shared
host each CPU speeds up and slows down on its own.  In each lane passes repeat
until the next one would overrun ``--seconds``; every pass's outputs are
checked against ``reference/``.

``--trace 0`` reports the end-to-end metrics: each one's largest value over
the run's passes (see END_TO_END).
``--trace 1`` alternates untraced and traced passes in each lane and reports
the per-layer metrics of the traced ones; ``trace.overhead_s`` is the
difference in wall time.  The last stdout line is one JSON object: correct,
attempted, failed, metrics.  Exits 2 without a result when ``src/binsplit`` is
missing.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import yaml

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from checks import check_pass  # noqa: E402
from tracing import PER_LAYER  # noqa: E402
from workloads import WORKLOADS, experiment_config  # noqa: E402

# Each is reported as its largest value over the run's passes.  On a shared
# host the neighbours keep each CPU busy most of the time and quiet spells come
# and go; the slowest pass reads the busy level, which holds from run to run,
# while the median drops with the share of a run that fell in a quiet spell.
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
RUN_DEADLINE_S = 170.0  # a run must end within 180 s
LANES = 2         # passes run at once, each pinned to one of the first LANES CPUs
BLAS_THREADS = 1  # per pass, so two lanes never ask for more threads than CPUs


def cpu_caches():
    """Data/unified cache size by level for cpu0 from sysfs ({} if unreadable)."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    sizes = {}
    try:
        for entry in sorted(os.listdir(base)):
            if not entry.startswith("index"):
                continue
            fields = {}
            for key in ("level", "type", "size"):
                with open(os.path.join(base, entry, key), encoding="utf-8") as fh:
                    fields[key] = fh.read().strip()
            if fields["type"] == "Instruction":
                continue
            text = fields["size"]
            scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1], 1)
            sizes[int(fields["level"])] = int(text.rstrip("KMG")) * scale
    except (OSError, ValueError):
        return {}
    return sizes


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("PYTHONPATH", None)
    return env


def start_pass(root, name, seed, index, trace, env, llc, cpu=None, pin_eigsh=False):
    """Start one pass in a fresh process, pinned to ``cpu`` if given; return
    the handle ``finish_pass`` takes.  ``pin_eigsh`` fixes the eigensolver's
    start vector (see one_pass.py)."""
    workload = WORKLOADS[name]
    pass_dir = os.path.join(root, ".perfbench_out", name, f"pass{index:02d}")
    os.makedirs(pass_dir)
    with open(os.path.join(pass_dir, "config.yaml"), "w", encoding="utf-8") as fh:
        # YAML, not JSON: PyYAML reads JSON's "1e-09" as a string
        yaml.safe_dump(experiment_config(name, seed, os.path.join(pass_dir, "out")), fh)
    with open(os.path.join(pass_dir, "meta.json"), "w", encoding="utf-8") as fh:
        json.dump({"runner": workload.runner, "llc_bytes": llc,
                   "wilson_trel": list(workload.wilson_trel), "pin_eigsh": pin_eigsh}, fh)
    cmd = [sys.executable, os.path.join(HERE, "one_pass.py"), os.path.join(root, "src"),
           pass_dir, repr(time.monotonic()), "1" if trace else "0"]
    with open(os.path.join(pass_dir, "stderr.txt"), "w", encoding="utf-8") as err:
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=err)
    if cpu is not None:
        try:
            os.sched_setaffinity(proc.pid, {cpu})
        except OSError:
            pass  # the pass already ended; finish_pass reports it
    return proc, pass_dir, os.path.join(pass_dir, "out", workload.csv)


def finish_pass(handle, deadline):
    """Wait for a started pass; return its pass.json dict and the path of its
    output CSV, or (None, None) if it failed or overran ``deadline``."""
    proc, pass_dir, out = handle
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        code = proc.wait()
    result_path = os.path.join(pass_dir, "pass.json")
    if code != 0 or not os.path.exists(result_path) or not os.path.exists(out):
        return None, None
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh), out


def spawn_pass(root, name, seed, index, trace, env, llc, deadline, pin_eigsh=False):
    """Run one pass to the end (see start_pass and finish_pass)."""
    handle = start_pass(root, name, seed, index, trace, env, llc, pin_eigsh=pin_eigsh)
    return finish_pass(handle, deadline)


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summary_line(name, values, unit):
    q1, q2, q3 = quartiles(values)
    return (f"{name:32s} max {max(values):.6g} {unit}  median {q2:.6g}  q1 {q1:.6g}  "
            f"q3 {q3:.6g}  n {len(values)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "binsplit", "__init__.py")):
        print(f"no binsplit sources under {root}/src; run from a checkout root",
              file=sys.stderr)
        return 2
    shutil.rmtree(os.path.join(root, ".perfbench_out", args.workload), ignore_errors=True)
    cpus = sorted(os.sched_getaffinity(0))[:LANES]
    env = child_env()
    caches = cpu_caches() if args.trace else {}
    llc = caches[max(caches)] if caches else None

    start = time.monotonic()
    min_passes = 2 if args.trace else 1  # per lane: one untraced (and one traced)
    untraced, traced, durations = [], [], []
    tally = {"attempted": 0, "failed": 0}
    index = itertools.count()
    lock = threading.Lock()

    def lane(cpu):
        """Run passes back to back on ``cpu`` until the next would overrun."""
        mine, ok = [], 0
        while True:
            trace = bool(args.trace) and len(mine) % 2 == 1
            t0 = time.monotonic()
            handle = start_pass(root, args.workload, args.seed, next(index), trace,
                                env, llc, cpu)
            result, out = finish_pass(handle, start + RUN_DEADLINE_S)
            mine.append(time.monotonic() - t0)
            n_ops, n_bad = check_pass(args.workload, result, out)
            ok += result is not None
            with lock:
                durations.append(mine[-1])
                tally["attempted"] += n_ops
                tally["failed"] += n_bad
                if result is not None:
                    (traced if trace else untraced).append(result)
            elapsed = time.monotonic() - start
            if len(mine) >= min_passes and elapsed + max(mine) > args.seconds:
                return
            if elapsed + max(mine) > RUN_DEADLINE_S:
                return
            if len(mine) >= 2 * min_passes and not ok:
                return  # every pass is failing; stop early

    threads = [threading.Thread(target=lane, args=(cpu,)) for cpu in cpus]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    attempted, failed = tally["attempted"], tally["failed"]

    lines = [f"workload {args.workload} seed {args.seed}: {len(durations)} passes "
             f"({len(untraced)} untraced, {len(traced)} traced) on CPUs {cpus} in "
             f"{time.monotonic() - start:.1f} s, {failed}/{attempted} checks failed"]
    metrics = {}
    if not args.trace:
        for key, unit in END_TO_END.items():
            values = [r[key] for r in untraced]
            if values:
                lines.append(summary_line(key, values, unit))
                metrics[key] = {"value": max(values), "unit": unit}
        lines.append(f"{'failed_ratio':32s} {failed / attempted:.6g} share "
                     f"({failed} of {attempted} checked values)")
    else:
        for key, unit in PER_LAYER.items():
            if key.startswith(("process.", "trace.")):
                continue
            values = [r["layers"][key] for r in traced]
            if values:
                metrics[key] = {"value": statistics.median(values), "unit": unit}
        if untraced:
            cpu = [r["cpu_s"] for r in untraced]
            util = [r["cpu_s"] / r["wall_s"] for r in untraced]
            metrics["process.cpu_s"] = {"value": statistics.median(cpu), "unit": "s"}
            metrics["process.cpu_util"] = {"value": statistics.median(util), "unit": "ratio"}
        if untraced and traced:
            overhead = (statistics.median(r["wall_s"] for r in traced)
                        - statistics.median(r["wall_s"] for r in untraced))
            metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        machine = {"nproc": len(os.sched_getaffinity(0)), "lanes": len(cpus),
                   "blas_threads": BLAS_THREADS,
                   "cache_bytes_by_level": caches, "llc_bytes": llc}
        if traced:
            machine.update(traced[0]["versions"])
            absent = traced[0]["absent"]
            lines.append(f"absent layers: {', '.join(absent) if absent else 'none'}")
        lines.append("machine " + json.dumps(machine, sort_keys=True))
        for key, entry in metrics.items():
            lines.append(f"{key:32s} {entry['value']:.6g} {entry['unit']}")
    print("\n".join(lines))
    complete = len(metrics) == len(PER_LAYER if args.trace else END_TO_END)
    print(json.dumps({"correct": failed == 0 and complete, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
