"""Command-line entry point.

Subcommands: gap, cutoff, avg-profile, cdsz, nash, verify.  Each accepts
--config PATH (YAML, schema in the README), --seed U64 and --out DIR;
command-line values override the config file.
"""

from __future__ import annotations

import argparse
import sys

from . import harness


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="YAML experiment config")
    p.add_argument("--seed", type=int, help="base seed for all random streams")
    p.add_argument("--out", help="output directory for CSV/SVG/JSONL")


def _load(args) -> harness.ExperimentConfig:
    cfg = harness.load_config(args.config) if args.config else harness.ExperimentConfig()
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out is not None:
        cfg.out = args.out
    return cfg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="binsplit",
        description="averaging / particle-splitting mixing experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, hlp in (
        ("gap", "spectral-gap sweep over k and graphs"),
        ("cutoff", "worst-start TV profiles of the particle system"),
        ("avg-profile", "transport-distance profiles of the averaging dynamics"),
        ("cdsz", "complete-graph L1 crossing experiment"),
        ("nash", "heat-kernel decay and effective-dimension fit"),
        ("verify", "deterministic residual battery (exit 1 on any failure)"),
    ):
        _add_common(sub.add_parser(name, help=hlp))
    args = parser.parse_args(argv)
    cfg = _load(args)

    if args.command == "gap":
        rows = harness.run_gap_sweep(cfg)
        for r in rows:
            print(f"{r['graph']:>12}  k={r['k']:<3} gap={r['gap']:.12g}  "
                  f"rel_dev={r['rel_dev']:.3e}  {r['status']}")
        return 0 if all(r["status"] == "ok" for r in rows) else 1
    if args.command == "cutoff":
        recs = harness.run_cutoff_bin(cfg)
        print(f"cutoff: wrote {len(recs)} rows" + (f" to {cfg.out}" if cfg.out else ""))
        return 0
    if args.command == "avg-profile":
        recs = harness.run_avg_profile(cfg)
        print(f"avg-profile: wrote {len(recs)} rows" + (f" to {cfg.out}" if cfg.out else ""))
        return 0
    if args.command == "cdsz":
        recs = harness.run_complete_cdsz(cfg)
        ratio = next(r.value for r in recs if r.kind == "crossing_ratio")
        print(f"cdsz: crossing/reference ratio = {ratio:.4f}")
        return 0
    if args.command == "nash":
        rows = harness.run_nash(cfg)
        for r in rows:
            print(f"{r['graph']:>12}  d_hat={r['d_hat']:.3f}  R2={r['r_squared']:.4f}  "
                  f"finite_dimensional={r['finite_dimensional']}  ({r['reason']})")
        return 0
    if args.command == "verify":
        from .verify import run_verify
        code, rows = run_verify(cfg, out=cfg.out)
        for r in rows:
            status = "PASS" if r["pass"] else "FAIL"
            extra = f"  [{r['error']}]" if "error" in r else ""
            print(f"{status}  {r['check']:<24} residual={r['residual']:.3e}  "
                  f"tol={r['tolerance']:.1e}{extra}")
        print(f"verify: {sum(r['pass'] for r in rows)}/{len(rows)} checks passed")
        return code
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
