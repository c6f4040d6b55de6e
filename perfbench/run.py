#!/usr/bin/env python3
"""Wall-clock benchmark of the LibSEAL front end under audited traffic.

Run from the repository root::

    python3 perfbench/run.py --workload git-sealed --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --list

``--trace 0`` runs the workload untraced and reports the end-to-end
metrics. ``--trace 1`` runs it untraced and then traced, with the same
seed and length, and reports the per-layer metrics. ``--seconds`` sets
the length: a fixed number of pairs per second, split over the
workload's rounds, so the same seed and length always send the same
requests. ``--list`` prints every workload and metric in
``BENCHMARK.json`` and which end-to-end metric each layer should move.

End-to-end times and rates are reported at the reference host speed
(see ``perfbench/host.py``); the line before the result gives the host
factors and the metrics as measured. The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. A run whose outputs are wrong prints ``"correct": false``
and exits with 1; a checkout without the program exits with 2 and prints
no result.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "BENCHMARK.json"
#: Per-seed operation counts of earlier runs of the same code (to catch
#: count drift) and the span files of traced runs.
STATE = ROOT / ".perfbench-state"


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list", action="store_true",
                        help="print workloads, metrics and layer mapping")
    return parser


def _listing(spec: dict) -> str:
    from perfbench.layers import LAYERS, layer_of

    lines = ["workloads"]
    for workload in spec["workloads"]:
        lines.append(f"  {workload['name']:<18} {workload['why']}")
    lines.append("")
    lines.append("end-to-end metrics (untraced runs, --trace 0)")
    for metric in spec["end_to_end"]:
        lines.append(
            f"  {metric['name']:<24} {metric['unit']:<8} "
            f"{metric['better']:<7} bound {metric['bound']}"
        )
    lines.append("")
    lines.append("per-layer metrics (traced runs, --trace 1)")
    for metric in spec["per_layer"]:
        lines.append(
            f"  {metric['name']:<38} {metric['unit']:<12} "
            f"{metric['better']:<7} {layer_of(metric['name']) or '-'}"
        )
    lines.append("")
    lines.append("layer -> end-to-end metric it should move")
    for name, modules, _prefixes, moves in LAYERS:
        lines.append(f"  {name} ({modules}): {moves}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    sys.path.insert(0, str(ROOT))
    if not SPEC.is_file():
        print(f"error: {SPEC.name} not found next to perfbench/", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    if args.list:
        print(_listing(spec))
        return 0
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"error: --workload must be one of {names}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro").is_dir():
        print("error: the program (src/repro) is not in this checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from perfbench.runner import program_digest, run
    from perfbench.host import at_reference_speed

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    try:
        attempted, measured, factors = run(
            args.workload, args.seed, args.seconds, bool(args.trace),
            STATE / program_digest(ROOT),
        )
        if set(measured) != set(units):
            raise RuntimeError(
                f"metrics {sorted(set(measured) ^ set(units))} do not match "
                f"{SPEC.name}"
            )
        metrics = measured if args.trace else at_reference_speed(
            measured, units, factors
        )
    except Exception:  # every failure of a run is reported, not a number
        traceback.print_exc()
        print(json.dumps(
            {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        ))
        return 1
    print(json.dumps({"host_factors": factors, "as_measured": measured}))
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": 0,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in units
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
