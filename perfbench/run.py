"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload offline-lowino --seed 1 --seconds 25 --trace 0

Each invocation is one process running one workload.  The last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; with ``--trace 0`` the metrics are the end-to-end list of
``BENCHMARK.json``, with ``--trace 1`` its per-layer list.  The exit
code is non-zero when any output fails its check.  A run record (inputs
digest, environment, host probes, reconciliation, spans when traced)
is written under ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import os

# Pin the BLAS/OpenMP pools before NumPy loads: the load generator plus
# the server's one worker must never need more than two cores.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

WORKLOADS = ("offline-lowino", "serve-saturated")


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    """Import the program from the checkout's ``src`` and run ``name``."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise FileNotFoundError(f"program sources not found under {src}")
    sys.path.insert(0, str(src))
    if name == "offline-lowino":
        import offline

        return offline.run(seed, seconds, trace)
    import serving

    return serving.run(seed, seconds, trace)


def select_metrics(res, spec: dict, trace: bool) -> list:
    """Keep the metrics ``spec`` lists for this mode, in its order.

    Per-layer metrics of a layer the workload does not exercise are
    reported as 0 and returned, so the run record can list them.  A
    metric ``spec`` does not list, a unit that disagrees with ``spec``,
    or an end-to-end metric left unmeasured is a benchmark bug and raises.
    """
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, got in res.metrics.items():
        if name not in units:
            raise KeyError(f"metric {name!r} is not in BENCHMARK.json")
        if got["unit"] != units[name]:
            raise ValueError(f"{name}: unit {got['unit']!r} != BENCHMARK.json {units[name]!r}")
    chosen, absent = {}, []
    for entry in spec["per_layer"] if trace else spec["end_to_end"]:
        got = res.metrics.get(entry["name"])
        if got is None:
            if not trace:
                raise KeyError(f"end-to-end metric {entry['name']!r} not measured")
            got = {"value": 0.0, "unit": entry["unit"]}
            absent.append(entry["name"])
        chosen[entry["name"]] = got
    res.metrics = chosen
    return absent


def report(res, args, env) -> str:
    d = res.details
    lines = [
        f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}",
        f"  nproc={env['nproc']} affinity={env['affinity']} numpy={env['numpy']} "
        f"blas={env['blas'].get('name')} {env['blas'].get('version')} "
        f"threads={sorted(set(env['threads'].values()))}",
        f"  inputs_digest={d['inputs_digest'][:16]}"
        + (f" trace_digest={d['trace_digest'][:16]}" if "trace_digest" in d else ""),
        f"  host_probe_us={[round(p, 1) for p in d['host_probe_us']]}",
        f"  latency: n={d['latency_samples']} tail=p{d['latency_tail_percentile']:.3f} "
        f"slo={d['slo_ms']} ms; setups={[round(s, 3) for s in d['setup_runs_s']]}",
        f"  attempted={res.attempted} failed={res.failed} checks={res.checks}",
    ]
    for name, m in res.metrics.items():
        lines.append(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    spec = load_spec()
    res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    spans = res.details.pop("spans", None)
    absent = select_metrics(res, spec, bool(args.trace))

    from harness import environment

    env = environment()
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "correct": res.correct,
        "attempted": res.attempted,
        "failed": res.failed,
        "checks": res.checks,
        "metrics": res.metrics,
        "not_exercised": absent,
        "details": res.details,
    }
    if spans is not None:
        spans.write(str(out_dir / f"{stem}.spans.jsonl"))
        record["self_time_s"] = spans.self_times()
    with open(out_dir / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1, default=str)

    print(report(res, args, env))
    print(res.line())
    return 0 if res.correct else 1


if __name__ == "__main__":
    sys.exit(main())
