"""Command-line interface: regenerate any paper experiment.

    python -m repro figure8
    python -m repro figure9 [--layer VGG16_a] [--m 4]
    python -m repro figure10
    python -m repro table3 [--eval-images 128] [--width 16]
    python -m repro ablation [--layer ResNet-50_b]
    python -m repro selftest
    python -m repro conformance [--cases 50] [--update-golden]
    python -m repro bench [--quick] [--out BENCH_runtime.json]
    python -m repro serve-bench [--threads 1,2,8] [--gate 1.5]
    python -m repro tune [--wisdom wisdom.json] [--baseline BENCH_tuning.json]

Each subcommand prints the same rows the corresponding benchmark
emits; ``selftest`` runs a fast numerics sanity sweep (the exactness
and ordering properties the test suite checks in depth);
``conformance`` differentially tests every algorithm against the FP32
direct oracle and gates the error statistics against ``tests/golden``;
``bench`` times the vectorized runtime on the (scaled) Table 2
workloads and can gate speedup ratios against a checked-in baseline;
``serve-bench`` measures the micro-batching server's throughput vs
concurrent client count, with every served result gated bit-identical
to serial eager execution; ``tune`` measures the admissible algorithms
per conv geometry, persists the winners to a shared wisdom file
(``--wisdom``), and gates determinism plus the selected-vs-static
ratio -- ``bench`` / ``serve-bench`` consume the same file via their
own ``--wisdom`` flag.

The perf commands (``bench``, ``profile``, ``serve-bench``, ``tune``)
share one exit path: the checks that need no baseline run first and a
failure writes nothing; ``--out PATH`` writes the JSON document;
``--baseline PATH`` gates it against a committed document, or with
``--update-baseline`` writes it there instead of comparing.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, List, Optional

import numpy as np

__all__ = ["main"]


def _cmd_figure8(args: argparse.Namespace) -> int:
    from .experiments import format_figure8, run_figure8

    print(format_figure8(run_figure8(cores=args.cores)))
    return 0


def _cmd_figure9(args: argparse.Namespace) -> int:
    from .experiments import format_figure9, run_figure9

    print(format_figure9(run_figure9(layer=args.layer, m=args.m)))
    return 0


def _cmd_figure10(args: argparse.Namespace) -> int:
    from .experiments import format_figure10, run_figure10

    print(format_figure10(run_figure10(cores=args.cores)))
    return 0


def _cmd_table3(args: argparse.Namespace) -> int:
    from .experiments import format_table3, run_table3
    from .nn import build_resnet_small, build_vgg_small

    width = args.width
    rows = run_table3(
        models={
            "VGG16 (synthetic)": lambda: build_vgg_small(width=width),
            "ResNet-50 (synthetic)": lambda: build_resnet_small(width=width),
        },
        eval_images=args.eval_images,
    )
    print(format_table3(rows))
    return 0


def _cmd_ablation(args: argparse.Namespace) -> int:
    from .experiments import numeric_error_ablation, point_set_ablation
    from .workloads import layer_by_name

    print(f"Numeric-error ablation on {args.layer} shapes (rel RMS vs FP32):")
    for row in numeric_error_ablation(layer_by_name(args.layer)):
        print(f"  {row.scheme:14s} {row.rel_rms_error:.4f}")
    print("\nF(4,3) interpolation-point extension:")
    for name, err in point_set_ablation().items():
        print(f"  {name:28s} {err:.4f}")
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    from .experiments.report import reproduction_report

    text = reproduction_report(with_table3=args.with_table3)
    if args.out:
        from pathlib import Path

        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text)
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from .perf import layer_report
    from .workloads import layer_by_name

    print(layer_report(layer_by_name(args.layer), cores=args.cores))
    return 0


def _cmd_selftest(args: argparse.Namespace) -> int:
    from .conv import direct_conv2d_fp32
    from .core import LoWinoConv2d, signed_via_unsigned
    from .gemm import gemm_s8s8_reference
    from .winograd import winograd_algorithm, winograd_conv2d_fp32

    rng = np.random.default_rng(0)
    failures = 0

    x = rng.standard_normal((1, 4, 10, 10))
    w = rng.standard_normal((4, 4, 3, 3)) * 0.2
    ref = direct_conv2d_fp32(x, w)
    ok = np.allclose(winograd_conv2d_fp32(x, w, winograd_algorithm(4, 3)), ref, atol=1e-9)
    print(f"[{'ok' if ok else 'FAIL'}] FP32 Winograd F(4,3) == direct")
    failures += not ok

    v = rng.integers(-128, 128, (6, 8)).astype(np.int8)
    u = rng.integers(-128, 128, (8, 4)).astype(np.int8)
    ok = np.array_equal(signed_via_unsigned(v, u), gemm_s8s8_reference(v, u))
    print(f"[{'ok' if ok else 'FAIL'}] Eq. 9 compensation identity")
    failures += not ok

    xr = np.maximum(x, 0)
    layer = LoWinoConv2d(w, m=4, padding=0)
    refv = direct_conv2d_fp32(xr, w)
    rel = float(np.sqrt(np.mean((layer(xr) - refv) ** 2)) / refv.std())
    ok = rel < 0.25
    print(f"[{'ok' if ok else 'FAIL'}] LoWino F(4,3) error envelope ({rel:.3f})")
    failures += not ok

    print("selftest:", "PASS" if failures == 0 else f"{failures} FAILURES")
    return 1 if failures else 0


def _cmd_conformance(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .conformance import (
        ALL_ALGORITHMS,
        check_report_against_golden,
        default_golden_dir,
        default_suite,
        format_report,
        run_suite,
        write_golden,
    )

    if args.algorithms:
        algorithms = tuple(a.strip() for a in args.algorithms.split(",") if a.strip())
        unknown = [a for a in algorithms if a not in ALL_ALGORITHMS]
        if unknown:
            print(f"unknown algorithm(s): {', '.join(unknown)}", file=sys.stderr)
            return 2
    else:
        algorithms = ALL_ALGORITHMS
    configs = default_suite(cases=args.cases, seed=args.seed)
    report = run_suite(configs, algorithms)
    print(format_report(report, per_key=args.per_key))

    golden_dir = Path(args.golden_dir) if args.golden_dir else default_golden_dir()
    if args.update_golden:
        written = write_golden(
            report,
            golden_dir,
            generator_meta={"seed": args.seed, "generated_cases": args.cases},
        )
        print(f"\nwrote {len(written)} golden files under {golden_dir}")
        return 0
    violations = check_report_against_golden(report, golden_dir, shrink=not args.no_shrink)
    if violations:
        print(f"\nconformance gate: {len(violations)} VIOLATION(S)")
        for v in violations:
            print(f"  {v.describe()}")
        return 1
    print(f"\nconformance gate: PASS ({len(report.results)} cases, golden: {golden_dir})")
    return 0


class _Usage(Exception):
    """Bad command-line input: ``main`` prints the message and exits 2."""


def _baseline(args: argparse.Namespace) -> Optional[dict]:
    """The ``--baseline`` document to gate against, read before the run.

    None when no baseline was given or when ``--update-baseline``
    records this run there instead.
    """
    from .runtime.bench import load_json

    if args.update_baseline and not args.baseline:
        raise _Usage("--update-baseline needs --baseline PATH")
    if not args.baseline or args.update_baseline:
        return None
    try:
        return load_json(args.baseline)
    except (OSError, ValueError) as exc:
        raise _Usage(f"cannot read --baseline {args.baseline}: {exc}") from None


def _finish(
    args: argparse.Namespace,
    gate: str,
    doc: dict,
    check: Callable[[dict, Optional[dict]], List[str]],
    baseline: Optional[dict],
    passed: str,
) -> int:
    """Gate ``doc``, persist it and report: the exit of every perf command.

    ``check(doc, None)`` holds the checks no baseline is needed for
    (bit-identity, determinism, never-regress, convergence, overhead);
    they run first, and a failure writes nothing.  Then ``--out``
    receives the document, and ``--baseline`` either records it (with
    ``--update-baseline``) or gates it with ``check(doc, baseline)``.
    """
    from .runtime.bench import write_json

    violations = check(doc, None)
    if not violations:
        if args.out:
            write_json(doc, args.out)
            print(f"wrote {args.out}")
        if args.update_baseline:
            write_json(doc, args.baseline)
            print(f"wrote baseline {args.baseline}")
        elif baseline is not None:
            violations = check(doc, baseline)
            passed += f", baseline {args.baseline}"
    if violations:
        print(f"\n{gate} gate: {len(violations)} VIOLATION(S)")
        for v in violations:
            print(f"  {v}")
        return 1
    print(f"\n{gate} gate: PASS ({passed})")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from .runtime import ALGORITHMS
    from .runtime import bench as rbench

    profile = rbench.PROFILES["quick" if args.quick else "full"]
    if args.layers:
        from .workloads import layer_by_name

        names = tuple(s.strip() for s in args.layers.split(",") if s.strip())
        try:
            for name in names:
                layer_by_name(name)
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
        profile = replace(profile, layers=names)
    if args.repeats is not None:
        profile = replace(profile, repeats=args.repeats)
    if args.m is not None:
        profile = replace(profile, m=args.m)
    if args.no_reference:
        profile = replace(profile, reference=False)
    if args.algorithms:
        algorithms = tuple(a.strip() for a in args.algorithms.split(",") if a.strip())
        unknown = [a for a in algorithms if a not in ALGORITHMS]
        if unknown:
            print(f"unknown algorithm(s): {', '.join(unknown)}", file=sys.stderr)
            return 2
    else:
        algorithms = ALGORITHMS

    baseline = _baseline(args)
    try:
        doc = rbench.run_bench(
            profile,
            algorithms=algorithms,
            seed=args.seed,
            models=not args.no_models,
            wisdom=args.wisdom,
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(rbench.format_bench(doc))
    if args.cache_stats:
        stats = doc["cache_stats"]
        print(
            "plan cache: "
            + "  ".join(f"{key}={stats[key]}" for key in sorted(stats))
        )
        for entry in doc.get("models", []):
            stats = entry["cache_stats"]
            print(
                f"model cache [{entry['name']}]: "
                + "  ".join(f"{key}={stats[key]}" for key in sorted(stats))
            )
    return _finish(
        args, "bench", doc,
        lambda d, b: rbench.check_regression(d, b, gate=args.gate),
        baseline, f"bit-identity, gate {args.gate:.0%}",
    )


def _cmd_profile(args: argparse.Namespace) -> int:
    from .obs import profile as oprof

    cfg = oprof.ProfileConfig(
        model=args.model,
        algorithm=args.algorithm,
        batch=args.batch,
        hw=args.hw,
        width=args.width,
        m=args.m,
        runs=args.runs,
        seed=args.seed,
    )
    baseline = _baseline(args)
    try:
        doc = oprof.run_profile(cfg)
        print(oprof.format_profile(doc))
        if args.overhead:
            doc["overhead"] = oprof.measure_overhead(
                cfg, repeats=args.overhead_repeats
            )
            print()
            print(oprof.format_overhead(doc["overhead"]))
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if baseline is not None:
        print()
        print(oprof.format_stage_gate(doc, baseline))

    def check(d: dict, b: Optional[dict]) -> List[str]:
        violations = (
            oprof.check_overhead_gate(d["overhead"], limit=args.gate)
            if "overhead" in d
            else []
        )
        return violations + oprof.check_stage_gate(
            d, b, tolerance=args.stage_tolerance
        )

    passed = [f"overhead <= {args.gate:.0%}"] if args.overhead else []
    passed.append(f"stage shares within {args.stage_tolerance * 100:.0f}pp")
    return _finish(args, "profile", doc, check, baseline, ", ".join(passed))


def _parse_count_list(raw: str, flag: str) -> Optional[tuple]:
    try:
        counts = tuple(int(s.strip()) for s in raw.split(",") if s.strip())
    except ValueError:
        print(f"invalid {flag} list: {raw!r}", file=sys.stderr)
        return None
    if not counts or any(c < 1 for c in counts):
        print(f"{flag} must be positive integers, got {raw!r}", file=sys.stderr)
        return None
    return counts


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    from .serve import bench as sbench

    common = dict(
        model=args.model,
        width=args.width,
        hw=args.hw,
        m=args.m,
        request_batch=args.request_batch,
        requests_per_thread=args.requests,
        max_batch=args.max_batch,
        max_delay_ms=args.max_delay_ms,
        seed=args.seed,
    )
    if args.procs is not None:
        procs = _parse_count_list(args.procs, "--procs")
        if procs is None:
            return 2
        cfg = sbench.ProcBenchConfig(
            algorithm=args.algorithm if args.algorithm is not None else "int8_upcast",
            client_threads=args.clients,
            procs=procs,
            wisdom=not args.no_proc_wisdom,
            **common,
        )
        run = sbench.run_proc_bench
    else:
        threads = _parse_count_list(args.threads, "--threads")
        if threads is None:
            return 2
        cfg = sbench.ServeBenchConfig(
            algorithm=args.algorithm if args.algorithm is not None else "lowino",
            threads=threads,
            workers=args.workers,
            wisdom=args.wisdom,
            **common,
        )
        run = sbench.run_serve_bench
    baseline = _baseline(args)
    try:
        doc = run(cfg)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(sbench.format_serve_bench(doc))
    passed = "bit-identity"
    if args.procs is not None and cfg.wisdom:
        passed += ", selection convergence"
    if args.gate > 0:
        passed += f", >= {args.gate:.2f}x throughput"
    return _finish(
        args, "serve", doc,
        lambda d, b: sbench.check_serve_gate(
            d, b, min_speedup=args.gate,
            speedup_tolerance=args.speedup_tolerance,
        ),
        baseline, passed,
    )


def _cmd_tune(args: argparse.Namespace) -> int:
    from .tuning import bench as tbench

    cfg = tbench.TuneBenchConfig(
        model=args.model,
        width=args.width,
        hw=args.hw,
        batch=args.batch,
        repeats=args.repeats,
        seed=args.seed,
        family=args.family,
    )
    baseline = _baseline(args)
    try:
        doc = tbench.run_tune_bench(cfg, wisdom=args.wisdom)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(tbench.format_tune_bench(doc))
    if args.wisdom:
        print(f"wisdom: {args.wisdom}")
    return _finish(
        args, "tune", doc,
        lambda d, b: tbench.check_tuning_gate(d, b, gate=args.gate),
        baseline, "deterministic, never-regress",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="LoWino reproduction experiment runner"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p8 = sub.add_parser("figure8", help="per-layer speedups (cost model)")
    p8.add_argument("--cores", type=int, default=None)
    p8.set_defaults(fn=_cmd_figure8)

    p9 = sub.add_parser("figure9", help="quantized transformed-input histograms")
    p9.add_argument("--layer", default="VGG16_a")
    p9.add_argument("--m", type=int, default=4)
    p9.set_defaults(fn=_cmd_figure9)

    p10 = sub.add_parser("figure10", help="stage breakdown (cost model)")
    p10.add_argument("--cores", type=int, default=None)
    p10.set_defaults(fn=_cmd_figure10)

    pt3 = sub.add_parser("table3", help="end-to-end accuracy (slow)")
    pt3.add_argument("--eval-images", type=int, default=128)
    pt3.add_argument("--width", type=int, default=16)
    pt3.set_defaults(fn=_cmd_table3)

    pab = sub.add_parser("ablation", help="numeric-error + point-set ablations")
    pab.add_argument("--layer", default="ResNet-50_b")
    pab.set_defaults(fn=_cmd_ablation)

    prr = sub.add_parser("reproduce", help="run the evaluation suite, write a report")
    prr.add_argument("--out", default=None, help="write markdown here (default stdout)")
    prr.add_argument("--with-table3", action="store_true",
                     help="include the (slow) accuracy table")
    prr.set_defaults(fn=_cmd_reproduce)

    ppl = sub.add_parser("plan", help="execution-plan report for one layer")
    ppl.add_argument("layer", help="Table 2 layer name, e.g. VGG16_b")
    ppl.add_argument("--cores", type=int, default=None)
    ppl.set_defaults(fn=_cmd_plan)

    pst = sub.add_parser("selftest", help="fast numerics sanity sweep")
    pst.set_defaults(fn=_cmd_selftest)

    pcf = sub.add_parser(
        "conformance",
        help="differential conformance of every algorithm vs the FP32 oracle",
    )
    pcf.add_argument("--cases", type=int, default=50,
                     help="randomly generated configs on top of the edge grid")
    pcf.add_argument("--seed", type=int, default=2021, help="generator seed")
    pcf.add_argument("--algorithms", default=None,
                     help="comma-separated subset (default: all six)")
    pcf.add_argument("--golden-dir", default=None,
                     help="golden-file directory (default: tests/golden)")
    pcf.add_argument("--update-golden", action="store_true",
                     help="record this run's statistics as the new baseline")
    pcf.add_argument("--per-key", action="store_true",
                     help="also print per-(algorithm, shape-class) statistics")
    pcf.add_argument("--no-shrink", action="store_true",
                     help="skip shrinking failing configs to minimal reproducers")
    pcf.set_defaults(fn=_cmd_conformance)

    pbn = sub.add_parser(
        "bench",
        help="wall-clock benchmark of the vectorized runtime (scaled Table 2)",
    )
    pbn.add_argument("--quick", action="store_true",
                     help="small profile (breakdown layers, tighter caps) for CI")
    pbn.add_argument("--layers", default=None,
                     help="comma-separated Table 2 layer names (default: profile set)")
    pbn.add_argument("--algorithms", default=None,
                     help="comma-separated subset (default: all six)")
    pbn.add_argument("--repeats", type=int, default=None,
                     help="paired rounds per measurement; times and ratios "
                          "are medians over them (default: the profile's)")
    pbn.add_argument("--m", type=int, default=None,
                     help="Winograd output tile size (default 4)")
    pbn.add_argument("--seed", type=int, default=2021, help="tensor generator seed")
    pbn.add_argument("--out", default=None,
                     help="write the BENCH_runtime.json document here")
    pbn.add_argument("--baseline", default=None,
                     help="baseline JSON to gate speedup ratios against")
    pbn.add_argument("--gate", type=float, default=0.25,
                     help="allowed fractional regression vs baseline (default 0.25)")
    pbn.add_argument("--update-baseline", action="store_true",
                     help="write this run's document to --baseline instead of "
                          "comparing")
    pbn.add_argument("--no-reference", action="store_true",
                     help="skip the (slow) loop-reference timings")
    pbn.add_argument("--no-models", action="store_true",
                     help="skip the whole-model compiled-vs-eager cases")
    pbn.add_argument("--cache-stats", action="store_true",
                     help="print plan-cache hit/miss/eviction/bytes counters "
                          "(per session for the model cases)")
    pbn.add_argument("--wisdom", default=None,
                     help="wisdom file (repro tune) applying tuned algorithm "
                          "choices to the model cases")
    pbn.set_defaults(fn=_cmd_bench)

    ppr = sub.add_parser(
        "profile",
        help="per-layer x per-stage wall-clock breakdown (traced session)",
    )
    ppr.add_argument("--model", default="resnet",
                     help="model family: vgg/resnet/alexnet/unet (default resnet)")
    ppr.add_argument("--algorithm", default="auto",
                     help="quantize_model algorithm or 'fp32' (default auto)")
    ppr.add_argument("--batch", type=int, default=2, help="batch size (default 2)")
    ppr.add_argument("--hw", type=int, default=32,
                     help="input spatial size (default 32)")
    ppr.add_argument("--width", type=int, default=32,
                     help="model width (default 32)")
    ppr.add_argument("--m", type=int, default=4,
                     help="Winograd output tile size (default 4)")
    ppr.add_argument("--runs", type=int, default=3,
                     help="timed runs after warmup (default 3)")
    ppr.add_argument("--seed", type=int, default=2021, help="tensor generator seed")
    ppr.add_argument("--overhead", action="store_true",
                     help="also measure instrumentation overhead (none vs "
                          "disabled vs enabled tracer) and gate it")
    ppr.add_argument("--overhead-repeats", type=int, default=25,
                     help="alternating-order rounds for --overhead; each mode's "
                          "overhead is the median of its per-round ratio to "
                          "the untraced run (default 25)")
    ppr.add_argument("--gate", type=float, default=0.05,
                     help="allowed enabled-tracer overhead fraction (default 0.05)")
    ppr.add_argument("--baseline", default=None,
                     help="profile JSON to gate stage shares against "
                          "(e.g. benchmarks/BENCH_stages.json)")
    ppr.add_argument("--update-baseline", action="store_true",
                     help="write this run's document to --baseline instead of "
                          "comparing")
    ppr.add_argument("--stage-tolerance", type=float, default=0.10,
                     help="allowed absolute growth of any stage's share of "
                          "stage time, as a fraction (default 0.10 = 10pp)")
    ppr.add_argument("--out", default=None,
                     help="write the profile JSON document here")
    ppr.set_defaults(fn=_cmd_profile)

    psv = sub.add_parser(
        "serve-bench",
        help="micro-batching server throughput vs client threads "
             "(bit-identity gated)",
    )
    psv.add_argument("--model", default="vgg",
                     help="model family: vgg/resnet/alexnet/unet (default vgg)")
    psv.add_argument("--algorithm", default=None,
                     help="quantize_model algorithm or 'fp32' (default lowino; "
                          "int8_upcast with --procs so wisdom swaps apply)")
    psv.add_argument("--threads", default="1,2,8",
                     help="comma-separated client thread counts (default 1,2,8)")
    psv.add_argument("--procs", default=None,
                     help="comma-separated worker-process counts; switches the "
                          "sweep to the multi-process tier (ProcServer), e.g. "
                          "--procs 1,2,4")
    psv.add_argument("--clients", type=int, default=8,
                     help="closed-loop client threads for the --procs sweep "
                          "(default 8)")
    psv.add_argument("--no-proc-wisdom", action="store_true",
                     help="disable in-worker tuning + the cross-process "
                          "selection-convergence gate in the --procs sweep")
    psv.add_argument("--baseline", default=None,
                     help="serve-bench JSON of the same sweep to ratio-gate "
                          "the measured speedup against")
    psv.add_argument("--speedup-tolerance", type=float, default=0.5,
                     help="--baseline ratio floor: measured speedup may not "
                          "fall below this fraction of the baseline's "
                          "(default 0.5)")
    psv.add_argument("--update-baseline", action="store_true",
                     help="write this run's document to --baseline instead of "
                          "comparing")
    psv.add_argument("--requests", type=int, default=8,
                     help="requests per client thread (default 8)")
    psv.add_argument("--request-batch", type=int, default=2,
                     help="images per request (default 2)")
    psv.add_argument("--max-batch", type=int, default=16,
                     help="micro-batcher image bound (default 16)")
    psv.add_argument("--max-delay-ms", type=float, default=5.0,
                     help="micro-batcher coalescing window (default 5ms)")
    psv.add_argument("--workers", type=int, default=1,
                     help="server worker threads per model (default 1)")
    psv.add_argument("--width", type=int, default=16,
                     help="model width (default 16)")
    psv.add_argument("--hw", type=int, default=16,
                     help="input spatial size (default 16)")
    psv.add_argument("--m", type=int, default=4,
                     help="Winograd output tile size (default 4)")
    psv.add_argument("--seed", type=int, default=2021, help="tensor generator seed")
    psv.add_argument("--gate", type=float, default=1.5,
                     help="required throughput speedup at max threads vs 1 "
                          "(default 1.5)")
    psv.add_argument("--out", default=None,
                     help="write the serve-bench JSON document here")
    psv.add_argument("--wisdom", default=None,
                     help="wisdom file (repro tune) applying tuned algorithm "
                          "choices to the served session")
    psv.set_defaults(fn=_cmd_serve_bench)

    ptn = sub.add_parser(
        "tune",
        help="measure + select the fastest admissible algorithm per conv "
             "geometry, persisting choices to a shared wisdom file",
    )
    ptn.add_argument("--model", default="resnet",
                     help="model family: vgg/resnet/alexnet/unet (default resnet)")
    ptn.add_argument("--width", type=int, default=8,
                     help="model width (default 8)")
    ptn.add_argument("--hw", type=int, default=8,
                     help="input spatial size (default 8)")
    ptn.add_argument("--batch", type=int, default=2, help="batch size (default 2)")
    ptn.add_argument("--repeats", type=int, default=15,
                     help="paired rounds per geometry; each candidate's time "
                          "is its median over them (default 15)")
    ptn.add_argument("--seed", type=int, default=2021,
                     help="measurement tensor seed (default 2021)")
    ptn.add_argument("--family", default="quantized",
                     choices=("quantized", "fp32"),
                     help="candidate family per geometry: the INT8 pipelines "
                          "or fp32_winograd@m vs fp32_direct (default "
                          "quantized)")
    ptn.add_argument("--wisdom", default=None,
                     help="wisdom file to read + extend (default: throwaway "
                          "-- pure benchmark mode)")
    ptn.add_argument("--out", default=None,
                     help="write the BENCH_tuning.json document here")
    ptn.add_argument("--baseline", default=None,
                     help="baseline JSON to gate the selected-vs-static "
                          "geomean against")
    ptn.add_argument("--gate", type=float, default=0.25,
                     help="allowed fractional geomean regression vs baseline "
                          "(default 0.25)")
    ptn.add_argument("--update-baseline", action="store_true",
                     help="write this run's document to --baseline instead of "
                          "comparing")
    ptn.set_defaults(fn=_cmd_tune)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except _Usage as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
