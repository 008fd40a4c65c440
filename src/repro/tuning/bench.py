"""``repro tune``: sweep a model's conv geometries through the
:class:`~repro.tuning.selector.AlgorithmSelector` into a wisdom file,
and emit the ``benchmarks/BENCH_tuning.json`` document.

The document's headline metric is the **selected-vs-static ratio** per
geometry: the median seconds of the analytic planner's choice divided
by the median seconds of the selector's choice, over the same paired
rounds on the same seeded inputs.  Because the static candidate is
always in the measured set, this ratio is >= 1.0 by construction --
selection never regresses a shape -- and the gate enforces exactly that
(plus a generous baseline-relative tolerance on the geomean, in the
bench-smoke style: ratios only, never absolute wall-clock).

Determinism is part of the document: after the sweep every geometry is
re-selected out of the wisdom file (``measure=False``) and must
reproduce the same choice; ``doc["deterministic"]`` gates it.  Running
``repro tune`` twice against the same wisdom file therefore yields
identical selections -- the second run never measures at all.
"""

from __future__ import annotations

import tempfile
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional

from ..runtime.bench import (
    ModelCase,
    _geomean,
    below_floor,
    build_case_model,
    envelope,
    incompatible,
)
from .selector import AlgorithmSelector, model_geometries
from .wisdom import WisdomFile

__all__ = [
    "TuneBenchConfig",
    "run_tune_bench",
    "check_tuning_gate",
    "format_tune_bench",
]

#: Floor of every selected-vs-static ratio.  Selection never regresses a
#: shape (the static candidate is in the measured set), so this only
#: absorbs float round-trip.
MIN_RATIO = 0.999


@dataclass(frozen=True)
class TuneBenchConfig:
    """One ``repro tune`` sweep configuration.

    ``family`` selects the candidate set per geometry
    (:data:`~repro.tuning.selector.FAMILIES`): ``"quantized"`` sweeps
    the INT8 pipelines, ``"fp32"`` sweeps fp32_winograd@m vs
    fp32_direct under the family-qualified wisdom keys.  ``repeats``
    is the number of paired rounds each geometry's candidates run.
    """

    model: str = "resnet"
    width: int = 8
    hw: int = 8
    batch: int = 2
    repeats: int = 15
    seed: int = 2021
    family: str = "quantized"


def run_tune_bench(
    cfg: TuneBenchConfig = TuneBenchConfig(),
    wisdom: Optional[WisdomFile | str | Path] = None,
) -> dict:
    """Sweep the model's unique conv geometries into wisdom.

    With ``wisdom=None`` the sweep runs against a throwaway file (pure
    benchmark mode); pass a path to accumulate reusable wisdom.  The
    sweep batches all stores into one read-merge-write
    (:meth:`WisdomFile.batch`), fixing the O(n^2) I/O a per-geometry
    flush would cost.
    """
    model = build_case_model(
        ModelCase(cfg.model, "auto", batch=cfg.batch, hw=cfg.hw, width=cfg.width)
    )
    input_shape = (cfg.batch, 3, cfg.hw, cfg.hw)

    tmpdir = None
    if wisdom is None:
        tmpdir = tempfile.TemporaryDirectory(prefix="repro-tune-")
        wisdom = Path(tmpdir.name) / "wisdom.json"
    if not isinstance(wisdom, WisdomFile):
        wisdom = WisdomFile(wisdom)
    selector = AlgorithmSelector(wisdom=wisdom, repeats=cfg.repeats, seed=cfg.seed)

    # Unique geometries, first-seen order, with every conv path using each.
    unique: Dict[str, dict] = {}
    for path, _conv, geom in model_geometries(model, input_shape):
        key = geom.key(family=cfg.family)
        slot = unique.setdefault(key, {"geometry": geom, "paths": []})
        slot["paths"].append(path)

    rows: List[dict] = []
    with wisdom.batch():
        for key, slot in unique.items():
            geom = slot["geometry"]
            res = selector.select(geom, family=cfg.family)
            rows.append(
                {
                    "key": key,
                    "paths": slot["paths"],
                    "batch": geom.batch, "c": geom.c, "h": geom.h, "w": geom.w,
                    "k": geom.k, "r": geom.r, "stride": geom.stride,
                    "padding": geom.padding,
                    "selected": res.label,
                    "static": res.static,
                    "source": res.source,
                    "measured": dict(res.measured),
                    "selected_vs_static": res.static_ratio,
                }
            )

    # Determinism: out of the (now flushed) wisdom, every geometry must
    # re-select to the same choice without measuring.
    deterministic = True
    for row in rows:
        res = selector.select(
            unique[row["key"]]["geometry"], measure=False, family=cfg.family
        )
        if res.source != "wisdom" or res.label != row["selected"]:
            deterministic = False

    ratios = [r["selected_vs_static"] for r in rows]
    doc = {
        **envelope(asdict(cfg)),
        "geometries": rows,
        "deterministic": deterministic,
        "summary": {
            "geometries": len(rows),
            "selected_vs_static_geomean": _geomean(ratios),
            "min": min(ratios) if ratios else None,
            "max": max(ratios) if ratios else None,
            "from_wisdom": sum(1 for r in rows if r["source"] == "wisdom"),
            "measured": sum(1 for r in rows if r["source"] == "measured"),
            "switched": sum(1 for r in rows if r["selected"] != r["static"]),
        },
    }
    if tmpdir is not None:
        tmpdir.cleanup()
    return doc


#: Config fields that must match for a baseline comparison to be valid.
_COMPAT_KEYS = ("model", "width", "hw", "batch", "repeats", "seed", "family")


def check_tuning_gate(
    current: dict, baseline: Optional[dict] = None, gate: float = 0.25
) -> List[str]:
    """Gate the tuning document; empty list means PASS.

    Hard, host-independent gates: determinism out of wisdom, and the
    per-geometry selected-vs-static ratio floor :data:`MIN_RATIO`
    (selection never regresses a shape).  The baseline gate is the
    generous bench-smoke style: the geomean ratio must not drop more
    than ``gate`` below the committed value.
    """
    violations: List[str] = []
    if not current.get("deterministic", False):
        violations.append(
            "selection is not deterministic given identical wisdom "
            "(re-select out of the wisdom file changed a choice)"
        )
    for row in current.get("geometries", []):
        ratio = row.get("selected_vs_static")
        if ratio is not None and ratio < MIN_RATIO:
            violations.append(
                f"{row['key']}: selected {row['selected']} is slower than "
                f"static {row['static']} (ratio {ratio:.3f} < {MIN_RATIO})"
            )
    geomean = current.get("summary", {}).get("selected_vs_static_geomean")
    if geomean is not None and geomean < MIN_RATIO:
        violations.append(
            f"selected-vs-static geomean {geomean:.3f} < {MIN_RATIO}"
        )
    if baseline is None:
        return violations
    refused = incompatible(current, baseline, _COMPAT_KEYS)
    if refused:
        return violations + refused
    return violations + below_floor(
        "selected-vs-static geomean", geomean,
        baseline.get("summary", {}).get("selected_vs_static_geomean"), 1.0 - gate,
    )


def format_tune_bench(doc: dict) -> str:
    """Human-readable table for one tuning document."""
    cfg = doc["config"]
    lines = [
        f"Algorithm selection sweep -- model={cfg['model']} "
        f"batch={cfg['batch']} hw={cfg['hw']} width={cfg['width']} "
        f"repeats={cfg['repeats']} seed={cfg['seed']} "
        f"family={cfg.get('family', 'quantized')}",
        f"{'geometry':34s} {'convs':>5s} {'static':>16s} {'selected':>16s} "
        f"{'ratio':>6s} {'source':>8s}",
    ]
    lines.append("-" * len(lines[-1]))
    for row in doc["geometries"]:
        geo = (
            f"b{row['batch']} c{row['c']} {row['h']}x{row['w']} k{row['k']} "
            f"s{row['stride']}"
        )
        lines.append(
            f"{geo:34s} {len(row['paths']):5d} {row['static']:>16s} "
            f"{row['selected']:>16s} {row['selected_vs_static']:6.2f} "
            f"{row['source']:>8s}"
        )
    s = doc["summary"]
    lines.append("")
    lines.append(
        f"selected vs static: geomean {s['selected_vs_static_geomean']:.3f}x "
        f"(min {s['min']:.3f}x, max {s['max']:.3f}x), "
        f"{s['switched']}/{s['geometries']} switched, "
        f"{s['from_wisdom']} from wisdom, "
        f"deterministic={'yes' if doc['deterministic'] else 'NO'}"
    )
    return "\n".join(lines)
