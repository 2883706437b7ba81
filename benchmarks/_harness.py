"""Shared helpers for the benchmark / experiment harness.

Every benchmark module regenerates one table or figure of the designed
evaluation (see DESIGN.md and EXPERIMENTS.md).  Because ``pytest`` captures
stdout by default, each experiment's rendered output is also written to
``benchmarks/results/<experiment id>.txt`` so the regenerated tables survive
a plain ``pytest benchmarks/ --benchmark-only`` run.

Alongside the human-readable text, :func:`emit_json` persists a
machine-readable ``benchmarks/results/BENCH_<name>.json`` per experiment —
metrics, regression bars with their verdicts, an overall pass flag, and
the scale the numbers were measured at (``scale``, ``smoke``,
``cpu_count``).  The payload is deliberately timestamp-free so reruns on
unchanged code on the same machine produce byte-identical files (diffable
in CI artifacts).
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Optional, Union

from repro.analysis.figures import Figure
from repro.analysis.tables import Table

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")

#: ``REPRO_BENCH_SMOKE=1`` selects every benchmark's tiny CI parameters.
SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))


def emit(experiment_id: str, rendered: Union[str, Table, Figure]) -> str:
    """Print and persist the rendered output of one experiment."""
    if isinstance(rendered, Table):
        text = rendered.render()
    elif isinstance(rendered, Figure):
        text = rendered.render()
    else:
        text = str(rendered)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{experiment_id}.txt")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
    print(f"\n===== {experiment_id} =====")
    print(text)
    return text


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing and return its result."""
    return benchmark.pedantic(fn, iterations=1, rounds=1)


def _jsonable(value: Any) -> Any:
    """Coerce numpy scalars/arrays and other oddballs into JSON types."""
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if hasattr(value, "tolist"):  # numpy scalar or array
        return _jsonable(value.tolist())
    if hasattr(value, "item"):
        return value.item()
    return str(value)


def table_metrics(table: Table) -> Dict[str, Any]:
    """A :class:`Table`'s data as a JSON-friendly ``{columns, rows}`` dict."""
    return {
        "columns": list(table.columns),
        "rows": [[_jsonable(cell) for cell in row] for row in table.rows],
    }


def figure_metrics(figure: Figure) -> Dict[str, Any]:
    """A :class:`Figure`'s series as a JSON-friendly dict keyed by label."""
    return {
        "x_label": figure.x_label,
        "y_label": figure.y_label,
        "series": {
            series.label: {"xs": list(series.xs), "ys": list(series.ys)}
            for series in figure.series
        },
    }


def bar(value: Any, limit: Any, ok: bool, enforced: bool = True) -> Dict[str, Any]:
    """One regression bar: the measured value, its bound, and the verdict.

    The verdict is ``pass`` or ``fail`` for an enforced bar and
    ``recorded`` otherwise; ``ok`` is true only for ``pass``, so a
    recorded bar never reads as met whatever its value.
    """
    verdict = ("pass" if ok else "fail") if enforced else "recorded"
    return {
        "value": _jsonable(value),
        "limit": _jsonable(limit),
        "verdict": verdict,
        "ok": verdict == "pass",
    }


def emit_json(
    name: str,
    metrics: Dict[str, Any],
    bars: Optional[Dict[str, Dict[str, Any]]] = None,
    scale: Optional[str] = None,
) -> bool:
    """Persist ``benchmarks/results/BENCH_<name>.json`` and return pass/fail.

    ``metrics`` holds the experiment's measurements (typically
    :func:`table_metrics`); ``bars`` maps bar names to :func:`bar` entries.
    The overall ``passed`` flag is true when no enforced bar fails;
    ``recorded`` bars are left out of it.  ``scale`` describes the workload
    size the numbers come from (default ``"smoke"`` or ``"full"``); the
    smoke flag and the machine's CPU count are recorded beside it so no
    committed result comes from an unlabeled scale.
    """
    bars = bars or {}
    passed = all(entry["verdict"] != "fail" for entry in bars.values())
    payload = {
        "name": name,
        "scale": scale if scale is not None else ("smoke" if SMOKE else "full"),
        "smoke": SMOKE,
        "cpu_count": os.cpu_count(),
        "metrics": _jsonable(metrics),
        "bars": _jsonable(bars),
        "passed": passed,
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"BENCH_{name}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return passed
