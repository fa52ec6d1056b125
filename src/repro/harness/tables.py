"""Table 3 / Table 4 row generation from run records.

Table 3 reports per-dataset average L2 and PVB for the eight methods
plus a final "Ratio" row (every method's average normalized to
BiSMO-NMN).  Table 4 reports average EPE violations and turn-around
time with the same normalization.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .runner import METHOD_ORDER, RunRecord

__all__ = ["TableData", "table3", "table4"]

_REFERENCE_METHOD = "BiSMO-NMN"


@dataclass
class TableData:
    """A rendered-ready table: header, rows (label + cells), caption."""

    title: str
    columns: List[str]
    rows: List[Tuple[str, List[float]]]

    def row(self, label: str) -> List[float]:
        for lbl, cells in self.rows:
            if lbl == label:
                return cells
        raise KeyError(label)


def _group(records: Sequence[RunRecord]) -> Dict[str, Dict[str, List[RunRecord]]]:
    """records -> {dataset: {method: [records]}}"""
    out: Dict[str, Dict[str, List[RunRecord]]] = defaultdict(lambda: defaultdict(list))
    for rec in records:
        out[rec.dataset][rec.method].append(rec)
    return out


def _methods_present(records: Sequence[RunRecord]) -> List[str]:
    present = {r.method for r in records}
    ordered = [m for m in METHOD_ORDER if m in present]
    ordered += sorted(present - set(ordered))
    return ordered


def _ok_only(records: Sequence[RunRecord]) -> List[RunRecord]:
    """Drop failure/timeout records: their NaN metrics would poison the
    table means.  Failures surface in the sweep-health table instead
    (:func:`repro.harness.report.sweep_health`); a sweep with no ok
    record has no table and raises ``ValueError``."""
    ok = [r for r in records if r.status == "ok"]
    if not ok:
        raise ValueError("no ok records")
    return ok


def table3(records: Sequence[RunRecord]) -> TableData:
    """Per-dataset average L2 / PVB (nm^2) + Average + Ratio rows."""
    records = _ok_only(records)
    grouped = _group(records)
    methods = _methods_present(records)
    columns: List[str] = []
    for m in methods:
        columns += [f"{m} L2", f"{m} PVB"]
    rows: List[Tuple[str, List[float]]] = []
    per_method_means: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
    for ds_name in sorted(grouped):
        cells: List[float] = []
        for m in methods:
            recs = grouped[ds_name].get(m, [])
            l2 = float(np.mean([r.l2_nm2 for r in recs])) if recs else float("nan")
            pvb = float(np.mean([r.pvb_nm2 for r in recs])) if recs else float("nan")
            cells += [l2, pvb]
            per_method_means[m].append((l2, pvb))
        rows.append((ds_name, cells))
    avg_cells: List[float] = []
    for m in methods:
        pairs = per_method_means[m]
        avg_cells += [
            float(np.nanmean([p[0] for p in pairs])),
            float(np.nanmean([p[1] for p in pairs])),
        ]
    rows.append(("Average", avg_cells))
    ref = _REFERENCE_METHOD if _REFERENCE_METHOD in methods else methods[-1]
    ref_idx = methods.index(ref)
    ref_l2, ref_pvb = avg_cells[2 * ref_idx], avg_cells[2 * ref_idx + 1]
    ratio_cells: List[float] = []
    for i, _ in enumerate(methods):
        ratio_cells += [
            avg_cells[2 * i] / ref_l2 if ref_l2 else float("nan"),
            avg_cells[2 * i + 1] / ref_pvb if ref_pvb else float("nan"),
        ]
    rows.append(("Ratio", ratio_cells))
    return TableData(
        title="Table 3: L2 / PVB (nm^2) comparison",
        columns=columns,
        rows=rows,
    )


def table4(records: Sequence[RunRecord]) -> TableData:
    """Average EPE violations and turn-around time (s) + ratios (NaN
    when the reference method's average is 0, as in :func:`table3`)."""
    records = _ok_only(records)
    methods = _methods_present(records)
    by_method: Dict[str, List[RunRecord]] = defaultdict(list)
    for rec in records:
        by_method[rec.method].append(rec)
    epe = [float(np.mean([r.epe_violations for r in by_method[m]])) for m in methods]
    tat = [float(np.mean([r.runtime_s for r in by_method[m]])) for m in methods]
    ref = _REFERENCE_METHOD if _REFERENCE_METHOD in methods else methods[-1]
    ridx = methods.index(ref)
    epe_ref, tat_ref = epe[ridx], tat[ridx]
    rows = [
        ("EPE avg.", epe),
        ("EPE ratio", [e / epe_ref if epe_ref else float("nan") for e in epe]),
        ("TAT avg. (s)", tat),
        ("TAT ratio", [t / tat_ref if tat_ref else float("nan") for t in tat]),
    ]
    return TableData(
        title="Table 4: EPE and runtime comparison",
        columns=list(methods),
        rows=rows,
    )
