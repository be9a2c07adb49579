"""Readers for the CSV artifacts `mgridopt.experiment` writes."""

from __future__ import annotations

from pathlib import Path

from mgridopt.experiment import TRACE_HEADER


def read_trace_csv(path):
    """Round-trip reader for the trace format."""
    lines = Path(path).read_text().strip().splitlines()
    if lines[0] != TRACE_HEADER:
        raise ValueError(f"{path}: unexpected trace header {lines[0]!r}")
    rows = []
    for ln in lines[1:]:
        it, cost, pos, neg, resid = ln.split(",")
        rows.append((int(it), float(cost), float(pos), float(neg),
                     float(resid)))
    return rows


def read_csv(path):
    """Reader for every CSV a run emits: (column names, float rows)."""
    lines = Path(path).read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = []
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != len(header):
            raise ValueError(f"{path}: ragged row {ln!r}")
        rows.append([float(v) for v in cells])
    return header, rows
