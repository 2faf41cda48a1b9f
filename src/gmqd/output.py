"""CSV/JSON serialisation shared by the CLI and the experiment scripts.

CSV schema (fixed): ``t,gamma_a,gamma_b,channel,locality,b,c,d_numeric,
d_closed,abs_err`` with floats rendered at 17 significant digits so doubles
round-trip losslessly; ``t`` is empty for gamma-axis sweeps.  Every file
starts with ``#`` metadata comment lines carrying the parameters, seed and
tool version, and identical inputs produce byte-identical output.  JSON
carries the same metadata keys and, per row, the same row fields.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Sequence

from .dynamics import SweepRow, SweepSpec

ROW_FIELDS = ("t", "gamma_a", "gamma_b", "d_numeric", "d_closed", "abs_err")
# metadata columns that CSV repeats on every row, after gamma_b
_SPEC_COLUMNS = ("channel", "locality", "b", "c")
_SPEC_AT = ROW_FIELDS.index("gamma_b") + 1
CSV_HEADER = ",".join(ROW_FIELDS[:_SPEC_AT] + _SPEC_COLUMNS + ROW_FIELDS[_SPEC_AT:])

# CSV renders these at 17 digits by key, since a library caller may pass ints
_FLOAT_KEYS = frozenset({"b", "c", "rate_a", "rate_b"})
_row_values = attrgetter(*ROW_FIELDS)


def format_float(x: float) -> str:
    """Render with 17 significant digits (lossless for doubles)."""
    return format(float(x), ".17g")


def _metadata(spec: SweepSpec, seed: int, version: str) -> dict:
    """The sweep's parameters, in the order both formats write them."""
    scenario = spec.scenario
    return {
        "version": version,
        "seed": seed,
        "channel": scenario.kind.value,
        "locality": scenario.locality.value,
        "b": spec.b,
        "c": spec.c,
        "axis": spec.axis.value,
        "coupling": spec.coupling.value,
        "points": len(spec.grid),
        "rate_a": spec.rate_a,
        "rate_b": spec.rate_b,
    }


def sweep_csv_text(spec: SweepSpec, rows: Sequence[SweepRow], seed: int, version: str) -> str:
    """Full CSV payload for one sweep, metadata comments included."""
    meta = {
        key: format_float(value) if key in _FLOAT_KEYS else str(value)
        for key, value in _metadata(spec, seed, version).items()
    }
    pairs = [f"{key}={text}" for key, text in meta.items()]
    # version and seed open the file; the sweep parameters follow on one line
    lines = ["# gmqd sweep " + " ".join(pairs[:2]), "# " + " ".join(pairs[2:]), CSV_HEADER]
    spec_cells = ",".join(meta[key] for key in _SPEC_COLUMNS)
    for row in rows:
        cells = ["" if value is None else format_float(value) for value in _row_values(row)]
        cells.insert(_SPEC_AT, spec_cells)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def sweep_json_doc(spec: SweepSpec, rows: Sequence[SweepRow], seed: int, version: str) -> dict:
    """The same sweep payload as a JSON-serialisable document."""
    doc = _metadata(spec, seed, version)
    doc["rows"] = [dict(zip(ROW_FIELDS, _row_values(row))) for row in rows]
    return doc
