import pytest

from gmqd.channels import ChannelKind, Locality, NoiseScenario
from gmqd.dynamics import SweepAxis, SweepRow, SweepSpec
from gmqd.output import CSV_HEADER, ROW_FIELDS, format_float, sweep_csv_text

EDGE_FLOATS = (0.0, -0.0, 5e-324, 1e308, 1 / 3)


@pytest.mark.parametrize("axis", tuple(SweepAxis), ids=lambda axis: axis.value)
def test_every_cell_is_format_float_of_its_value(axis):
    spec = SweepSpec(scenario=NoiseScenario(ChannelKind.BIT_FLIP, Locality.QUTRIT_ONLY),
                     b=0.2, c=0.1, grid=(0.0, 1.0), axis=axis)
    # each edge float visits every column once across the five rows; t is None on the gamma axis
    times = EDGE_FLOATS if axis is SweepAxis.TIME else (None,) * 5
    rows = [SweepRow(times[i], *(EDGE_FLOATS[(i + j) % 5] for j in range(1, 5))) for i in range(5)]
    lines = sweep_csv_text(spec, rows, seed=0, version="test").splitlines()
    assert lines[2] == CSV_HEADER
    fields = CSV_HEADER.split(",")
    for row, line in zip(rows, lines[3:], strict=True):
        cells = dict(zip(fields, line.split(","), strict=True))
        for name in ROW_FIELDS:
            value = getattr(row, name)
            if value is None:
                assert cells[name] == ""
            else:
                # 17 digits give the double back, sign of zero included
                assert cells[name] == format_float(value)
                assert float(cells[name]).hex() == value.hex()
        assert (cells["channel"], cells["locality"]) == ("bit-flip", "qutrit-only")
        assert (cells["b"], cells["c"]) == (format_float(0.2), format_float(0.1))
