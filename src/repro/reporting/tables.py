"""Table and figure-series formatting used by the benchmark harness.

Every benchmark regenerates one table or figure of the paper (see
``docs/benchmarks.md``); these helpers print the rows/series in a uniform,
diff-friendly layout, next to the paper's numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean of positive values (0.0 for an empty sequence)."""
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


@dataclass
class TableRow:
    """One row of a reproduced table."""

    label: str
    values: Dict[str, float] = field(default_factory=dict)

    def formatted(self, columns: Sequence[str]) -> str:
        cells = [f"{self.values.get(col, float('nan')):>12.3f}" for col in columns]
        return f"{self.label:<40s}" + "".join(cells)


def format_table(title: str, columns: Sequence[str], rows: Sequence[TableRow]) -> str:
    """Render a table with a header, suitable for printing from a benchmark."""
    header = f"{'':<40s}" + "".join(f"{col:>12s}" for col in columns)
    lines = [f"== {title} ==", header]
    lines += [row.formatted(columns) for row in rows]
    return "\n".join(lines)


def format_series(title: str, x_label: str, series: Dict[str, List[float]], xs: List) -> str:
    """Render a figure as aligned numeric series (one column per curve)."""
    names = list(series)
    header = f"{x_label:>12s}" + "".join(f"{name:>16s}" for name in names)
    lines = [f"== {title} ==", header]
    for i, x in enumerate(xs):
        cells = "".join(f"{series[name][i]:>16.3f}" for name in names)
        lines.append(f"{str(x):>12s}{cells}")
    return "\n".join(lines)
