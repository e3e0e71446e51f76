"""Result tables and the three bundled benchmark configurations.

:class:`ResultTable` is the serialization unit of the command line: an
ordered set of per-surplus rows plus deterministic metadata, rendered as CSV
text (five decimal places, publication style) or JSON text (full
precision).  The package writes these formats and reads neither back.

``reproduce_tables`` runs the three standard mixed Poisson configurations
(Erlang(2,3), Pareto(3,1), Lognormal(-1,1) mixing; n = 500, m = 1000) and
writes each next to its validated reference values, so any drift in the
solvers shows as a nonzero delta column.  The reference arrays (exact column
E, series approximation N1, one seeded Monte Carlo run N2, and a stochastic
PK estimate kept for context) are regression targets used by the tests as
well; N2 and PK depend on an unknown historical seed and are context, not
assertions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .distributions import MixingDistribution
from .mixed_poisson import (
    MpApproxConfig,
    psi_mp_exact_reference,
    psi_mp_method1,
    psi_mp_method2,
)

__all__ = ["ResultTable", "REFERENCE_TABLES", "TABLE_MIXINGS", "reproduce_tables"]


@dataclass
class ResultTable:
    """Column-ordered rows keyed by u, with deterministic metadata."""

    columns: list[str]
    rows: list[dict]
    meta: dict = field(default_factory=dict)

    def to_csv(self) -> str:
        lines = [",".join(self.columns)]
        for row in self.rows:
            cells = []
            for col in self.columns:
                v = row.get(col)
                if v is None:
                    cells.append("")
                elif col == "u":
                    cells.append(str(int(v)))
                else:
                    cell = f"{v:.5f}"
                    cells.append("0.00000" if cell == "-0.00000" else cell)
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps(
            {"meta": self.meta, "columns": self.columns, "rows": self.rows},
            indent=2,
            sort_keys=False,
        ) + "\n"


# -- benchmark configurations --------------------------------------------------

TABLE_MIXINGS: dict[str, MixingDistribution] = {
    "erlang": MixingDistribution.erlang(2, 3.0),
    "pareto": MixingDistribution.pareto(3.0, 1.0),
    "lognormal": MixingDistribution.lognormal(-1.0, 1.0),
}

# Validated values for the three configurations at u = 0..10.  E and N1 are
# deterministic targets; N2 is one historical Monte Carlo run (m = 1000,
# seed unknown) and PK a low-precision stochastic estimate, both retained
# for side-by-side context only.
REFERENCE_TABLES: dict[str, dict[str, list[float]]] = {
    "erlang": {
        "E": [0.66667, 0.40741, 0.24280, 0.14358, 0.08469, 0.04992,
              0.02942, 0.01733, 0.01021, 0.00602, 0.00355],
        "N1": [0.66667, 0.40775, 0.24328, 0.14401, 0.08504, 0.05018,
               0.02960, 0.01746, 0.01030, 0.00607, 0.00358],
        "N2": [0.66667, 0.40326, 0.24551, 0.14317, 0.08647, 0.05063,
               0.02989, 0.01732, 0.01009, 0.00586, 0.00335],
        "PK": [0.66667, 0.4089, 0.2397, 0.1456, 0.084, 0.0512,
               0.0311, 0.0172, 0.0105, 0.0061, 0.0031],
    },
    "pareto": {
        "E": [0.50000, 0.28757, 0.18050, 0.12014, 0.08348, 0.06001,
              0.04437, 0.03360, 0.02599, 0.02049, 0.01643],
        "N1": [0.50000, 0.28751, 0.18046, 0.12010, 0.08344, 0.05996,
               0.04432, 0.03356, 0.02595, 0.02045, 0.01639],
        "N2": [0.50000, 0.28484, 0.18216, 0.11960, 0.08445, 0.06034,
               0.04450, 0.03343, 0.02577, 0.02019, 0.01612],
        "PK": [0.50000, 0.29170, 0.17690, 0.12040, 0.08170, 0.06080,
               0.04600, 0.03270, 0.02280, 0.02020, 0.01750],
    },
    "lognormal": {
        "E": [0.60653, 0.38126, 0.25231, 0.17287, 0.12128, 0.08661,
              0.06272, 0.04597, 0.03404, 0.02545, 0.01919],
        "N1": [0.60653, 0.38124, 0.25238, 0.17294, 0.12135, 0.08666,
               0.06276, 0.04600, 0.03406, 0.02546, 0.01920],
        "N2": [0.60653, 0.37816, 0.25426, 0.17198, 0.12282, 0.08715,
               0.06297, 0.04574, 0.03373, 0.02502, 0.01874],
        "PK": [0.60653, 0.37960, 0.25340, 0.17520, 0.12010, 0.08960,
               0.06280, 0.04390, 0.03420, 0.02420, 0.02030],
    },
}

_TABLE_COLUMNS = [
    "u", "E", "E_ref", "E_delta", "N1", "N1_ref", "N1_delta",
    "N2", "N2_se", "N2_ref", "PK_ref",
]


def reproduce_tables(
    out_dir: str | Path | None = None, cfg: MpApproxConfig | None = None
) -> dict[str, ResultTable]:
    """Recompute the three benchmark tables next to their reference values.

    Returns the tables keyed by configuration name; with ``out_dir`` given,
    also writes ``table_<name>.csv`` files there.  Runtimes are reported in
    the console log by the CLI, never in the files, so identical seeds give
    byte-identical output.
    """
    cfg = cfg or MpApproxConfig()
    out: dict[str, ResultTable] = {}
    for name, mix in TABLE_MIXINGS.items():
        ref = REFERENCE_TABLES[name]
        u_max = len(ref["E"]) - 1
        exact = psi_mp_exact_reference(mix, u_max)
        rows = []
        for u in range(u_max + 1):
            n1 = psi_mp_method1(mix, u, cfg)
            n2, se = psi_mp_method2(mix, u, cfg)
            rows.append({
                "u": u,
                "E": float(exact[u]),
                "E_ref": ref["E"][u],
                "E_delta": float(exact[u]) - ref["E"][u],
                "N1": n1,
                "N1_ref": ref["N1"][u],
                "N1_delta": n1 - ref["N1"][u],
                "N2": n2,
                "N2_se": se,
                "N2_ref": ref["N2"][u],
                "PK_ref": ref["PK"][u],
            })
        meta = {
            "table": name,
            "mixing": repr(mix),
            "n": cfg.n,
            "m": cfg.m,
            "pmf_floor": cfg.pmf_floor,
            "seed": cfg.seed,
            "reference": "E",
        }
        table = ResultTable(columns=list(_TABLE_COLUMNS), rows=rows, meta=meta)
        if out_dir is not None:
            (Path(out_dir) / f"table_{name}.csv").write_text(table.to_csv())
        out[name] = table
    return out


def max_abs_delta(table: ResultTable, col: str) -> float:
    """Largest |delta| for a computed-vs-reference column pair."""
    return max(abs(row[f"{col}_delta"]) for row in table.rows)
