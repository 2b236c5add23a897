"""Report documents (JSON / pretty text) and survey CSV rows.

Output on stdout is byte-stable for identical invocations: JSON keys are
sorted, the key set is fixed (absent sections are null), and wall-clock
timing goes to stderr only.  The `witness` and `refutation` sections are
their records' fields (`AGWitness`, `RefutationData`) by name, so a section
rebuilds its record.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, fields

from .engine import AGReport, AGWitness
from .groebner import staircase_of_ideal
from .staircase import render_staircase

SCHEMA = "agrees/1"
VERSION = "0.1.0"  # the package version: `agrees.__version__` is this

CSV_COLUMNS = [
    "family", "params", "verdict", "o", "mu_I", "mu_J",
    "min_sum", "threshold", "witness",
]


def witness_summary(w: AGWitness | None) -> str:
    if w is None:
        return ""
    return f"f={w.f};g={w.g};h={w.h}"


def _section(record, read):
    """A report section: each field of the record by name, its value passed
    through read; None for an absent record."""
    if record is None:
        return None
    return {f.name: read(getattr(record, f.name)) for f in fields(record)}


def report_document(report: AGReport, *, input_text: str, ideal_gens,
                    field_name: str, seed: int,
                    rees_bidegrees=None) -> dict:
    doc = {
        "schema": SCHEMA,
        "version": VERSION,
        "input": input_text,
        "field": field_name,
        "seed": seed,
        "ideal": [str(g) for g in ideal_gens],
        "verdict": report.verdict.value,
        "order": report.order,
        "min_gens": report.min_gens,
        "colength": report.colength,
        "contracted": report.contracted,
        "integrally_closed": report.integrally_closed,
        "reduction": None,
        "colon": None,
        "witness": _section(report.witness, str),
        "refutation": _section(report.refutation,
                               lambda v: list(v) if isinstance(v, tuple) else v),
        "notes": list(report.notes),
        "rees_bidegrees": None,
    }
    if report.reduction is not None:
        r = report.reduction
        doc["reduction"] = {
            "generators": [str(r.Q[0]), str(r.Q[1])],
            "reduction_number": r.reduction_number,
            "stable": r.stable,
        }
    if report.colon_gens is not None:
        doc["colon"] = {
            "generators": [str(g) for g in report.colon_gens],
            "order": report.colon_order,
            "min_gens": report.colon_min_gens,
        }
    if rees_bidegrees is not None:
        doc["rees_bidegrees"] = [list(b) for b in rees_bidegrees]
    return doc


def document_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def render_pretty(doc: dict, ideal=None) -> str:
    lines = [
        f"input      : {doc['input']}",
        f"field      : {doc['field']}   seed: {doc['seed']}",
        f"ideal      : {', '.join(doc['ideal'])}",
        f"verdict    : {doc['verdict']}",
        f"o(I)={doc['order']}  mu(I)={doc['min_gens']}  colength={doc['colength']}"
        f"  contracted={doc['contracted']}  integrally_closed={doc['integrally_closed']}",
    ]
    if doc["reduction"]:
        r = doc["reduction"]
        lines.append(f"reduction  : Q = ({r['generators'][0]}, {r['generators'][1]})"
                     f"  r = {r['reduction_number']}  stable = {r['stable']}")
    if doc["colon"]:
        c = doc["colon"]
        lines.append(f"J = Q : I  : ({', '.join(c['generators'])})"
                     f"  o(J)={c['order']}  mu(J)={c['min_gens']}")
    if doc["witness"]:
        w = doc["witness"]
        lines.append(f"witness    : f = {w['f']},  g = {w['g']},  h = {w['h']}")
    if doc["refutation"]:
        ref = doc["refutation"]
        if ref["min_sum"] > ref["threshold"]:
            verdict_part = f"min_sum={ref['min_sum']} > threshold={ref['threshold']}"
        else:
            verdict_part = (f"min_sum={ref['min_sum']} <= "
                            f"threshold={ref['threshold']} (inconclusive)")
        lines.append(f"refutation : mu(IJ)={ref['mu_IJ']}  mu(mJ)={ref['mu_mJ']}"
                     f"  {verdict_part}")
    if doc["rees_bidegrees"] is not None:
        bid = ", ".join(f"({t},{d})" for t, d in doc["rees_bidegrees"])
        lines.append(f"rees       : bidegrees {bid}")
    for note in doc["notes"]:
        lines.append(f"note       : {note}")
    if ideal is not None:
        stair = staircase_of_ideal(ideal)
        if stair is not None and stair.is_m_primary:
            lines.append("staircase  :")
            lines.extend("  " + row for row in render_staircase(stair).splitlines())
    return "\n".join(lines) + "\n"


@dataclass(frozen=True, repr=False)
class SurveyRow:
    family: str
    params: tuple[tuple[str, int], ...]
    verdict: str
    o: int
    mu_I: int
    mu_J: int | None
    min_sum: int | None
    threshold: int | None
    witness: str

    def __post_init__(self):
        # a row never changes, so its text (the dataclass repr) and its sort
        # key are made once, where the row is made: inside classify_tuple,
        # on the worker under --jobs k.  The instance dict holds the fields in
        # order until the two are added.
        state = vars(self)
        text = ", ".join([f"{name}={value!r}" for name, value in state.items()])
        state["_repr"] = f"{type(self).__qualname__}({text})"
        state["_values"] = tuple([v for _, v in self.params])

    def __repr__(self) -> str:
        return self._repr

    def param_values(self) -> tuple[int, ...]:
        return self._values

    def param_text(self) -> str:
        return ";".join(f"{k}={v}" for k, v in self.params)


def write_survey_csv(rows, out) -> None:
    writer = csv.writer(out, lineterminator="\r\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        cells = {**vars(row), "params": row.param_text()}
        writer.writerow(["" if cells[c] is None else cells[c] for c in CSV_COLUMNS])
