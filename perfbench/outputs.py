"""Output check: each call's certified content against a recorded reference.

Only content the program certifies is compared: dimensions, exact check
values, multiplicity totals and per-point multiplicities.  Float bits and
the `failures` list are left out, so a later fix for a false gate failure
does not read as a wrong answer.
"""

from __future__ import annotations

import json
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")
SPACES = ("sing_l", "sing_m")


def reference_key(call) -> str:
    c = call.config
    m = ",".join(map(str, c["m"]))
    if call.samples is not None:
        return f"verify|{c['mode']}|{m}|{c['l']}|{call.samples}"
    return f"spectrum|{c['mode']}|{m}|{c['l']}|{','.join(c['z'])}"


def certified(call, report: dict) -> dict:
    """The part of a report that must not change between commits."""
    if call.samples is not None:
        return {"counts_constant": report["counts_constant"],
                "totals": [s["totals"] for s in report["samples"]]}
    out = {"dims": report["dims"],
           "totals": {sp: report[f"spectrum_{sp}"]["total_multiplicity"]
                      for sp in SPACES}}
    if call.config["mode"] == "exact":
        out["global_checks"] = report["global_checks"]
        out["multiplicities"] = {
            sp: sorted(p["multiplicity"] for p in report[f"spectrum_{sp}"]["points"])
            for sp in SPACES}
    return out


def load_reference() -> dict:
    """{reference key: certified content}; stored with shared contents once."""
    data = json.loads(REFERENCE.read_text())
    return {key: data["contents"][i] for key, i in data["calls"].items()}


def save_reference(entries: dict) -> None:
    contents, index = [], {}
    calls = {}
    for key in sorted(entries):
        text = json.dumps(entries[key], sort_keys=True)
        if text not in index:
            index[text] = len(contents)
            contents.append(entries[key])
        calls[key] = index[text]
    REFERENCE.write_text(json.dumps({"contents": contents, "calls": calls},
                                    indent=0, sort_keys=True) + "\n")


def check(call, report: dict, reference: dict) -> str | None:
    """None if the call's certified content matches the reference, else why.

    `report` is the call's JSON output parsed back, as a user reads it.
    """
    key = reference_key(call)
    if key not in reference:
        return f"no reference for {key}"
    if certified(call, report) != reference[key]:
        return f"{call.label}: certified content differs from the reference"
    return None
