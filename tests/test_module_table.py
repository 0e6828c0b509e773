"""Every derived module's bytes, pinned as a table.

module_table.json holds, for every SOURCES and SHAPES group of the
derivation tests in every mode its group accepts, the byte length and the
sha256 of emit_agda(module_for_group(derive_group(ctx, nat))) when the table
was recorded.  The goldens pin four modules' text; this table pins the rest,
so a refactor of the derivation that moves any emitted byte shows up here,
named by group and mode.

Re-record it (only when a change of the emitted text is intended) with

    PYTHONPATH=src:tests python tests/test_module_table.py > tests/module_table.json
"""

import hashlib
import json
from pathlib import Path

from nestfold.analysis import analyze
from nestfold.derivation import derive_group
from nestfold.emitter import emit_agda, module_for_group
from nestfold.parser import parse_program

from test_derivation import SHAPES, SOURCES

TABLE = Path(__file__).resolve().parent / "module_table.json"


def table() -> dict[str, dict]:
    """{"<group>/<mode>": {"bytes": ..., "sha256": ...}} for every accepted mode."""
    out = {}
    for which, src in {**SOURCES, **SHAPES}.items():
        (ctx,) = analyze(parse_program(src))
        for nat in (False, True)[: 1 + ctx.nat_index_eligible]:
            data = emit_agda(module_for_group(derive_group(ctx, nat))).encode()
            key = f"{which}/{'nat' if nat else 'general'}"
            out[key] = {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}
    return out


def test_every_derived_module_keeps_its_recorded_bytes():
    recorded = json.loads(TABLE.read_text())
    now = table()
    assert now.keys() == recorded.keys()
    assert [k for k in now if now[k] != recorded[k]] == []


if __name__ == "__main__":
    print(json.dumps(table(), indent=1, sort_keys=True))
