"""Every derived module's bytes, pinned as a table.

module_table.json holds, for every SOURCES and SHAPES group of the
derivation tests and for every CYCLES group, in every mode its group
accepts, the byte length and the sha256 of
emit_agda(module_for_group(derive_group(ctx, nat))) when the table was
recorded.  The goldens pin four modules' text; this table pins the rest,
so a refactor of the derivation or the emitter that moves any emitted byte
shows up here, named by group and mode.

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


def _cycle(n: int) -> str:
    """A mutual cycle of n parameterized declarations.  Its hfolds bind every
    carrier and method, so the emitter wraps signatures, clause heads and
    bodies at widths that no sample reaches."""
    return "".join(
        f"data T{i} (a : Set) : Set where\n  c{i} : a -> T{(i + 1) % n} a -> T{i} a\n"
        f"  e{i} : T{i} a\n"
        for i in range(n)
    )


CYCLES = {f"cycle-{n}": _cycle(n) for n in (3, 8)}


def table() -> dict[str, dict]:
    """{"<group>/<mode>": {"bytes": ..., "sha256": ...}} for every accepted mode."""
    out = {}
    for which, src in {**SOURCES, **SHAPES, **CYCLES}.items():
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
