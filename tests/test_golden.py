"""Golden digests (``tests/golden.json``, written by ``tests/regen_golden.py``):
every documented and benchmarked report and CSV keeps its bytes, at the
default row blocks and at blocks small enough that whole-batch passes span
2, 3 and more blocks.  A ``portable`` entry has one digest; a ``libm``
entry is compared with its digest for numpy's running dispatch target, and
a target with no digest fails."""

import json
import sys
from collections import Counter

import pytest

import regen_golden
from quadlab import space as space_module

# Float64 values per row block in the small run: 512 rows of dim 8, 1024 of
# dim 4, 2048 of dim 2.
_SMALL_BLOCK = 2**12


@pytest.mark.parametrize("blocks", ["default", "small"])
def test_reports_match_the_golden_digests(blocks, monkeypatch):
    spans = Counter()
    if blocks == "small":
        monkeypatch.setattr(space_module, "_BLOCK_VALUES", _SMALL_BLOCK)
        row_blocks = space_module.row_blocks

        def counted(n, width):
            out = list(row_blocks(n, width))
            if sys._getframe(1).f_code.co_name == "blockwise":
                spans[len(out)] += 1
            return iter(out)

        monkeypatch.setattr(space_module, "row_blocks", counted)
    golden = json.loads(regen_golden.GOLDEN.read_text())
    target = regen_golden.dispatch_target()
    missing = [name for name, digests in golden["libm"].items() if target not in digests]
    assert not missing, (
        f"tests/golden.json has no libm digests for numpy dispatch target {target}: "
        f"regenerate it where numpy picks {target} and list the moved entries "
        f"({len(missing)} entries)"
    )
    golden["libm"] = {name: digests[target] for name, digests in golden["libm"].items()}
    got = regen_golden.compute()
    assert got.keys() == golden.keys()
    for group, want in golden.items():
        assert got[group].keys() == want.keys(), group
        moved = [name for name, digests in want.items() if got[group][name] != digests]
        assert not moved, (group, moved)
    if blocks == "small":
        assert spans[2] and spans[3] and max(spans) >= 4, spans
