"""Golden report bodies: every scenario's body and CSVs, byte for byte.

The goldens in ``tests/golden`` are made by ``tests/golden/regen.py``.  A
change that means to move a body regenerates them and names the moved keys
in CHANGES.md; any other difference is a regression.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

_spec = importlib.util.spec_from_file_location("golden_regen", GOLDEN_DIR / "regen.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)

MANIFEST = json.loads(regen.MANIFEST.read_text(encoding="utf-8"))


def first_difference(want, got):
    """Key path of the first place two parsed JSON bodies differ, or None."""
    for path, a, b in regen.differences(want, got):
        return f"{path}: golden {a!r}, now {b!r}"
    return None


@pytest.mark.parametrize("name", sorted(regen.GOLDENS))
def test_body_and_csvs_match_golden(name, tmp_path):
    if MANIFEST["numpy"] != np.__version__:
        pytest.skip(
            f"goldens were made with numpy {MANIFEST['numpy']}, this is numpy "
            f"{np.__version__}; draws agree only within one numpy build"
        )
    body, digests = regen.golden_run(name, tmp_path)
    golden = (GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8")
    if body + "\n" != golden:
        where = first_difference(json.loads(golden), json.loads(body))
        pytest.fail(f"{name} body differs from its golden at {where or 'serialization'}")
    assert digests == MANIFEST["csv_sha256"][name], f"{name} CSV bytes differ"
