"""Golden report bodies: every scenario's body and CSVs, byte for byte.

The goldens in ``tests/golden`` are made by ``tests/golden/regen.py``.  A
change that means to move a body regenerates them and names the moved keys
in CHANGES.md; any other difference is a regression.  ``digests.txt`` adds
one SHA-256 per bundle over the grid of ``regen.py --digest`` (both presets,
an aged read-out delay, envelopes, seeds 0-2 and the largest seed).
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from memnet_sim import cli

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


def skip_on_another_numpy():
    if MANIFEST["numpy"] != np.__version__:
        pytest.skip(
            f"goldens were made with numpy {MANIFEST['numpy']}, this is numpy "
            f"{np.__version__}; draws agree only within one numpy build"
        )


@pytest.mark.parametrize("name", sorted(regen.GOLDENS))
def test_body_and_csvs_match_golden(name, tmp_path):
    skip_on_another_numpy()
    body, digests = regen.golden_run(name, tmp_path)
    golden = (GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8")
    if body + "\n" != golden:
        where = first_difference(json.loads(golden), json.loads(body))
        pytest.fail(f"{name} body differs from its golden at {where or 'serialization'}")
    assert digests == MANIFEST["csv_sha256"][name], f"{name} CSV bytes differ"


def test_bundle_digests_match_file():
    skip_on_another_numpy()
    lines = regen.digest_lines()
    assert len(lines) == 64
    assert regen.digest_moves(lines) == []


def _bundle_configs():
    """Every golden run, and every scenario at ``ideal`` on the same budgets."""
    for name, (scenario, overrides) in regen.GOLDENS.items():
        base = regen.cf.preset("paper").with_overrides(**overrides)
        yield name, base.with_overrides(scenario=scenario)
    for scenario in regen.SAMPLES:
        yield f"ideal {scenario}", regen.cf.preset("ideal").with_overrides(scenario=scenario)


BUNDLES = {
    name: cfg.with_overrides(seed=regen.SEED, samples=regen.SAMPLES[cfg.scenario])
    for name, cfg in _bundle_configs()
}


def stdlib_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)


@pytest.mark.parametrize("name", sorted(BUNDLES))
def test_report_json_is_the_stdlib_text(name, tmp_path, monkeypatch, capsys):
    """report.json and the CLI's stdout hold the stdlib's text of the whole
    payload, meta included, written without the stdlib's pure-Python path."""

    def refuse(*args, **kwargs):
        raise AssertionError("report_json left a report to json.dumps")

    report = regen.h.run_scenario(BUNDLES[name])
    want = stdlib_json(report.payload()) + "\n"
    with monkeypatch.context() as patch:
        patch.setattr(json, "dumps", refuse)
        regen.h.emit_report(report, tmp_path)
    assert (tmp_path / "report.json").read_bytes() == want.encode()

    BUNDLES[name].to_json(tmp_path / "cfg.json")
    assert cli.main(["--config", str(tmp_path / "cfg.json")]) == 0
    out = capsys.readouterr().out
    assert out == stdlib_json(json.loads(out)) + "\n"
