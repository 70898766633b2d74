"""Golden report bodies: every scenario's body and CSVs, byte for byte.

The goldens in ``tests/golden`` are made by ``tests/golden/regen.py``.  A
change that means to move a body regenerates them and names the moved keys
in CHANGES.md; any other difference is a regression.  ``digests.txt`` adds
one SHA-256 per bundle over the grid of ``regen.py --digest`` (both presets,
an aged read-out delay, envelopes, seeds 0-2 and the largest seed).

Draws agree only within one numpy build, so the byte checks run only on the
build the goldens were made with.  What a body computes from the exact
distributions alone (``draw_free``) is checked on every build, to within
``DRAW_FREE_RTOL``.
"""

import functools
import importlib.util
import json
import math
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
            f"{np.__version__}; draws agree only within one numpy build, so the "
            "byte checks of bodies, CSVs and digests are dropped and only the "
            "draw-free keys are checked (test_draw_free_keys_match_golden)"
        )


# body key paths computed from the exact distributions, never from the draws
PAIR_DRAW_FREE = ("limit", "config")
GHZ_DRAW_FREE = PAIR_DRAW_FREE + (
    "fidelity.exact", "event_tables", "conditional_success_estimate", "rate"
)
# measured: reversing the summation orders of numpy's sums, integrals and
# einsums and of the coherent and write-branch terms moved no draw-free
# number by more than 7e-16 relative; moving a fit's start by 1e-9 moved the
# Raman limit's phase by 3.3e-12, as its stopping rule is not at rounding
DRAW_FREE_RTOL = 1e-10


def draw_free(name: str, body: dict) -> dict:
    """The draw-free part of golden ``name``'s parsed body, by key path:
    all of two_node_swap's, which draws nothing."""
    scenario = regen.GOLDENS[name][0]
    if scenario == "two_node_swap":
        return body
    paths = GHZ_DRAW_FREE if scenario in ("ghz6", "ghz3") else PAIR_DRAW_FREE
    return {path: functools.reduce(dict.__getitem__, path.split("."), body) for path in paths}


def is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def draw_free_moves(name: str, body: dict, rtol: float) -> list[str]:
    """Each draw-free key path where ``body`` and golden ``name`` differ: by
    more than ``rtol`` relative for two numbers, at all for anything else."""
    golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8"))
    return [
        f"{path}: golden {a!r}, now {b!r}"
        for path, a, b in regen.differences(draw_free(name, golden), draw_free(name, body))
        if not (is_number(a) and is_number(b) and math.isclose(a, b, rel_tol=rtol))
    ]


@pytest.mark.parametrize("name", sorted(regen.GOLDENS))
def test_body_and_csvs_match_golden(name, tmp_path):
    skip_on_another_numpy()
    body, digests = regen.golden_run(name, tmp_path)
    golden = (GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8")
    if body + "\n" != golden:
        where = first_difference(json.loads(golden), json.loads(body))
        pytest.fail(f"{name} body differs from its golden at {where or 'serialization'}")
    assert digests == MANIFEST["csv_sha256"][name], f"{name} CSV bytes differ"


@pytest.mark.parametrize("name", sorted(regen.GOLDENS))
def test_draw_free_keys_match_golden(name):
    """Runs on every numpy build, unlike the byte checks."""
    body = json.loads(regen.h.run_scenario(regen.golden_config(name)).body_json())
    assert draw_free_moves(name, body, DRAW_FREE_RTOL) == []


def test_draw_free_check_reads_exact_keys_only(monkeypatch):
    body = json.loads((GOLDEN_DIR / "ghz3.json").read_text(encoding="utf-8"))
    body["fidelity"]["estimate"] += 0.1  # drawn: not compared
    assert draw_free_moves("ghz3", body, DRAW_FREE_RTOL) == []
    body["fidelity"]["exact"] *= 1 + 10 * DRAW_FREE_RTOL
    assert [m.split(":")[0] for m in draw_free_moves("ghz3", body, DRAW_FREE_RTOL)] == [
        "body.fidelity.exact"
    ]
    # on another numpy build only the byte checks skip, saying what they drop
    monkeypatch.setitem(MANIFEST, "numpy", "0.0")
    with pytest.raises(pytest.skip.Exception, match="only the draw-free keys are checked"):
        skip_on_another_numpy()


def test_bundle_digests_match_file():
    skip_on_another_numpy()
    lines = regen.digest_lines()
    assert len(lines) == 64
    assert regen.digest_moves(lines) == []


# every golden run, and every scenario at ``ideal`` on the same budgets
BUNDLES = {name: regen.golden_config(name) for name in regen.GOLDENS} | {
    f"ideal {scenario}": regen.cf.preset("ideal").with_overrides(
        scenario=scenario, seed=regen.SEED, samples=samples
    )
    for scenario, samples in regen.SAMPLES.items()
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
