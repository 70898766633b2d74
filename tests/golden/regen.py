"""Regenerate the golden report bodies that ``tests/test_golden.py`` checks.

Each scenario runs at the ``paper`` preset, seed 0, with ``SAMPLES`` of its
budget.  ``<scenario>.json`` holds the report's ``body_json()`` and
``manifest.json`` the SHA-256 of every CSV ``emit_report`` writes, plus the
numpy version the files were made with: the Philox streams and
``Generator.multinomial`` draw the same counts only within one numpy build.

Run from the repository root after a change that means to move a body:

    PYTHONPATH=src python tests/golden/regen.py

and name every moved key and its largest change in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from memnet_sim import config as cf
from memnet_sim import harness as h

GOLDEN_DIR = Path(__file__).resolve().parent
MANIFEST = GOLDEN_DIR / "manifest.json"
SEED = 0
# raw pair trials per point or basis for the pair scenarios, heralded events
# for ghz6/ghz3; two_node_swap draws nothing and only echoes it
SAMPLES = {
    "pair_tomography": 20_000,
    "raman_delay_sweep": 20_000,
    "lifetime_sweep": 20_000,
    "two_node_swap": 20_000,
    "ghz6": 10_000,
    "ghz3": 10_000,
}


def golden_run(scenario: str, out_dir) -> tuple[str, dict[str, str]]:
    """The scenario's ``body_json()`` and the SHA-256 of each CSV it emits,
    keyed by the CSV's path relative to ``out_dir``."""
    cfg = cf.preset("paper").with_overrides(
        scenario=scenario, seed=SEED, samples=SAMPLES[scenario]
    )
    report = h.run_scenario(cfg)
    out = Path(out_dir)
    digests = {}
    for path in sorted(h.emit_report(report, out)):
        rel = Path(path).relative_to(out).as_posix()
        if rel != "report.json":
            digests[rel] = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    return report.body_json(), digests


def main() -> int:
    csv_sha256 = {}
    with tempfile.TemporaryDirectory() as tmp:
        for scenario in SAMPLES:
            body, digests = golden_run(scenario, Path(tmp) / scenario)
            (GOLDEN_DIR / f"{scenario}.json").write_text(body + "\n", encoding="utf-8")
            csv_sha256[scenario] = digests
    manifest = {
        "numpy": np.__version__,
        "preset": "paper",
        "seed": SEED,
        "samples": SAMPLES,
        "csv_sha256": csv_sha256,
    }
    MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(SAMPLES)} bodies and {MANIFEST.name} (numpy {np.__version__})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
