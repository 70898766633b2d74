"""Regenerate the golden report bodies that ``tests/test_golden.py`` checks.

Each golden in ``GOLDENS`` runs its scenario at the ``paper`` preset, seed
0, with ``SAMPLES`` of its budget: every scenario as the preset has it, and
ghz6 and ghz3 again with a different temporal mode per node (``ENVELOPES``),
so that the branch coherence and its beat are checked too.
``<golden>.json`` holds the report's ``body_json()`` and ``manifest.json``
the SHA-256 of every CSV ``emit_report`` writes, plus the numpy version the
files were made with: the Philox streams and ``Generator.multinomial`` draw
the same counts only within one numpy build.

Run from the repository root after a change that means to move a body:

    PYTHONPATH=src python tests/golden/regen.py

Before it overwrites anything it prints every moved body key path with its
old value, new value and relative change, every added key path as
``added`` with its value, and every CSV whose digest changed; name each
moved key and its largest change, and each added key, in CHANGES.md.

With ``--check`` it prints the same lines, and every bundle digest (see
below) that differs from ``digests.txt``, writes nothing, and exits 1 if
anything moved or was added, 0 if every body, CSV and digest matches: the
one-command check of a change that means to leave every report
byte-identical.

With ``--digest`` it writes nothing and prints one SHA-256 per bundle,
over the body, every CSV and ``meta.counters``, for every scenario at the
``paper`` and ``ideal`` presets and at ``paper`` with ``read_delay_us``
7.3, seeds 0-2, at the sample budgets of ``perfbench/workloads.py``.  The
delay ages every pair and lies off the 5.28 us Zeeman grid, so the
superposition analyzer leaves ``phi0``.  It adds ghz6 and ghz3 at ``paper``
with a different temporal mode per node (``ENVELOPES``, labeled
``paper+envelopes``), seeds 0-2: three grids, so the branch coherence is
taken on union grids, with the Zeeman beat on port 0.  Last come the three
pair scenarios and ghz6 at ``paper`` with the largest seed, ``2**64 - 1``,
the edge of the ``(seed, table index)`` stream key.  Run it on both sides
of a change and diff:

    PYTHONPATH=src python tests/golden/regen.py --digest > after.txt

``digests.txt`` holds these lines as the goldens were made; a plain run
rewrites it with the bodies, and ``tests/test_golden.py`` compares a fresh
run with it.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from memnet_sim import config as cf
from memnet_sim import harness as h

GOLDEN_DIR = Path(__file__).resolve().parent
MANIFEST = GOLDEN_DIR / "manifest.json"
DIGESTS = GOLDEN_DIR / "digests.txt"
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


# (preset, read_delay_us); a bundle off zero delay is labeled "preset@delay"
DIGEST_POINTS = (("paper", 0.0), ("ideal", 0.0), ("paper", 7.3))
DIGEST_SEEDS = (0, 1, 2)
# the largest seed fills the low word of the uint64 stream key
MAX_SEED = 2**64 - 1
MAX_SEED_SCENARIOS = ("pair_tomography", "raman_delay_sweep", "lifetime_sweep", "ghz6")
# a Gaussian, a square and an exponential decay, each on its own grid and
# wide enough against the 5.28 us Zeeman period that the beat turns the
# branch coherence complex
ENVELOPES = {
    "I": {"shape": "gaussian", "center_us": 0.0, "width_us": 0.4},
    "II": {"shape": "square", "start_us": -0.5, "width_us": 2.0},
    "III": {"shape": "exponential-decay", "start_us": -0.3, "tau_us": 0.5},
}
# golden name -> (scenario, overrides of the paper preset)
GOLDENS = {
    **{scenario: (scenario, {}) for scenario in SAMPLES},
    "ghz6_envelopes": ("ghz6", {"envelopes": ENVELOPES}),
    "ghz3_envelopes": ("ghz3", {"envelopes": ENVELOPES}),
}


def run_bundle(cfg: cf.ExperimentConfig, out_dir) -> tuple[h.RunReport, dict[str, str]]:
    """Run ``cfg`` and emit its bundle into ``out_dir``; return the report and
    the SHA-256 of each CSV, keyed by the CSV's path relative to ``out_dir``."""
    report = h.run_scenario(cfg)
    out = Path(out_dir)
    digests = {}
    for path in sorted(h.emit_report(report, out)):
        rel = Path(path).relative_to(out).as_posix()
        if rel != "report.json":
            digests[rel] = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    return report, digests


def golden_config(name: str) -> cf.ExperimentConfig:
    """The config golden ``name`` runs."""
    scenario, overrides = GOLDENS[name]
    return cf.preset("paper").with_overrides(
        scenario=scenario, seed=SEED, samples=SAMPLES[scenario], **overrides
    )


def golden_run(name: str, out_dir) -> tuple[str, dict[str, str]]:
    """The ``body_json()`` of golden ``name``'s run and the SHA-256 of each
    CSV it emits, keyed by the CSV's path relative to ``out_dir``."""
    report, digests = run_bundle(golden_config(name), out_dir)
    return report.body_json(), digests


def workload_samples() -> dict[str, int | None]:
    """Each scenario's sample budget in the benchmark's workloads; None
    keeps the preset's."""
    path = GOLDEN_DIR.parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {s.scenario: s.samples for wl in module.WORKLOADS.values() for s in wl.scenarios}


def bundle_digest(cfg: cf.ExperimentConfig, out_dir) -> str:
    """One SHA-256 over the body, each CSV and ``meta.counters`` of a run."""
    report, digests = run_bundle(cfg, out_dir)
    parts = (
        report.body_json(),
        json.dumps(digests, sort_keys=True),
        json.dumps(report.meta["counters"], sort_keys=True),
    )
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def digest_points():
    """``(label, scenario, base config, seeds)`` of every digested bundle."""
    for preset, delay in DIGEST_POINTS:
        label = f"{preset}@{delay}" if delay else preset
        for scenario in SAMPLES:
            base = cf.preset(preset).with_overrides(read_delay_us=delay)
            yield label, scenario, base, DIGEST_SEEDS
    for scenario in ("ghz6", "ghz3"):
        base = cf.preset("paper").with_overrides(envelopes=ENVELOPES)
        yield "paper+envelopes", scenario, base, DIGEST_SEEDS
    for scenario in MAX_SEED_SCENARIOS:
        yield "paper", scenario, cf.preset("paper"), (MAX_SEED,)


def digest_lines() -> list[str]:
    """One ``<label> <scenario> seed <seed> <SHA-256>`` line per digested bundle."""
    samples = workload_samples()
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for label, scenario, base, seeds in digest_points():
            for seed in seeds:
                cfg = base.with_overrides(scenario=scenario, seed=seed)
                if samples[scenario] is not None:
                    cfg = cfg.with_overrides(samples=samples[scenario])
                out = Path(tmp) / f"{label}-{scenario}-{seed}"
                lines.append(f"{label} {scenario} seed {seed} {bundle_digest(cfg, out)}")
    return lines


def digest_moves(lines: list[str]) -> list[str]:
    """``digests.txt``'s lines that ``lines`` lacks (``-``) and the lines of
    ``lines`` that it lacks (``+``)."""
    old = DIGESTS.read_text(encoding="utf-8").splitlines() if DIGESTS.exists() else []
    gone = [f"digest: - {line}" for line in old if line not in lines]
    return gone + [f"digest: + {line}" for line in lines if line not in old]


class _Absent:
    """A key or list entry that one side of a comparison lacks."""

    def __repr__(self) -> str:
        return "absent"


ABSENT = _Absent()


def differences(old, new, path="body"):
    """Yield ``(key path, old value, new value)`` for every place two parsed
    JSON values differ; a missing key or list entry reads as ``ABSENT``, and
    an object on one side only yields each of its key paths."""
    if {type(old), type(new)} <= {dict, _Absent}:
        old, new = (value if isinstance(value, dict) else {} for value in (old, new))
        for key in sorted(set(old) | set(new)):
            yield from differences(old.get(key, ABSENT), new.get(key, ABSENT), f"{path}.{key}")
    elif isinstance(old, list) and isinstance(new, list):
        for i in range(max(len(old), len(new))):
            a = old[i] if i < len(old) else ABSENT
            b = new[i] if i < len(new) else ABSENT
            yield from differences(a, b, f"{path}[{i}]")
    elif type(old) is not type(new) or old != new:
        yield path, old, new


def _relative(old, new) -> str:
    numbers = (int, float)
    if isinstance(old, numbers) and isinstance(new, numbers) and old != 0:
        return f"{(new - old) / abs(old):+.3g}"
    return "n/a"


def report_moves(name: str, body: str, digests: dict[str, str], manifest) -> int:
    """Print what regenerating golden ``name`` would move or add against its
    file, and return the number of lines printed."""
    path = GOLDEN_DIR / f"{name}.json"
    old = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    moves = [
        f"{name}: {key}: added {b!r}"
        if a is ABSENT
        else f"{name}: {key}: {a!r} -> {b!r} (relative {_relative(a, b)})"
        for key, a, b in differences(old, json.loads(body))
    ]
    old_digests = manifest.get("csv_sha256", {}).get(name, {})
    moves += [
        f"{name}: {rel}: digest changed"
        for rel in sorted(set(old_digests) | set(digests))
        if old_digests.get(rel) != digests.get(rel)
    ]
    for line in moves:
        print(line)
    return len(moves)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Regenerate the golden report bodies.")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--check",
        action="store_true",
        help="print what moved or was added, write nothing, exit 1 if anything did",
    )
    mode.add_argument(
        "--digest", action="store_true", help="print one SHA-256 per bundle, write nothing"
    )
    args = parser.parse_args(argv)
    if args.digest:
        print("\n".join(digest_lines()))
        return 0
    check = args.check
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8")) if MANIFEST.exists() else {}
    runs, moved = {}, 0
    with tempfile.TemporaryDirectory() as tmp:
        for name in GOLDENS:
            runs[name] = golden_run(name, Path(tmp) / name)
            moved += report_moves(name, *runs[name], manifest)
    bundle_digests = digest_lines()
    for line in digest_moves(bundle_digests):
        print(line)
        moved += 1
    if check:
        print(f"{moved} moved or added" if moved else "every body, CSV and digest matches its golden")
        return 1 if moved else 0
    csv_sha256 = {}
    for name, (body, digests) in runs.items():
        (GOLDEN_DIR / f"{name}.json").write_text(body + "\n", encoding="utf-8")
        csv_sha256[name] = digests
    manifest = {
        "numpy": np.__version__,
        "preset": "paper",
        "seed": SEED,
        "samples": SAMPLES,
        "csv_sha256": csv_sha256,
    }
    MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    DIGESTS.write_text("\n".join(bundle_digests) + "\n", encoding="utf-8")
    print(
        f"wrote {len(GOLDENS)} bodies, {MANIFEST.name} and {len(bundle_digests)} lines of "
        f"{DIGESTS.name} (numpy {np.__version__})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
