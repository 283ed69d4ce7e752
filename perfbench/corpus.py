"""Workload inputs: the seeded corpora the benchmark measures, and their pins.

Run as a script with ``src`` on ``PYTHONPATH`` to generate every corpus
into one directory::

    PYTHONPATH=src python3 perfbench/corpus.py --out DIR

Three corpora are written, each under its own sub-directory of ``DIR``:

  default  ``simulate --n 100000 --seed 2026`` with the packaged charge pools;
  wide     the same seed and size, with each neutral charge pool widened
           by ``WIDE_EXTRA`` generated codes that are on no catalog list;
  empty    header-only record and case files for the set-up runs.

``DIR/manifest.json`` is written last and lists the SHA-256 of every file
and the planted counts of each corpus, so a present manifest means a
complete set of inputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from pathlib import Path

SEED = 2026
N_RECORDS = 100_000
WIDE_EXTRA = 2000
CORPUS_FILES = ("psa_records.csv", "court_cases.csv", "ground_truth.csv")
NEUTRAL_CLASSES = {"neutral_felonies": "F", "neutral_misdemeanors": "M"}


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def wide_charge_pools(seed: int, catalog, extra: int = WIDE_EXTRA) -> dict[str, tuple[str, ...]]:
    """The packaged pools with ``extra`` generated codes added to each
    neutral pool.  A code is admitted only when the catalog calls it
    neither violent, nor an exclusion, nor a bump-up, so every planted
    scenario keeps its guaranteed outcome."""
    from psa_audit.charges import parse_charge_code
    from psa_audit.synth import DEFAULT_CHARGE_POOLS

    rng = random.Random(f"perfbench-wide-{seed}")
    pools = {k: tuple(v) for k, v in DEFAULT_CHARGE_POOLS.items()}
    taken = {text for texts in pools.values() for text in texts}
    for pool, klass in NEUTRAL_CLASSES.items():
        added: list[str] = []
        while len(added) < extra:
            text = f"{rng.randrange(1000, 40000)}({rng.choice('ABCDEFGH')}) {rng.choice(('PC', 'VC', 'HS'))} {klass}"
            if text in taken:
                continue
            code = parse_charge_code(text, catalog.derivative_prefixes)
            if catalog.is_violent(code) or catalog.is_exclusion_charge(code) or catalog.is_bumpup_charge(code):
                continue
            taken.add(text)
            added.append(text)
        pools[pool] = pools[pool] + tuple(added)
    return pools


def write_corpus(out: Path, n_records: int, seed: int, charge_pools=None) -> dict:
    """Generate one corpus through ``psa_audit.synth`` and write its three
    files; returns its planted counts."""
    from psa_audit.synth import GeneratorConfig, generate, write_dataset

    extra = {} if charge_pools is None else {"charge_pools": charge_pools}
    dataset = generate(GeneratorConfig(n_records=n_records, seed=seed, **extra))
    write_dataset(dataset, out)
    return dataset.planted_counts()


def write_empty(out: Path) -> None:
    from psa_audit.io import COURT_COLUMNS, PSA_COLUMNS, write_csv

    write_csv(out / "psa_records.csv", PSA_COLUMNS, [])
    write_csv(out / "court_cases.csv", COURT_COLUMNS, [])


def describe(directory: Path, planted: dict | None = None) -> dict:
    files = sorted(p.name for p in directory.iterdir() if p.is_file())
    doc = {"files": {name: sha256_file(directory / name) for name in files}}
    if planted is not None:
        doc["planted"] = planted
    return doc


def prepare(out: Path, n_records: int = N_RECORDS, seed: int = SEED, wide_extra: int = WIDE_EXTRA) -> dict:
    """Write the default, wide and empty corpora under ``out`` and return
    the manifest, which is also written to ``out/manifest.json``."""
    from psa_audit.charges import default_catalog

    manifest = {"seed": seed, "n_records": n_records, "wide_extra": wide_extra, "corpora": {}}
    planted = write_corpus(out / "default", n_records, seed)
    manifest["corpora"]["default"] = describe(out / "default", planted)
    pools = wide_charge_pools(seed, default_catalog(), wide_extra)
    planted = write_corpus(out / "wide", n_records, seed, pools)
    manifest["corpora"]["wide"] = describe(out / "wide", planted)
    (out / "empty").mkdir(parents=True, exist_ok=True)
    write_empty(out / "empty")
    manifest["corpora"]["empty"] = describe(out / "empty")
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return manifest


def pin_mismatches(manifest: dict, pins: dict) -> list[str]:
    """Every difference between generated inputs and their pins."""
    problems = []
    for key in ("seed", "n_records", "wide_extra"):
        if manifest.get(key) != pins.get(key):
            problems.append(f"{key}: generated {manifest.get(key)!r}, pinned {pins.get(key)!r}")
    for name, pinned in pins.get("corpora", {}).items():
        got = manifest.get("corpora", {}).get(name, {})
        for field in ("files", "planted"):
            if got.get(field) != pinned.get(field):
                problems.append(f"{name} {field}: generated {got.get(field)}, pinned {pinned.get(field)}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path)
    prepare(parser.parse_args(argv).out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
