"""Golden outputs: every file that the six subcommands write over a seeded
10k-record corpus must keep its SHA-256, and each command its exit code.

The digests pin the output bytes of ``simulate --n 10000 --seed 2026`` and
of every command run on that corpus (``audit`` with ``--sensitivity``).  A
change that alters any output byte fails here; regenerate the table with
``PYTHONPATH=src python tests/test_golden_outputs.py`` only when the change
to the outputs is intended.

``run_manifest.json`` is skipped for the commands whose manifest records
absolute input paths, which differ between checkouts; simulate's manifest
holds only the resolved generator settings and is kept.
"""

import contextlib
import hashlib
import sys
import tempfile
from pathlib import Path

import pytest

from psa_audit.cli import main

SIMULATE = ["simulate", "--n", "10000", "--seed", "2026"]
COMMANDS = {
    "score": ["score", "--psa", "{psa}"],
    "audit": ["audit", "--psa", "{psa}", "--court", "{court}", "--sensitivity"],
    "consistency": ["consistency", "--court", "{court}"],
    "validate": ["validate", "--psa", "{psa}", "--court", "{court}"],
    "dedupe": ["dedupe", "--psa", "{psa}"],
}

#: command -> (exit code, {output file: SHA-256})
GOLDEN = {
    'simulate': (0, {
        'court_cases.csv': 'f93aaa76d0cb7739d250d417889954d658c667a57d50b3bfe9601bf04bf459ec',
        'ground_truth.csv': 'be836f7e9512cffd30a216fbe09413a201c0a6f890157f54d0d537b24844f9c8',
        'planted_counts.csv': 'ade6c160b4b5f8cc06ee5806cf615791c5bdf2451020c1058c23ea271069e4d0',
        'psa_records.csv': '68b719ce1219737151e266c6d80b271cf8fc32303fec8adbdb3e3a270d83300e',
        'run_manifest.json': '4bef1b2c29c2483661086267d807d2dc5f61fe009d3acd6fce0740c58919cbc6',
    }),
    'score': (3, {
        'score_errors.csv': '7101d4851ada6e5fcd0ee4945bbd4fff9927706f949f8a3eb29fca6ba7cf3003',
        'score_results.csv': '35491351cd0871343ecc1d3770b100f90e67844f51bd6da68aa99e00261c069a',
    }),
    'audit': (0, {
        'affected_table.csv': '8ba321a95131f4b6471a522164939661c93aa9e089d48755e2baa9c9e5f4b133',
        'affected_table_sensitivity.csv': '9bf2d1c1e48676915e1eb2a0348e79fae0c56990944872a37d5368afe11fef95',
        'audit_pairs.csv': '6b057a65fa38ad232bd67b88d80e91148c8ed9ad852f4a7a3afc845956ad4ed1',
        'counts_summary.csv': '479f2f208ab821a39b70cc18ed219564e289d84820c8c1cda3358bf5492e73dd',
        'initial_distribution.csv': '91d82af58853060a1a724aaea7571569f3dcb3eb13fd1291201a938f7647d9ad',
        'input_errors.csv': '330e6aae28749ae3d45b96eb9e3102fe968b659d3641c4a254eb22cb3b99eb1c',
        'matches.csv': '7a903b9a6b071d406fc6d9f9dfd19a42e5ce626a866fd1b2112c5950420bd2ff',
        'rate_table.csv': 'ae9dd4094c30b1996e1cdeeb5652526f8aaf92418bf48ef7c191e95784975973',
        'rate_table_sensitivity.csv': '8429f849dca65c51db5d09995ab61ed059d01e3b29d52cef9aac755e799f70f8',
        'review_unresolved.csv': '861802d8f9b0a206cbab345b432a54db00a89a3bab7255e155b0f2408399730b',
        'test_summary.txt': 'eeb8885d6affd9e1e5f315f09c8d45fd50f8d77a244c55ea7ad49432c1a0be48',
    }),
    'consistency': (0, {
        'input_errors.csv': '330e6aae28749ae3d45b96eb9e3102fe968b659d3641c4a254eb22cb3b99eb1c',
        'race_consistency.csv': 'a09b91e41b617ec3bbdb590d730941e047da08dceb09cbba0d335f29fdfdb60a',
    }),
    'validate': (0, {
        'input_errors.csv': '330e6aae28749ae3d45b96eb9e3102fe968b659d3641c4a254eb22cb3b99eb1c',
        'validation_mismatches.csv': 'fe573def3be3bc4e92b2218e4825ca2c3614e7e35ab4ac84f4fc09bb3215f0f5',
        'validation_report.csv': 'f449eb63ec5fd6a72a06a29c6df4d712892ac513d03c5c7265ef69c4e6958665',
    }),
    'dedupe': (0, {
        'counts_summary.csv': '5830765fab311312dfd1c0af05f2682504d56a9ee7de5afba42509512a74640a',
        'dedupe_dropped.csv': 'cfdbe3a9ecc9fad3b63f2cfa80347a0f90142602ed5710f5b80a723ed3c2cf71',
        'deduped_records.csv': '40fcc9d6365022b9403223d1c477bd7a9e40a47d1058bc27be5e7d2f044b23f2',
        'input_errors.csv': '330e6aae28749ae3d45b96eb9e3102fe968b659d3641c4a254eb22cb3b99eb1c',
    }),
}


def _digests(out: Path, keep_manifest: bool) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if keep_manifest or p.name != "run_manifest.json"
    }


def run_all(base: Path) -> dict[str, tuple[int, dict[str, str]]]:
    sim = base / "simulate"
    results = {"simulate": (main(SIMULATE + ["--out", str(sim)]), _digests(sim, True))}
    paths = {"psa": str(sim / "psa_records.csv"), "court": str(sim / "court_cases.csv")}
    for name, args in COMMANDS.items():
        out = base / name
        code = main([a.format(**paths) for a in args] + ["--out", str(out)])
        results[name] = (code, _digests(out, False))
    return results


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    return run_all(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_golden_outputs(results, command):
    code, digests = results[command]
    want_code, want_digests = GOLDEN[command]
    assert code == want_code
    assert digests == want_digests


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):
        table = run_all(Path(tmp))
    print("GOLDEN = {")
    for name, (code, digests) in table.items():
        print(f"    {name!r}: ({code}, {{")
        for fname, digest in digests.items():
            print(f"        {fname!r}: {digest!r},")
        print("    }),")
    print("}")
