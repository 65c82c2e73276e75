"""Byte-identical reports on the benchmark's seed-7 and seed-8 designs.

The test builds the designs of all four workloads in ``perfbench/workloads.py``
in a temporary directory and runs every operation: the ``cmd_*`` call, or
``compare_torsion`` for ``compare``, and the JSON text it prints.  The
directory is replaced by ``<workdir>`` in each text, and the text's sha256 is
compared with the committed ``tests/design-manifest.json``, keyed by
``workload:seed:index``.  That is 88 reports, about 2.7 MB, so a change that
alters any report of the designs the benchmark times shows here, named.  It
reads ``perfbench/`` and writes nothing there.

Run as a script, ``python tests/test_design_manifest.py`` checks the same
digests without pytest; ``--write`` rewrites the manifest from this tree
(`write_manifest`), and each rewrite goes into CHANGES.md with its reason.
"""

import hashlib
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "design-manifest.json")
SEEDS = (7, 8)

sys.path.insert(0, os.path.join(ROOT, "perfbench"))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402


def digests():
    """{"workload:seed:index": sha256 hex digest of the report text}."""
    found = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, workload in workloads.WORKLOADS.items():
            for seed in SEEDS:
                for i, op in enumerate(workload.design(seed, tmp)):
                    _, text = op.run()
                    text = text.replace(tmp, "<workdir>")
                    found[f"{name}:{seed}:{i}"] = hashlib.sha256(text.encode()).hexdigest()
    return found


def load_manifest():
    with open(MANIFEST, encoding="ascii") as fh:
        return json.load(fh)


def write_manifest():
    with open(MANIFEST, "w", encoding="ascii") as fh:
        json.dump(digests(), fh, indent=2)
        fh.write("\n")


def changed(expected, found):
    """The keys whose digest differs, or that only one side holds, sorted."""
    return sorted(k for k in expected.keys() | found.keys() if expected.get(k) != found.get(k))


def test_design_reports_match_the_manifest():
    expected = load_manifest()
    assert len(expected) == 88
    assert changed(expected, digests()) == []


def test_a_changed_report_is_named():
    expected = {"family:7:0": "0" * 64, "tietze:8:3": "1" * 64}
    found = {"family:7:0": "0" * 64, "tietze:8:3": "2" * 64, "compare:7:1": "3" * 64}
    assert changed(expected, found) == ["compare:7:1", "tietze:8:3"]


if __name__ == "__main__":
    print(sys.version.split()[0])
    if sys.argv[1:] == ["--write"]:
        write_manifest()
        sys.exit(0)
    keys = changed(load_manifest(), digests())
    for key in keys:
        print(f"DIFF {key}")
    print(f"{len(keys)} changed reports")
    sys.exit(1 if keys else 0)
