"""A catalogue of mutants of src/ that the suite must kill, and its runner.

Each entry is (name, file, original text, mutated text, pytest selection).
The runner copies the checkout's src/, tests/, perfbench/ and pyproject.toml
into a temporary directory, replaces the original text, which must occur in
the file exactly once, by the mutated text, and runs the selection there
under a Hypothesis profile that does not shrink, with Hypothesis seed 0.
An entry passes when its selection fails; each selection must first pass
on an unmutated copy.  An entry whose original text no longer occurs
exactly once fails the runner, so a change to the code it mutates updates
or drops the entry on record.

    python tools/mutants.py
"""

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TORSION = "src/foxtorsion/torsion.py"
CONTRACT = "tests/test_torsion.py::test_the_deletion_keeps_its_contract_on_"

MUTANTS = [
    (
        "no cancel after a deletion",
        TORSION,
        "cancel = True",
        "cancel = False",
        CONTRACT + "padded_inputs",
    ),
    (
        "a hit taken without its letter check",
        TORSION,
        'if "".join(stack[-m:]) == rotation[s : s + m]:',
        "if True:",
        CONTRACT + "padded_inputs",
    ),
    (
        "one letter cancelled too many after a deletion",
        TORSION,
        "del stack[-m:]\n                    del hashes[-m:]",
        "del stack[max(1, n - m - 1) :]\n                    del hashes[max(1, n - m - 1) :]",
        CONTRACT + "padded_inputs",
    ),
    (
        "the shortest window length skipped",
        TORSION,
        "for m, top, rotations in windows:",
        "for m, top, rotations in windows[1:]:",
        CONTRACT + "padded_inputs",
    ),
    (
        "no second scan after a deletion",
        TORSION,
        "if scanned is None:\n                break\n            left = scanned",
        "if scanned is not None:\n                left = scanned\n            break",
        CONTRACT + "random_long_words",
    ),
    (
        "the kill test ignored",
        TORSION,
        "killed = [r for r, k in zip(relators, kills) if k]",
        "killed = relators",
        "tests/test_torsion.py::test_deleting_relator_rotations_keeps_the_determinant",
    ),
    (
        "every window length looked up at every letter",
        TORSION,
        "if n <= m:\n                break\n"
        "            hit = rotations.get((h - hashes[-1 - m] * top) % mod)",
        "hit = rotations.get((h - hashes[max(0, n - 1 - m)] * top) % mod)",
        CONTRACT + "the_designs",
    ),
    (
        "each text scanned twice",
        TORSION,
        "scanned = _delete_rotations(left, windows, text_weights, base, mod, inverse)",
        "_delete_rotations(left, windows, text_weights, base, mod, inverse)\n"
        "            scanned = _delete_rotations(left, windows, text_weights, base, mod, inverse)",
        "tests/test_torsion.py::test_relator_deletion_hashes_no_more_windows_than_the_letter_scan",
    ),
]

# registered only in the copies: shrinking a failure can take minutes, and a
# mutant needs only to fail
CONFTEST = """\
from hypothesis import Phase, settings

settings.register_profile("mutants", phases=[Phase.explicit, Phase.generate], database=None)
settings.load_profile("mutants")
"""


def mutate(name, file, original, mutated):
    """The text of ``file`` with the entry applied; SystemExit when the
    original text does not occur in it exactly once."""
    text = (ROOT / file).read_text(encoding="utf-8")
    found = text.count(original)
    if found != 1:
        sys.exit(f"{name}: the original text occurs {found} times in {file}, not once")
    return text.replace(original, mutated)


def pytest_in_copy(selection, file=None, text=None):
    """(exit status, last line of output) of pytest run on the selection in a
    temporary copy of the checkout, with ``file`` holding ``text`` when
    given."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", "results")
        for part in ("src", "tests", "perfbench"):
            shutil.copytree(ROOT / part, copy / part, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", copy)
        (copy / "conftest.py").write_text(CONFTEST)
        if file is not None:
            (copy / file).write_text(text, encoding="utf-8")
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                   "--hypothesis-seed=0", selection]
        done = subprocess.run(command, cwd=copy, capture_output=True, text=True)
    if done.returncode not in (0, 1):
        sys.exit(f"pytest exited {done.returncode} on {selection}\n{done.stdout}{done.stderr}")
    return done.returncode, (done.stdout.strip().splitlines() or [""])[-1]


def main():
    texts = [mutate(*entry[:4]) for entry in MUTANTS]
    # a selection that fails without a mutant kills nothing
    for selection in dict.fromkeys(entry[4] for entry in MUTANTS):
        status, summary = pytest_in_copy(selection)
        if status != 0:
            sys.exit(f"{selection} fails without a mutant: {summary}")
    survived = []
    for (name, file, _, _, selection), text in zip(MUTANTS, texts):
        start = time.perf_counter()
        status, summary = pytest_in_copy(selection, file, text)
        verdict = "SURVIVED" if status == 0 else "killed"
        print(f"{verdict:8} {name} ({time.perf_counter() - start:.0f} s): {summary}", flush=True)
        if status == 0:
            survived.append(name)
    if survived:
        sys.exit(f"{len(survived)} mutants passed their selections: {survived}")


if __name__ == "__main__":
    main()
