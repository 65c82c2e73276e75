"""A catalogue of mutants of src/ that the suite must kill, and its runner.

Each entry is (name, file, original text, mutated text, pytest selection);
a selection of several node ids separates them by spaces.
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
WORDS = "src/foxtorsion/words.py"
ABELIAN = "src/foxtorsion/abelian.py"
CLI = "src/foxtorsion/cli.py"
LYON = "src/foxtorsion/lyon.py"
CONTRACT = "tests/test_torsion.py::test_the_deletion_keeps_its_contract_on_"
ONE_SORT = "tests/test_abelian.py::test_one_sort_serves_terms_and_rendering"
SECTION = "tests/test_cli.py::test_the_torsion_section_matches_the_references"
CLOSED_FORM = "tests/test_lyon.py::test_the_closed_form_holds_at_every_n"
REDUCED_CLASS = "tests/test_torsion.py::test_reduced_words_give_the_class_of_the_unreduced_matrix"

MUTANTS = [
    (
        "no cancel after a deletion",
        WORDS,
        "cancel = True",
        "cancel = False",
        CONTRACT + "padded_inputs",
    ),
    (
        "a hit taken without its letter check",
        WORDS,
        'if "".join(stack[-m:]) == rotation[s : s + m]:',
        "if True:",
        CONTRACT + "padded_inputs",
    ),
    (
        "one letter cancelled too many after a deletion",
        WORDS,
        "del stack[-m:]\n                    del hashes[-m:]",
        "del stack[max(1, n - m - 1) :]\n                    del hashes[max(1, n - m - 1) :]",
        CONTRACT + "padded_inputs",
    ),
    (
        "the shortest window length skipped",
        WORDS,
        "for m, top, rotations in windows:",
        "for m, top, rotations in windows[1:]:",
        CONTRACT + "padded_inputs",
    ),
    (
        "no second scan after a deletion",
        WORDS,
        "if scanned is None:\n                break\n            left = scanned",
        "if scanned is not None:\n                left = scanned\n            break",
        CONTRACT + "random_long_words",
    ),
    (
        "the kill test ignored",
        WORDS,
        "killed = [r for r, k in zip(relators, kills) if k]",
        "killed = relators",
        "tests/test_torsion.py::test_deleting_relator_rotations_keeps_the_determinant",
    ),
    (
        "every window length looked up at every letter",
        WORDS,
        "if n <= m:\n                break\n"
        "            hit = rotations.get((h - hashes[-1 - m] * top) % mod)",
        "hit = rotations.get((h - hashes[max(0, n - 1 - m)] * top) % mod)",
        CONTRACT + "the_designs",
    ),
    (
        "each text scanned twice",
        WORDS,
        "scanned = _delete_rotations(left, windows, base, mod, inverse)",
        "_delete_rotations(left, windows, base, mod, inverse)\n"
        "            scanned = _delete_rotations(left, windows, base, mod, inverse)",
        "tests/test_torsion.py::test_relator_deletion_hashes_no_more_windows_than_the_letter_scan",
    ),
    (
        "every letter hashed alike",
        WORDS,
        "h = (hashes[-1] * base + ord(c)) % mod",
        "h = (hashes[-1] * base + 1) % mod",
        CONTRACT + "padded_inputs",
    ),
    (
        "a Tietze move's inverse image not inverted",
        WORDS,
        "(g, e): [(h, -sign) for h, sign in reversed(vu)]",
        "(g, e): vu",
        REDUCED_CLASS,
    ),
    (
        "u and v swapped in a Tietze move's image",
        WORDS,
        "vu = list(r[i + 1 :])\n    _push_reduced(vu, r[:i])",
        "vu = list(r[:i])\n    _push_reduced(vu, r[i + 1 :])",
        REDUCED_CLASS,
    ),
    (
        "moves on relators the map does not kill",
        WORDS,
        "once = Counter(map(itemgetter(0), r)) if kills[j - first] else {}",
        "once = Counter(map(itemgetter(0), r))",
        REDUCED_CLASS,
    ),
    (
        "the Fox prefix index off by one",
        TORSION,
        "k = prefix[s + len(u.letters)]",
        "k = prefix[s + len(u.letters) - 1]",
        "tests/test_torsion.py::test_fox_columns_satisfy_the_fundamental_formula",
    ),
    (
        "the packed field width one bit short",
        TORSION,
        "width = (3 * n * bound).bit_length() + 1",
        "width = max((3 * n * bound).bit_length(), 1)",
        "tests/test_torsion.py::test_cleared_cofactor_matches_the_references",
    ),
    (
        "a line base off by one step (t rounded toward zero)",
        "src/foxtorsion/_kernels.py",
        "t = (((k + low) >> place & mask) - half) // ua",
        "t = int((((k + low) >> place & mask) - half) / ua)",
        "tests/test_abelian.py::test_binomial_division_matches_the_leading_term_loop_at_the_corners",
    ),
    (
        "the degree sort of the terms dropped",
        ABELIAN,
        "order.sort(key=sum)\n    return",
        "return",
        ONE_SORT + " " + SECTION,
    ),
    (
        "support written in graded order",
        CLI,
        '"support": lex,',
        '"support": [e for e, _ in ordered],',
        SECTION,
    ),
    (
        "exponent 1 rendered as ^1",
        ABELIAN,
        '        pieces[1] = "*" + name\n',
        "",
        ONE_SORT,
    ),
    (
        "the no-growth check of the Tietze moves removed",
        WORDS,
        "reduced = _eliminate(words, j, i, bound)",
        'reduced = _eliminate(words, j, i, float("inf"))',
        "tests/test_torsion.py::test_refused_moves_write_letters_linear_in_the_input",
    ),
    (
        "the [basis] path skips the H_1 factor loop",
        ABELIAN,
        "for d in factors:\n        if d > 1:",
        "for d in factors if user_basis is None else ():\n        if d > 1:",
        "tests/test_abelian.py::test_both_paths_refuse_a_finite_factor_of_h1_alike",
    ),
    (
        "a coefficient of the closed form's first term changed",
        LYON,
        "[((2, 0), 1), ((1, 3), 1), ((1, 6), 1), ((0, 6), 1)]",
        "[((2, 0), 1), ((1, 3), 2), ((1, 6), 1), ((0, 6), 1)]",
        CLOSED_FORM,
    ),
    (
        "the shift 3n + 3 read as 3n",
        LYON,
        ").shifted((0, 3 * n + 3))\n    else:",
        ").shifted((0, 3 * n))\n    else:",
        CLOSED_FORM,
    ),
    (
        "a prefactor term dropped",
        LYON,
        "prefactor = _poly2([((0, 0), 1), ((0, 2), 1), ((0, 4), 1)])",
        "prefactor = _poly2([((0, 0), 1), ((0, 2), 1)])",
        CLOSED_FORM,
    ),
    (
        "the oracle's product taken after the division",
        LYON,
        "((first - second) * prefactor).exact_div(denominator)",
        "(first - second).exact_div(denominator) * prefactor",
        "tests/test_lyon.py::test_the_oracle_multiplies_before_it_divides",
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
                   "--hypothesis-seed=0", *selection.split()]
        done = subprocess.run(command, cwd=copy, capture_output=True, text=True)
    if done.returncode not in (0, 1):
        sys.exit(f"pytest exited {done.returncode} on {selection}\n{done.stdout}{done.stderr}")
    return done.returncode, (done.stdout.strip().splitlines() or [""])[-1]


def main():
    begun = time.perf_counter()
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
    print(f"{len(MUTANTS)} mutants in {time.perf_counter() - begun:.0f} s", flush=True)
    if survived:
        sys.exit(f"{len(survived)} mutants passed their selections: {survived}")


if __name__ == "__main__":
    main()
