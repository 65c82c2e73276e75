"""Seeded inputs, timed operations and oracle checks for the four workloads.

Every workload is a fixed *design*: a list of input shapes (sizes, family
parameters, surfaces, pair kinds) that does not depend on the seed.  The
seed draws the parts of each input that leave its cost alone (names of
Tietze generators, conjugator letters, affine maps, signs, moved points) and
the order of operations.  A run serves the same operations in several
rounds, each in a fresh order, so every design point is timed as often as
there are rounds; see ``rounds_for`` for why their number is odd.

An operation is the in-process equivalent of one user-facing call: the
``cmd_*`` function (or ``compare_torsion`` for ``compare``) plus the
``json.dumps(report, indent=2)`` the command line applies.  Oracle checks are
separate callables, run outside the timed region.
"""

import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable

from foxtorsion import cli, equivalence, lyon
from foxtorsion.abelian import LaurentPoly
from foxtorsion.equivalence import Witness
from foxtorsion.torsion import TorsionClass

GENERATORS = ("a", "b", "x")
NO_MAP_REASON = "no hull-compatible map matches coefficients"


@dataclass
class Op:
    """One closed-loop request: ``run`` is timed, ``check`` is not.

    ``run()`` returns ``(report, text)``; ``check(report, text)`` returns
    ``None`` when the output matches the oracle, else a one-line reason, and
    records the size of the printed support in ``props``.
    ``inputs`` is what the program receives (a file path, a family member,
    two classes); ``props`` holds the input properties summarised in the
    results.
    """

    run: Callable
    check: Callable
    inputs: tuple
    props: dict = field(default_factory=dict)


def rng_for(workload, seed, round_index):
    # String seeds hash through SHA-512, so draws do not depend on PYTHONHASHSEED.
    return random.Random(f"{workload}:{seed}:{round_index}")


def _json(report):
    return json.dumps(report, indent=2)


# ---------------------------------------------------------------------------
# free-group helpers (independent of foxtorsion.words, so the generators and
# the program under test share no word code)


def reduce_letters(letters):
    out = []
    for name, sign in letters:
        if out and out[-1][0] == name and out[-1][1] == -sign:
            out.pop()
        else:
            out.append((name, sign))
    return out


def inverse(letters):
    return [(name, -sign) for name, sign in reversed(letters)]


def random_word(rng, names, length):
    out = []
    while len(out) < length:
        letter = (rng.choice(names), rng.choice((1, -1)))
        if out and out[-1][0] == letter[0] and out[-1][1] == -letter[1]:
            continue
        out.append(letter)
    return out


def conjugate(c, r):
    """The letters of c r c^-1, not reduced."""
    return c + r + inverse(c)


def power(letters, sign):
    return letters if sign == 1 else inverse(letters)


def letters_of(word):
    return list(word.letters)


def syllable_text(letters):
    """Compact text with exponents: ``a^2 b^-1``."""
    parts = []
    i = 0
    while i < len(letters):
        j = i
        while j < len(letters) and letters[j] == letters[i]:
            j += 1
        name, sign = letters[i]
        k = (j - i) * sign
        parts.append(name if k == 1 else f"{name}^{k}")
        i = j
    return " ".join(parts)


def token_text(letters):
    """One token per letter: ``a a b^-1``."""
    return " ".join(name if sign == 1 else f"{name}^-1" for name, sign in letters)


def torsion_file(generators, relators, inclusion, basis=None):
    lines = ["[generators]", " ".join(generators), "[relators]"]
    lines += relators
    lines += ["[inclusion]"] + inclusion
    if basis is not None:
        names, images = basis
        lines += ["[basis]", "names = " + " ".join(names)]
        lines += [f"{g} = {' '.join(str(e) for e in v)}" for g, v in images.items()]
    return "\n".join(lines) + "\n"


def lyon_basis_section(surface):
    basis = lyon.lyon_basis(surface)
    return basis.basis_names, dict(sorted(basis.images.items()))


# ---------------------------------------------------------------------------
# torsion classes from reports, affine maps, hulls


def class_from_report(torsion_body):
    rank = len(torsion_body["variables"])
    terms = [(tuple(e), c) for e, c in torsion_body["terms"]]
    return TorsionClass(LaurentPoly(rank, terms))


def random_unimodular(rng, steps=6):
    """A 2x2 integer matrix of determinant +-1, as a product of elementary moves."""
    m = [[1, 0], [0, 1]]
    for _ in range(steps):
        k = rng.choice((-2, -1, 1, 2))
        move = rng.randrange(4)
        if move == 0:
            m[0] = [m[0][0] + k * m[1][0], m[0][1] + k * m[1][1]]
        elif move == 1:
            m[1] = [m[1][0] + k * m[0][0], m[1][1] + k * m[0][1]]
        elif move == 2:
            m = [m[1], m[0]]
        else:
            m[0] = [-m[0][0], -m[0][1]]
    return tuple(tuple(row) for row in m)


def affine_image(terms, matrix, translation, sign):
    out = {}
    for (e0, e1), coeff in terms.items():
        key = (
            matrix[0][0] * e0 + matrix[0][1] * e1 + translation[0],
            matrix[1][0] * e0 + matrix[1][1] * e1 + translation[1],
        )
        out[key] = sign * coeff
    return out


def convex_hull(points):
    """Counterclockwise extreme points of a planar set (monotone chain)."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = half(pts)
    upper = half(list(reversed(pts)))
    return lower[:-1] + upper[:-1]


def inside_hull(hull, p):
    """Whether p lies in the closed convex polygon ``hull`` (counterclockwise)."""
    n = len(hull)
    for i in range(n):
        o, a = hull[i], hull[(i + 1) % n]
        if (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0]) < 0:
            return False
    return True


def centrally_symmetric(terms):
    """Whether a term dict equals +- its reflection through its bounding-box centre."""
    keys = list(terms)
    c = tuple(min(k[i] for k in keys) + max(k[i] for k in keys) for i in range(2))
    mirrored = {(c[0] - k[0], c[1] - k[1]): v for k, v in terms.items()}
    return mirrored == terms or mirrored == {k: -v for k, v in terms.items()}


def move_interior_point(rng, terms, attempts=10_000):
    """Move one non-vertex support point to a lattice point of the hull outside
    the support, avoiding the centre of symmetry.  Returns (new terms, from, to).

    Raises ValueError when no such lattice point turns up (the hull of the
    n = 0 primed-surface class, for one, holds no lattice point outside it).
    """
    hull = convex_hull(terms)
    vertices = set(hull)
    lo = [min(k[i] for k in terms) for i in range(2)]
    hi = [max(k[i] for k in terms) for i in range(2)]
    c2 = (lo[0] + hi[0], lo[1] + hi[1])
    sources = sorted(p for p in terms if p not in vertices and (2 * p[0], 2 * p[1]) != c2)
    for _ in range(attempts):
        q = (rng.randint(lo[0], hi[0]), rng.randint(lo[1], hi[1]))
        if q in terms or (2 * q[0], 2 * q[1]) == c2 or not inside_hull(hull, q):
            continue
        p = rng.choice(sources)
        moved = dict(terms)
        moved[q] = moved.pop(p)
        return moved, p, q
    raise ValueError("no lattice point of the hull outside the support was found")


def witness_from_report(verdict):
    w = verdict["witness"]
    return Witness(
        tuple(tuple(row) for row in w["matrix"]), tuple(w["translation"]), w["sign"]
    )


# ---------------------------------------------------------------------------
# workloads


class Family:
    """``cmd_family(n, surface)`` over a log-spaced grid of n in [-1, 150].

    The paper's headline computation.  Supports grow to ~1,800 points at the
    top of the range, so hulls and the Smith normal form behind
    ``affine_dimension`` dominate; cofactor determinants, Fox calculus and the
    oracle's exact division take the rest.  ``n`` and the surface are the
    whole input, so the design fixes both (the surfaces alternate along the
    grid) and the seed only draws the order; drawing n would make the median
    and the tail depend on the seed more than on the program.
    """

    name = "family"
    grid_size = 11
    n_max = 150
    nominal_round_s = 2.5

    def grid(self):
        """The n of the design, log-spaced in [-1, n_max]."""
        top = self.n_max + 2
        return [round(top ** (i / (self.grid_size - 1))) - 2 for i in range(self.grid_size)]

    def design(self, seed, workdir):
        return [self.op(n, lyon.SURFACES[i % 2]) for i, n in enumerate(self.grid())]

    def warmup(self, workdir):
        return self.op(3, "S")

    @staticmethod
    def op(n, surface):
        def run():
            report, _ = cli.cmd_family(n, surface)
            return report, _json(report)

        def check(report, text):
            props["support_points"] = len(report["torsion"]["support"])
            if report["oracle_match"] is not True:
                return f"family n={n} {surface}: oracle_match is {report['oracle_match']!r}"
            return None

        props = {"n": n, "surface": surface, "matrix_dim": 3}
        return Op(run, check, (n, surface), props)


class Tietze:
    """``cmd_torsion(file)`` on Lyon presentations enlarged by Tietze moves.

    Each added generator comes with its defining relator y w^-1; every
    relator is then multiplied, in turn, by a conjugate of the next relator,
    and every inclusion word by a conjugate of a defining relator.  These
    moves keep the group, the inclusion images and the torsion.  No [basis]
    section, so the Smith normal form picks one and the check is equivalence
    with the oracle under a verified witness.  The design pairs many Tietze
    generators with small n and few with large n, which keeps the costs of
    the operations within one order of magnitude; the Fox matrices are 5x5 to
    7x7 and go through ``det_bareiss``.

    The cost of an operation swings by a third from one draw of the Tietze
    words to the next, so the words of each design point are the same for
    every seed, and the surfaces alternate along the design; the seed draws
    the names of the added generators and the order.  Every seed thus serves
    different files that cost the same.
    """

    name = "tietze"
    shapes = [(0, 4), (1, 4), (2, 4),
              (1, 3), (2, 3), (3, 3), (4, 3),
              (3, 2), (4, 2), (5, 2), (6, 2), (7, 2), (8, 2)]  # (n, added generators)
    name_letters = "cdefghjkmnpqrstuvwyz"
    nominal_round_s = 3.4

    def design(self, seed, workdir):
        rng = rng_for(self.name, seed, "names")
        ops = []
        for i, (n, k) in enumerate(self.shapes):
            case = lyon.LyonCase(n, lyon.SURFACES[i % 2])
            names = [f"{c}{j + 1}" for j, c in enumerate(rng.sample(self.name_letters, k))]
            text, props = self.enlarge(rng_for(self.name, "words", i), case, k, names)
            path = os.path.join(workdir, f"tietze-{i}.txt")
            with open(path, "w", encoding="ascii") as fh:
                fh.write(text)
            ops.append(self.op(path, case, props))
        return ops

    def warmup(self, workdir):
        case = lyon.LyonCase(1, "S")
        text, props = self.enlarge(rng_for(self.name, "warmup", 0), case, 2)
        path = os.path.join(workdir, "tietze-warmup.txt")
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
        return self.op(path, case, props)

    @staticmethod
    def enlarge(rng, case, k, names=None):
        """Presentation text for ``case`` with ``k`` added Tietze generators,
        named ``names`` (``y1``, ``y2``, ... by default)."""
        relator = letters_of(lyon.lyon_presentation(case.surface).relators[0])
        alpha, beta = (letters_of(w) for w in lyon.lyon_surface_words(case))
        gens = list(GENERATORS)
        relators = [relator]
        defining = []
        for i in range(k):
            y = names[i] if names else f"y{i + 1}"
            gens.append(y)
            w = random_word(rng, GENERATORS, 2)
            relators.append(reduce_letters([(y, 1)] + inverse(w)))
            defining.append(len(relators) - 1)
        for i in range(len(relators)):
            j = (i + 1) % len(relators)
            c = random_word(rng, GENERATORS, 1)
            other = power(relators[j], rng.choice((1, -1)))
            relators[i] = reduce_letters(relators[i] + conjugate(c, other))
        inclusion = []
        for word in (alpha, beta):
            c = random_word(rng, GENERATORS, 1)
            d = relators[rng.choice(defining)]
            inclusion.append(reduce_letters(word + conjugate(c, d)))
        text = torsion_file(
            gens,
            [syllable_text(r) for r in relators],
            [syllable_text(w) for w in inclusion],
        )
        props = {
            "n": case.n,
            "surface": case.surface,
            "matrix_dim": len(gens),
            "word_letters": sum(len(w) for w in relators + inclusion),
        }
        return text, props

    @staticmethod
    def op(path, case, props):
        def run():
            report, _ = cli.cmd_torsion(path)
            return report, _json(report)

        def check(report, text):
            props["support_points"] = len(report["torsion"]["support"])
            got = class_from_report(report["torsion"])
            expected = lyon.expected_torsion(case)
            verdict = equivalence.compare_torsion(got, expected)
            if verdict.kind != "Equivalent":
                return f"tietze {case}: {verdict.kind} ({verdict.reason})"
            if equivalence.apply_witness(got, verdict.witness) != expected.representative:
                return f"tietze {case}: witness does not reproduce the oracle"
            return None

        return Op(run, check, (path,), props)


class LongWords:
    """``cmd_torsion(file)`` on the Lyon presentation with long inclusion words.

    Each inclusion word is the family word times conjugates c r^+-1 c^-1 of the
    relator, written one letter per token.  The group elements are unchanged
    and the file carries the hand-picked [basis], so the torsion must equal
    the oracle exactly.  Word parsing and the abelianization maps, both
    quadratic in the word length today, carry the load; supports stay small.
    Word lengths are log-spaced from 250 to 1,000 letters (500 to 2,000
    letters per file): at 2,000 letters per word a single operation takes
    seconds, which would leave too few operations in a run for a stable tail.
    The lengths, family members and surfaces are fixed by the design, since
    they set the cost; the seed draws the conjugators, their signs and the
    order.
    """

    name = "long-words"
    design_size = 11
    min_letters = 250
    max_letters = 1000
    nominal_round_s = 2.8

    def design(self, seed, workdir):
        rng = rng_for(self.name, seed, "words")
        ops = []
        ratio = self.max_letters / self.min_letters
        for i in range(self.design_size):
            length = round(self.min_letters * ratio ** (i / (self.design_size - 1)))
            n = (8 * i) % 21  # in 0..20, spread over the lengths
            case = lyon.LyonCase(n, lyon.SURFACES[i % 2])
            text, props = self.pad(rng, case, length)
            path = os.path.join(workdir, f"long-words-{i}.txt")
            with open(path, "w", encoding="ascii") as fh:
                fh.write(text)
            ops.append(self.op(path, case, props))
        return ops

    def warmup(self, workdir):
        case = lyon.LyonCase(2, "S")
        text, props = self.pad(rng_for(self.name, "warmup", 0), case, 100)
        path = os.path.join(workdir, "long-words-warmup.txt")
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
        return self.op(path, case, props)

    @staticmethod
    def pad(rng, case, length):
        """File text whose inclusion words have about ``length`` letters each."""
        relator = letters_of(lyon.lyon_presentation(case.surface).relators[0])
        words = []
        for word in lyon.lyon_surface_words(case):
            letters = letters_of(word)
            while len(letters) < length:
                room = (length - len(letters) - len(relator)) // 2
                c = random_word(rng, GENERATORS, max(1, min(rng.randint(20, 60), room)))
                r = power(relator, rng.choice((1, -1)))
                letters = reduce_letters(letters + conjugate(c, r))
            words.append(letters)
        text = torsion_file(
            GENERATORS,
            [syllable_text(relator)],
            [token_text(w) for w in words],
            lyon_basis_section(case.surface),
        )
        props = {
            "n": case.n,
            "surface": case.surface,
            "matrix_dim": 3,
            "word_letters": sum(len(w) for w in words),
        }
        return text, props

    @staticmethod
    def op(path, case, props):
        def run():
            report, _ = cli.cmd_torsion(path)
            return report, _json(report)

        def check(report, text):
            props["support_points"] = len(report["torsion"]["support"])
            if class_from_report(report["torsion"]) != lyon.expected_torsion(case):
                return f"long-words {case}: torsion differs from the oracle"
            return None

        return Op(run, check, (path,), props)


class Compare:
    """``compare_torsion(t1, t2)`` on family oracle classes, n in [0, 100].

    Three pair kinds in fixed proportions, one per design point in turn:
    (a) an image under a seeded unimodular affine map and sign, Equivalent;
    (b) S against Sprime at the same n, rejected by the edge-length invariant;
    (c) one non-vertex support point moved to a lattice point of the hull
    outside the support, which keeps every hull invariant but breaks central
    symmetry, so the verdict needs the full map enumeration (from n = 1: at
    n = 0 the primed hull holds no lattice point outside the support).  The only
    workload that runs ``equivalence`` on large supports; it never touches
    words, Fox calculus, determinants or the kernels.  The n and surfaces
    are fixed by the design, since they set the support sizes; the seed draws
    the maps, signs, moved points and the order.
    """

    name = "compare"
    design_size = 9
    n_max = 100
    nominal_round_s = 3.5
    kinds = ("affine", "surfaces", "moved")

    def design(self, seed, workdir):
        rng = rng_for(self.name, seed, "pairs")
        ops = []
        for i in range(self.design_size):
            n = round((self.n_max + 1) ** (i / (self.design_size - 1))) - 1
            kind = self.kinds[(i + 1) % 3]  # the largest n gets an affine image
            ops.append(self.pair(rng, n, kind, lyon.SURFACES[i % 2]))
        return ops

    def warmup(self, workdir):
        return self.pair(rng_for(self.name, "warmup", 0), 2, "moved", "S")

    def pair(self, rng, n, kind, surface):
        if kind == "moved":
            n = max(n, 1)
        t1 = lyon.expected_torsion(n, surface)
        terms = t1.representative.terms
        if kind == "affine":
            matrix = random_unimodular(rng)
            translation = (rng.randint(-5, 5), rng.randint(-5, 5))
            t2 = TorsionClass(
                LaurentPoly(2, affine_image(terms, matrix, translation, rng.choice((1, -1))))
            )
        elif kind == "surfaces":
            t1, t2 = lyon.expected_torsion(n, "S"), lyon.expected_torsion(n, "Sprime")
        else:
            moved, _, _ = move_interior_point(rng, terms)
            if not centrally_symmetric(terms) or centrally_symmetric(moved):
                raise AssertionError("moved-point pair is not provably inequivalent")
            t2 = TorsionClass(LaurentPoly(2, moved))
        props = {
            "n": n,
            "kind": kind,
            "support_points": len(t1.representative.terms),
        }
        return self.op(t1, t2, kind, props)

    @staticmethod
    def op(t1, t2, kind, props):
        def run():
            verdict = equivalence.compare_torsion(t1, t2)
            report = {
                "torsion_verdict": {
                    "kind": verdict.kind,
                    "reason": verdict.reason,
                    "witness": cli._witness_dict(verdict.witness),
                }
            }
            return report, _json(report)

        def check(report, text):
            v = report["torsion_verdict"]
            if kind == "affine":
                if v["kind"] != "Equivalent":
                    return f"affine pair: {v['kind']} ({v['reason']})"
                if equivalence.apply_witness(t1, witness_from_report(v)) != t2.representative:
                    return "affine pair: witness does not reproduce the image"
            elif kind == "surfaces":
                if (v["kind"], v["reason"]) != ("NotEquivalent", "edge_length_multiset"):
                    return f"surface pair: {v['kind']} ({v['reason']})"
            elif (v["kind"], v["reason"]) != ("NotEquivalent", NO_MAP_REASON):
                return f"moved-point pair: {v['kind']} ({v['reason']})"
            return None

        return Op(run, check, (t1, t2), props)


WORKLOADS = {w.name: w for w in (Family(), Tietze(), LongWords(), Compare())}


# Round counts for which the median and the tail (``run.tail``: ten samples
# beyond it) both land on the middle sample of one design point, when the
# design has an odd number of operations and they sort by cost: the tail is
# then the median of the second (7 rounds) or fourth (3 rounds) costliest
# design point, so one call slowed by load from elsewhere on the host does
# not move either.
ROUND_COUNTS = (1, 3, 7, 21)


def rounds_for(workload, seconds, calls=1):
    """Rounds a run executes: the largest count in ``ROUND_COUNTS`` that the
    nominal pace fits into ``seconds`` (rounding to the nearest round), when
    every operation is called ``calls`` times per round.

    Fixed by the workload and ``--seconds`` rather than by the clock, so every
    commit measured with the same settings runs exactly the same operations.
    """
    fit = int(seconds / (calls * workload.nominal_round_s) + 0.5)
    return max(r for r in ROUND_COUNTS if r <= max(1, fit))


def make_rounds(workload, seed, count, workdir):
    """``count`` rounds of the workload's operations for ``seed``, each round
    the same operations in a fresh seeded order."""
    ops = workload.design(seed, workdir)
    rounds = []
    for r in range(count):
        order = list(ops)
        rng_for(workload.name, seed, r).shuffle(order)
        rounds.append(order)
    return rounds
