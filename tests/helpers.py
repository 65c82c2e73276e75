"""Shared randomized-input builders and call counters for the test suite."""

from foxtorsion import LaurentPoly, Word, cli, equivalence, polytope


def random_word(rng, names=("a", "b", "c"), max_len=12):
    letters = [
        (rng.choice(names), rng.choice((1, -1))) for _ in range(rng.randint(0, max_len))
    ]
    return Word(letters)


def random_laurent(rng, rank=2, max_terms=6, exp_span=3, coeff_span=4, nonzero=False):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(-exp_span, exp_span) for _ in range(rank))
        coeff = rng.randint(-coeff_span, coeff_span)
        if coeff:
            terms[exps] = coeff
    poly = LaurentPoly(rank, terms)
    if nonzero and poly.is_zero:
        poly = LaurentPoly.monomial((1,) * rank, 1 + rng.randint(0, coeff_span))
    return poly


def random_unimodular(rng, steps=8):
    """Random 2x2 integer matrix of determinant +-1 (elementary products)."""
    U = [[1, 0], [0, 1]]
    for _ in range(steps):
        k = rng.randint(-3, 3)
        move = rng.randrange(4)
        if move == 0:
            U[0] = [U[0][0] + k * U[1][0], U[0][1] + k * U[1][1]]
        elif move == 1:
            U[1] = [U[1][0] + k * U[0][0], U[1][1] + k * U[0][1]]
        elif move == 2:
            U = [U[1], U[0]]
        else:
            U[0] = [-U[0][0], -U[0][1]]
    return tuple(tuple(row) for row in U)


def apply_affine(terms, U, v, sign=1):
    """Push a term dict through exponents -> U @ exponents + v."""
    out = {}
    r = len(v)
    for exps, coeff in terms.items():
        key = tuple(
            sum(U[i][j] * exps[j] for j in range(len(exps))) + v[i] for i in range(r)
        )
        out[key] = out.get(key, 0) + sign * coeff
    return {k: c for k, c in out.items() if c}


def count_hull_builds(monkeypatch):
    """Count ``newton_polytope`` calls at every module that binds it.

    Returns a list that receives the size of each hulled point set, one entry
    per call, for as long as the monkeypatch lasts.
    """
    sizes = []
    original = polytope.newton_polytope

    def counted(support_set):
        sizes.append(len(support_set.points))
        return original(support_set)

    for module in (polytope, equivalence, cli):
        monkeypatch.setattr(module, "newton_polytope", counted)
    return sizes
