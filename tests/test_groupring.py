import random

from hypothesis import given, settings
from hypothesis import strategies as st

from foxtorsion import parse_word
from foxtorsion.groupring import fox_derivative
from foxtorsion._kernels import accumulate

from helpers import GroupRingElement, Word, random_word

GENS = ("a", "b", "x")


def word(text):
    return parse_word(text, GENS)


def ring(*pairs):
    return GroupRingElement({word(t): c for t, c in pairs})


def test_augmentation_examples():
    assert ring(("", 1), ("x", 1), ("x^2", 1)).augmentation() == 3
    assert GroupRingElement.zero().augmentation() == 0
    assert ring(("a", 2), ("b^-1", -2)).augmentation() == 0


def test_fox_derivative_of_relator():
    # d(x^3 b^-2 a^-2)/dx = 1 + x + x^2
    assert fox_derivative(word("x^3 b^-2 a^-2"), "x") == ring(
        ("", 1), ("x", 1), ("x^2", 1)
    )


def test_fox_derivative_inverse_letter():
    assert fox_derivative(word("a^-1"), "a") == ring(("a^-1", -1))


def test_fox_derivative_square_letters():
    assert fox_derivative(word("a^2 b^2"), "a") == ring(("", 1), ("a", 1))


def test_fox_derivative_surface_word_at_n0():
    assert fox_derivative(word("a b"), "a") == GroupRingElement.one()


def test_fox_derivative_other_generator_is_zero():
    assert fox_derivative(word("a b a^-1"), "x") == GroupRingElement.zero()


def test_ring_identity():
    one = GroupRingElement.one()
    x = ring(("x", 1))
    assert (one + x) * (one - x) == one - x * x


def test_ring_cancellation():
    a = ring(("a", 1))
    assert (a + (-a)).is_zero
    assert ring(("a", 1)) * ring(("b^-1", 1)) == ring(("a b^-1", 1))


def test_scalar_multiplication():
    e = ring(("a", 2), ("b", -1))
    assert 3 * e == ring(("a", 6), ("b", -3))
    assert 0 * e == GroupRingElement.zero()


def test_leibniz_rule_randomized():
    # d(uw) = du * aug(w) + u * dw; with aug(word) = 1 both forms coincide.
    rng = random.Random(11)
    for _ in range(200):
        u = random_word(rng)
        w = random_word(rng)
        g = rng.choice(("a", "b", "c"))
        aug_w = GroupRingElement.from_word(w).augmentation()
        product_rule = GroupRingElement(fox_derivative(u, g).terms) * aug_w + GroupRingElement.from_word(
            u
        ) * fox_derivative(w, g)
        classical = fox_derivative(u, g) + GroupRingElement.from_word(
            u
        ) * fox_derivative(w, g)
        assert product_rule == classical
        assert fox_derivative(u * w, g) == product_rule


def test_fundamental_identity_randomized():
    # sum_g d(w)/dg * (g - 1) = w - 1 in the group ring
    rng = random.Random(13)
    names = ("a", "b", "c")
    one = GroupRingElement.one()
    for _ in range(200):
        w = random_word(rng, names)
        total = GroupRingElement.zero()
        for g in names:
            gminus1 = GroupRingElement.from_word(Word(((g, 1),))) - one
            total = total + fox_derivative(w, g) * gminus1
        assert total == GroupRingElement.from_word(w) - one


def fox_derivative_power(base, k, gen):
    """Fox derivative of base**k via the geometric-sum identity, for k >= 0:
    d(v^k)/dg = (1 + v + ... + v^(k-1)) * dv/dg."""
    geo = GroupRingElement.zero()
    power = Word.identity()
    for _ in range(k):
        geo = geo + GroupRingElement.from_word(power)
        power = power * base
    return geo * fox_derivative(base, gen)


def test_power_shortcut_matches_letterwise():
    rng = random.Random(17)
    for _ in range(100):
        base = random_word(rng, max_len=6)
        k = rng.randint(0, 10)
        g = rng.choice(("a", "b", "c"))
        assert fox_derivative_power(base, k, g) == fox_derivative(base ** k, g)


def fox_derivative_by_sums(word, gen):
    """The summing form of `fox_derivative`: every prefix term goes through
    `accumulate`, which would merge and cancel equal prefixes."""
    letters = word.letters
    return GroupRingElement._raw(
        accumulate(
            (Word(letters[:i] if sign > 0 else letters[: i + 1]), sign)
            for i, (lname, sign) in enumerate(letters)
            if lname == gen
        )
    )


NAMES = ("a", "b", "c", "d")
letter_lists = st.lists(
    st.tuples(st.sampled_from(NAMES), st.sampled_from((1, -1))), max_size=60
)


@st.composite
def reduced_words(draw):
    """Reduced words of three shapes: a power g^L, a product whose middle
    cancels (u v v^-1 w, reduced on construction), and a random word in
    1-4 generators."""
    shape = draw(st.sampled_from(("power", "cancelling", "random")))
    if shape == "power":
        g = draw(st.sampled_from(NAMES))
        return Word([(g, draw(st.sampled_from((1, -1))))]) ** draw(
            st.integers(0, 400)
        )
    if shape == "cancelling":
        u, v, w = (Word(draw(letter_lists)) for _ in range(3))
        return u * v * v.inverse() * w
    names = NAMES[: draw(st.integers(1, 4))]
    return Word(
        draw(
            st.lists(
                st.tuples(st.sampled_from(names), st.sampled_from((1, -1))),
                max_size=200,
            )
        )
    )


@settings(max_examples=400, deadline=None)
@given(reduced_words(), st.sampled_from(NAMES))
def test_fox_derivative_matches_the_summing_form(w, g):
    got = fox_derivative(w, g)
    want = fox_derivative_by_sums(w, g)
    assert list(got.terms.items()) == list(want.terms.items())
    # every occurrence of g or g^-1 gives its own term: no two prefixes merge
    assert len(got.terms) == sum(name == g for name, _ in w.letters)
