"""Fox derivatives of free-group words, as integer group-ring elements.

The derivative convention is left-to-right: d(uw) = du * aug(w) + u * dw,
which on single letters gives dg/dg = 1 and d(g^-1)/dg = -g^-1.

A group-ring element exists here only as a Fox result: its terms, equality
and repr.  The ring arithmetic (sums, products, augmentation) serves only
the tests' Fox identities, so it lives on the test subclass in
``tests/helpers.py``.
"""

from .words import Word, render_word


class GroupRingElement:
    """Finite integer combination of free-group words: {Word: coefficient}."""

    __slots__ = ("terms",)

    @classmethod
    def _raw(cls, terms):
        e = cls.__new__(cls)
        e.terms = terms
        return e

    def __eq__(self, other):
        return isinstance(other, GroupRingElement) and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "GroupRingElement(0)"
        bits = []
        for word, coeff in sorted(self.terms.items(), key=lambda t: t[0].letters):
            text = render_word(word) or "1"
            bits.append(f"{coeff}*{text}")
        return "GroupRingElement(" + " + ".join(bits) + ")"


def fox_derivative(word, name):
    """Left-to-right Fox derivative of ``word`` with respect to one generator.

    An occurrence u g contributes +u and an occurrence u g^-1 contributes
    -u g^-1; both are prefixes of the reduced word, so both stay reduced.
    The prefixes are distinct, so the term dict is built in one pass with
    no summing: two occurrences of g give prefixes of different lengths,
    and a +g at i and a -g at j give equal lengths only if i = j + 1, the
    pair g^-1 g that a reduced word does not hold.  Each prefix Word is
    made with ``Word.__new__`` and one slot store, as ``Word._from_reduced``
    would, without a classmethod call per term.
    """
    letters = word.letters
    new = Word.__new__
    terms = {}
    for i, (lname, sign) in enumerate(letters):
        if lname == name:
            u = new(Word)
            u.letters = letters[:i] if sign > 0 else letters[: i + 1]
            terms[u] = sign
    return GroupRingElement._raw(terms)
