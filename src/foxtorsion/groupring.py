"""Integer group-ring elements over a free group, and Fox derivatives.

The derivative convention is left-to-right: d(uw) = du * aug(w) + u * dw,
which on single letters gives dg/dg = 1 and d(g^-1)/dg = -g^-1.
"""

from ._kernels import accumulate, add_terms
from .words import Word, render_word


class GroupRingElement:
    """Finite integer combination of free-group words."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        items = terms.items() if isinstance(terms, dict) else terms or ()
        self.terms = accumulate((word, int(coeff)) for word, coeff in items)

    @classmethod
    def _raw(cls, terms):
        e = cls.__new__(cls)
        e.terms = terms
        return e

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({Word.identity(): 1})

    @classmethod
    def from_word(cls, word, coeff=1):
        return cls({word: coeff})

    @property
    def is_zero(self):
        return not self.terms

    def augmentation(self):
        return sum(self.terms.values())

    def __add__(self, other):
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        return GroupRingElement._raw(add_terms(self.terms, other.terms))

    def __neg__(self):
        return GroupRingElement._raw({w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return GroupRingElement.zero()
            return GroupRingElement._raw({w: c * other for w, c in self.terms.items()})
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        return GroupRingElement._raw(
            accumulate(
                (wa * wb, ca * cb)
                for wa, ca in self.terms.items()
                for wb, cb in other.terms.items()
            )
        )

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

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
