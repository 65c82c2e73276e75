"""Free-group words, presentations, and the word grammar.

Words are immutable, freely reduced sequences of signed generator letters.
The text grammar, used both in the library and in CLI input files:

    word  :=  term*
    term  :=  atom ('^' integer)?
    atom  :=  generator-name  |  '(' word ')'

Generator names match ``[A-Za-z][A-Za-z0-9_]*`` (ASCII only), juxtaposed
atoms must be separated by whitespace or parentheses, whitespace is otherwise
ignored, parentheses nest at most ``MAX_NESTING`` deep, and the empty string
denotes the identity.  The canonical renderer emits the ``a^-1`` exponent
form, so rendered words re-parse to themselves.
"""

import re
from dataclasses import dataclass

from .errors import (
    DuplicateGenerator,
    InvalidGeneratorName,
    ParseError,
    UnknownGenerator,
    WordSizeError,
)

# Words are stored fully expanded, so powers with huge exponents are rejected
# instead of represented symbolically.  Parsing is linear in the letters, and
# so is fox_matrix, which differentiates each word in blocks of at most
# torsion.FOX_BLOCK letters: on a random reduced 20,000-letter word in three
# generators its tracemalloc peak is 3.3 MB.  So this bounds what is stored and
# echoed back in reports; it is no guard against parse time.
MAX_WORD_LETTERS = 20_000
MAX_EXPONENT = 2**31
# The parser recurses once per '(', so deeper nesting is rejected before it
# can exhaust the interpreter's stack.
MAX_NESTING = 100

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


@dataclass(frozen=True)
class Generator:
    """A named free-group generator; names are case-sensitive identifiers."""

    name: str

    def __post_init__(self):
        if not _NAME_RE.fullmatch(self.name):
            raise InvalidGeneratorName(f"invalid generator name {self.name!r}")

    def __str__(self):
        return self.name


def _gen_name(g):
    return g.name if isinstance(g, Generator) else str(g)


def _push_reduced(stack, letters):
    """Push letters onto a freely reduced stack, each cancelling its inverse
    on top; the stack stays freely reduced."""
    for name, sign in letters:
        if stack and stack[-1][0] == name and stack[-1][1] == -sign:
            stack.pop()
        else:
            stack.append((name, sign))
    return stack


def _reduce(letters):
    return tuple(_push_reduced([], letters))


class Word:
    """A freely reduced word; the empty word is the identity."""

    __slots__ = ("letters",)

    def __init__(self, letters=()):
        letters = tuple(letters)
        if len(letters) > MAX_WORD_LETTERS:
            raise WordSizeError(
                f"word with {len(letters)} letters exceeds the limit of {MAX_WORD_LETTERS}"
            )
        for name, sign in letters:
            if sign not in (1, -1):
                raise ValueError(f"letter sign must be +1 or -1, got {sign!r}")
        self.letters = _reduce(letters)

    @classmethod
    def _from_reduced(cls, letters):
        # Trusted constructor for sequences that are already freely reduced.
        w = cls.__new__(cls)
        w.letters = tuple(letters)
        return w

    @classmethod
    def identity(cls):
        return cls._from_reduced(())

    @classmethod
    def generator(cls, g, sign=1):
        return cls(((_gen_name(g), sign),))

    @property
    def is_identity(self):
        return not self.letters

    def generator_names(self):
        return {name for name, _ in self.letters}

    def __len__(self):
        return len(self.letters)

    def __mul__(self, other):
        if not isinstance(other, Word):
            return NotImplemented
        if len(self.letters) + len(other.letters) > MAX_WORD_LETTERS:
            raise WordSizeError("product exceeds the word size limit")
        return Word(self.letters + other.letters)

    def inverse(self):
        return Word._from_reduced(
            tuple((name, -sign) for name, sign in reversed(self.letters))
        )

    def __invert__(self):
        return self.inverse()

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if abs(k) > MAX_EXPONENT:
            raise WordSizeError(f"exponent magnitude {k} exceeds {MAX_EXPONENT}")
        if k == 0:
            return Word.identity()
        if k < 0:
            return self.inverse() ** (-k)
        if len(self.letters) * k > MAX_WORD_LETTERS:
            raise WordSizeError("power exceeds the word size limit")
        return Word(self.letters * k)

    def __eq__(self, other):
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __repr__(self):
        return f"Word({render_word(self)!r})"


def render_word(w):
    """Canonical text for a word: syllables like ``a^3 b^-2``, identity is ``''``."""
    parts = []
    i = 0
    letters = w.letters
    while i < len(letters):
        name, sign = letters[i]
        j = i
        while j < len(letters) and letters[j] == (name, sign):
            j += 1
        k = (j - i) * sign
        parts.append(name if k == 1 else f"{name}^{k}")
        i = j
    return " ".join(parts)


def parse_word(text, generators):
    """Parse the word grammar over the given generators; returns a reduced Word.

    One pass, linear in the letters: each (sub)sequence is built on a freely
    reduced letter stack, onto which every atom's letters are pushed or
    cancel against its top; a power reduces its atom once.  The result equals
    folding the syntax tree through ``Word.__mul__`` and ``Word.__pow__``,
    errors included.

    Raises ParseError (with position) for unknown generator names, malformed
    exponents, unbalanced parentheses, parentheses nested deeper than
    MAX_NESTING, or stray characters; WordSizeError for exponents beyond
    MAX_EXPONENT (a digit run longer than MAX_EXPONENT's is rejected unread)
    and words beyond MAX_WORD_LETTERS.
    """
    names = {_gen_name(g) for g in generators}
    pos = 0
    n = len(text)

    def skip_ws():
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def parse_int():
        nonlocal pos
        start = pos
        if pos < n and text[pos] in "+-":
            pos += 1
        if pos >= n or not text[pos].isdigit():
            raise ParseError("malformed exponent", start)
        first_digit = pos
        while pos < n and text[pos].isdigit():
            pos += 1
        # A longer digit run exceeds MAX_EXPONENT; rejecting it before int()
        # also keeps clear of the interpreter's integer-string length limit.
        if pos - first_digit > len(str(MAX_EXPONENT)):
            raise WordSizeError(
                f"exponent with {pos - first_digit} digits exceeds {MAX_EXPONENT}"
            )
        value = int(text[start:pos])
        if abs(value) > MAX_EXPONENT:
            raise WordSizeError(f"exponent magnitude {value} exceeds {MAX_EXPONENT}")
        return value

    def parse_sequence(depth):
        nonlocal pos
        stack = []  # the sequence's letters so far, freely reduced
        while True:
            skip_ws()
            if pos >= n or text[pos] == ")":
                return stack
            if text[pos] == "(":
                if depth == MAX_NESTING:
                    raise ParseError(
                        f"parentheses nested deeper than {MAX_NESTING}", pos
                    )
                open_pos = pos
                pos += 1
                atom = parse_sequence(depth + 1)
                skip_ws()
                if pos >= n or text[pos] != ")":
                    raise ParseError("unbalanced parentheses: missing ')'", open_pos)
                pos += 1
            else:
                m = _NAME_RE.match(text, pos)
                if not m:
                    raise ParseError(f"unexpected character {text[pos]!r}", pos)
                if m.group() not in names:
                    raise ParseError(f"unknown generator {m.group()!r}", pos)
                atom = ((m.group(), 1),)
                pos = m.end()
            if pos < n and text[pos] == "^":
                pos += 1
                k = parse_int()
                if k < 0:
                    atom = [(name, -sign) for name, sign in reversed(atom)]
                    k = -k
                if len(atom) * k > MAX_WORD_LETTERS:
                    raise WordSizeError("power exceeds the word size limit")
                atom = _reduce(atom * k)
            if len(stack) + len(atom) > MAX_WORD_LETTERS:
                raise WordSizeError("product exceeds the word size limit")
            _push_reduced(stack, atom)

    letters = parse_sequence(0)
    if pos < n:
        # parse_sequence only stops early on ')'; at depth 0 that is unbalanced.
        raise ParseError("unbalanced parentheses: unexpected ')'", pos)
    return Word._from_reduced(letters)


class Presentation:
    """An ordered generator list together with freely reduced relator words."""

    def __init__(self, generators, relators=()):
        gens = tuple(
            g if isinstance(g, Generator) else Generator(str(g)) for g in generators
        )
        names = [g.name for g in gens]
        if len(set(names)) != len(names):
            raise DuplicateGenerator(f"duplicate generator names in {names}")
        rels = []
        for r in relators:
            word = r if isinstance(r, Word) else parse_word(str(r), gens)
            unknown = word.generator_names() - set(names)
            if unknown:
                raise UnknownGenerator(
                    f"relator {render_word(word)!r} uses unknown generators {sorted(unknown)}"
                )
            rels.append(word)
        self.generators = gens
        self.relators = tuple(rels)

    @property
    def generator_names(self):
        return tuple(g.name for g in self.generators)

    @property
    def deficiency(self):
        return len(self.generators) - len(self.relators)

    def __eq__(self, other):
        return (
            isinstance(other, Presentation)
            and self.generators == other.generators
            and self.relators == other.relators
        )

    def __repr__(self):
        gens = ", ".join(self.generator_names)
        rels = ", ".join(render_word(r) for r in self.relators)
        return f"<{gens} | {rels}>"
