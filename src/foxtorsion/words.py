"""Free-group words, presentations, and the word grammar.

Words are immutable, freely reduced sequences of signed letters; a generator
is its name, a string.  The text grammar, used both in the library and in CLI
input files:

    word  :=  term*
    term  :=  atom ('^' integer)?
    atom  :=  generator-name  |  '(' word ')'

Generator names match ``[A-Za-z][A-Za-z0-9_]*`` (ASCII only), an integer is a
sign and decimal digits of any script (Unicode Nd), and whitespace is ignored
except between names: a name is read as long as it goes, so touching names
are one name (``ab``), while a parenthesis or an exponent ends an atom and a
name may follow it directly (``a^1b`` is ``a b``).  Parentheses nest at most
``MAX_NESTING`` deep, and the empty string denotes the identity.  The canonical renderer emits the ``a^-1`` exponent form, so
rendered words re-parse to themselves.
"""

import re

from .errors import (
    DuplicateGenerator,
    InvalidGeneratorName,
    ParseError,
    UnknownGenerator,
    WordSizeError,
)

# Words are stored fully expanded, so powers with huge exponents are rejected
# instead of represented symbolically.  Parsing and fox_matrix are linear in
# the letters (fox_matrix peaks at 3.3 MB on a random 20,000-letter word), so
# this bounds what is stored and echoed back in reports, not parse time.
MAX_WORD_LETTERS = 20_000
MAX_EXPONENT = 2**31
# A budget that input files are promised; the parser keeps open parentheses
# on an explicit stack, so the bound guards no recursion.
MAX_NESTING = 100

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
# After whitespace: a name, a parenthesis, or neither (the end or a stray).
_TOKEN_RE = re.compile(rf"\s*(?:({_NAME_RE.pattern})|([()])|)")
# Right after an atom; a '^' without digits is a malformed exponent.
_EXPONENT_RE = re.compile(r"\^([+-]?(\d*))")


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
    def generator(cls, name, sign=1):
        return cls(((name, sign),))

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


def parse_word(text, names):
    """Parse the word grammar over the given generator names into a reduced Word.

    One loop over tokens, linear in the letters: each '(' saves the enclosing
    sequence's letter stack, and each atom's letters are pushed onto the
    current freely reduced stack or cancel against its top; a power reduces
    its atom once.  The result equals folding the syntax tree through
    ``Word.__mul__`` and ``Word.__pow__``, errors included, left to right.

    Raises ParseError (with position) for unknown generator names, malformed
    exponents, unbalanced parentheses, parentheses nested deeper than
    MAX_NESTING, or stray characters; WordSizeError for exponents beyond
    MAX_EXPONENT (a digit run longer than MAX_EXPONENT's is rejected unread)
    and words beyond MAX_WORD_LETTERS.
    """
    names = set(names)
    open_parens = []  # (position of the '(', the enclosing sequence's stack)
    stack = []  # the current sequence's letters so far, freely reduced
    pos = 0
    while True:
        token = _TOKEN_RE.match(text, pos)
        name, paren = token.groups()
        pos = token.end()
        if name:
            if name not in names:
                raise ParseError(f"unknown generator {name!r}", token.start(1))
            atom = ((name, 1),)
        elif paren == "(":
            if len(open_parens) == MAX_NESTING:
                message = f"parentheses nested deeper than {MAX_NESTING}"
                raise ParseError(message, pos - 1)
            open_parens.append((pos - 1, stack))
            stack = []
            continue
        elif paren:
            if not open_parens:
                raise ParseError("unbalanced parentheses: unexpected ')'", pos - 1)
            atom = stack
            stack = open_parens.pop()[1]
        elif pos < len(text):
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        elif open_parens:
            raise ParseError("unbalanced parentheses: missing ')'", open_parens[-1][0])
        else:
            return Word._from_reduced(stack)
        if exponent := _EXPONENT_RE.match(text, pos):
            digits = exponent.group(2)
            if not digits:
                raise ParseError("malformed exponent", pos + 1)
            # Longer runs exceed MAX_EXPONENT; int() would meet its string limit.
            if len(digits) > len(str(MAX_EXPONENT)):
                raise WordSizeError(
                    f"exponent with {len(digits)} digits exceeds {MAX_EXPONENT}"
                )
            k = int(exponent.group(1))
            if abs(k) > MAX_EXPONENT:
                raise WordSizeError(f"exponent magnitude {k} exceeds {MAX_EXPONENT}")
            pos = exponent.end()
            if k < 0:
                atom, k = [(g, -sign) for g, sign in reversed(atom)], -k
            if len(atom) * k > MAX_WORD_LETTERS:
                raise WordSizeError("power exceeds the word size limit")
            atom = _reduce(atom * k)
        if len(stack) + len(atom) > MAX_WORD_LETTERS:
            raise WordSizeError("product exceeds the word size limit")
        _push_reduced(stack, atom)


class Presentation:
    """An ordered generator list together with freely reduced relator words."""

    def __init__(self, generators, relators=()):
        names = tuple(str(g) for g in generators)
        for name in names:
            if not _NAME_RE.fullmatch(name):
                raise InvalidGeneratorName(f"invalid generator name {name!r}")
        if len(set(names)) != len(names):
            raise DuplicateGenerator(f"duplicate generator names in {list(names)}")
        rels = []
        for r in relators:
            word = r if isinstance(r, Word) else parse_word(str(r), names)
            unknown = word.generator_names() - set(names)
            if unknown:
                raise UnknownGenerator(
                    f"relator {render_word(word)!r} uses unknown generators {sorted(unknown)}"
                )
            rels.append(word)
        self.generators = names
        self.relators = tuple(rels)

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
        gens = ", ".join(self.generators)
        rels = ", ".join(render_word(r) for r in self.relators)
        return f"<{gens} | {rels}>"
