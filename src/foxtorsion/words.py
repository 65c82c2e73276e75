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

``parse_word`` reads one term per regex match.  A per-call memo maps the
text of each term of at most one letter (``a``, ``a^-1``, ``a^0``) to that
letter, so a repeated token costs one dict lookup and one comparison with
the top of the letter stack.  Parse time is linear in the text plus the
letters that powers and parenthesized groups expand to, and
``MAX_EXPANDED_LETTERS`` bounds those.
"""

import re
from itertools import groupby

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
# this bounds what is stored and echoed back in reports; MAX_EXPANDED_LETTERS
# bounds parse time.
MAX_WORD_LETTERS = 20_000
MAX_EXPONENT = 2**31
# Parse time is linear in the text plus the letters that powers and groups
# expand to, and a power may cancel what the one before it pushed: 200 pairs
# "a^10000 a^-10000", 3,399 characters, expand 4,000,000 letters (1.7 s on a
# 2-vCPU VM).  So the letters pushed by atoms of more than one letter may
# total this many; the line above is refused at its ninth power, in about 20 ms.
# No recorded test text needs more than 40,000, and a full-size word still
# fits inside three pairs of parentheses, each of which pushes it again.
MAX_EXPANDED_LETTERS = 4 * MAX_WORD_LETTERS
# A budget that input files are promised; the parser keeps open parentheses
# on an explicit stack, so the bound guards no recursion.
MAX_NESTING = 100

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
# After whitespace: (1) an atom, a (2) name or a ')', with the (3) signed
# exponent right after it, whose (4) digits may be missing (a malformed
# exponent); or a (5) '(', a (6) stray character, or the end.
_TOKEN_RE = re.compile(
    rf"\s*(?:((?:({_NAME_RE.pattern})|\))(?:\^([+-]?(\d*)))?)|(\()|(.)|\Z)", re.S
)


def _push_reduced(stack, atom):
    """Push a freely reduced atom onto a freely reduced stack.  Only the
    junction can cancel: the atom's leading letters cancel the inverses on
    top of the stack, and the rest is appended in one ``extend``."""
    i = 0
    for name, sign in atom:
        if not stack or stack[-1] != (name, -sign):
            break
        stack.pop()
        i += 1
    stack.extend(atom[i:] if i else atom)


def _reduce(letters):
    """The freely reduced form of any letter sequence, letter by letter."""
    stack = []
    for name, sign in letters:
        if stack and stack[-1][0] == name and stack[-1][1] == -sign:
            stack.pop()
        else:
            stack.append((name, sign))
    return tuple(stack)


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
    return " ".join([
        name if k == 1 else f"{name}^{k}"
        for (name, sign), run in groupby(w.letters)
        for k in (sign * len(list(run)),)
    ])


def parse_word(text, names):
    """Parse the word grammar over the given generator names into a reduced Word.

    One loop over the matches of one token pattern, each an atom with the
    exponent right after it, or a '(', a stray character or the end: each
    '(' saves the enclosing sequence's letter stack, and each atom, freely
    reduced, cancels against the top of the current freely reduced stack at
    their junction and is appended; a power reduces its atom once.  A
    per-call memo maps the text of each name term of at most one letter
    (``a``, ``a^-1``, ``a^0``) to that letter and its inverse, so a repeated
    token is pushed or cancelled with one comparison and no call.  Longer powers are never kept, so the memo
    holds no expanded power however many distinct ones a text has.  The
    result equals folding the syntax tree through ``Word.__mul__`` and
    ``Word.__pow__``, errors included, left to right.

    Time is linear in the text plus the letters that atoms of more than one
    letter expand to (powers and parenthesized groups, counted once per push);
    those may total MAX_EXPANDED_LETTERS.  An atom of one letter costs a
    token of text and is not counted.

    Raises ParseError (with position) for unknown generator names, malformed
    exponents, unbalanced parentheses, parentheses nested deeper than
    MAX_NESTING, or stray characters; WordSizeError for exponents beyond
    MAX_EXPONENT (a digit run longer than MAX_EXPONENT's is rejected unread),
    words beyond MAX_WORD_LETTERS and expansions beyond MAX_EXPANDED_LETTERS.
    """
    names = set(names)
    memo = {}  # name atom text -> () or (letter, its inverse)
    open_parens = []  # (position of the '(', the enclosing sequence's stack)
    stack = []  # the current sequence's letters so far, freely reduced
    expanded = 0  # letters pushed by atoms of more than one letter
    for token in _TOKEN_RE.finditer(text):
        term = token[1]
        hit = memo.get(term)
        if hit is not None:
            if hit:
                if len(stack) == MAX_WORD_LETTERS:
                    raise WordSizeError("product exceeds the word size limit")
                letter, inverse = hit
                if stack and stack[-1] == inverse:
                    stack.pop()
                else:
                    stack.append(letter)
            continue
        if term is None:
            if token[5]:
                if len(open_parens) == MAX_NESTING:
                    message = f"parentheses nested deeper than {MAX_NESTING}"
                    raise ParseError(message, token.start(5))
                open_parens.append((token.start(5), stack))
                stack = []
                continue
            if token[6]:
                raise ParseError(f"unexpected character {token[6]!r}", token.start(6))
            if open_parens:
                raise ParseError("unbalanced parentheses: missing ')'", open_parens[-1][0])
            return Word._from_reduced(stack)
        name = token[2]
        if name:
            if name not in names:
                raise ParseError(f"unknown generator {name!r}", token.start(1))
            atom = ((name, 1),)
        else:
            if not open_parens:
                raise ParseError("unbalanced parentheses: unexpected ')'", token.start(1))
            atom = stack
            stack = open_parens.pop()[1]
        size = len(atom)
        if token[3] is not None:
            digits = token[4]
            if not digits:
                raise ParseError("malformed exponent", token.start(3))
            # Longer runs exceed MAX_EXPONENT; int() would meet its string limit.
            if len(digits) > len(str(MAX_EXPONENT)):
                raise WordSizeError(
                    f"exponent with {len(digits)} digits exceeds {MAX_EXPONENT}"
                )
            k = int(token[3])
            if abs(k) > MAX_EXPONENT:
                raise WordSizeError(f"exponent magnitude {k} exceeds {MAX_EXPONENT}")
            if k < 0:
                atom, k = [(g, -sign) for g, sign in reversed(atom)], -k
            size *= k
            if size > MAX_WORD_LETTERS:
                raise WordSizeError("power exceeds the word size limit")
            # a power of one letter is reduced already
            atom = _reduce(atom * k) if len(atom) > 1 else atom * k
        if size > 1:
            expanded += size
            if expanded > MAX_EXPANDED_LETTERS:
                raise WordSizeError(
                    f"powers and groups expand to more than {MAX_EXPANDED_LETTERS} letters"
                )
        if len(stack) + len(atom) > MAX_WORD_LETTERS:
            raise WordSizeError("product exceeds the word size limit")
        if name and size <= 1:
            memo[term] = (atom[0], (name, -atom[0][1])) if atom else ()
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
