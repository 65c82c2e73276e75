"""Free-group words, presentations, and the word grammar.

Words are immutable, freely reduced sequences of signed letters; a generator
is its name, a string.  They are built in one way, from letters already
reduced (``Word._from_reduced``), by the parser below and by the Fox
calculus.  The group operations (reducing constructor, product, inverse,
power) serve only the tests, as references for the parser and to build
inputs, so they live on the test subclass in ``tests/helpers.py``.  The text
grammar, used both in the library and in CLI input files:

    word  :=  term*
    term  :=  atom ('^' integer)?
    atom  :=  generator-name  |  '(' word ')'

Generator names match ``[A-Za-z][A-Za-z0-9_]*`` (ASCII only), an integer is a
sign and decimal digits of any script (Unicode Nd), and whitespace is ignored
except between names: a name is read as long as it goes, so touching names
are one name (``ab``), while a parenthesis or an exponent ends an atom and a
name may follow it directly (``a^1b`` is ``a b``).  Parentheses nest at most
``MAX_NESTING`` deep, and the empty string denotes the identity.  The
canonical renderer emits the ``a^-1`` exponent form, so rendered words
re-parse to themselves.

``parse_word`` reads the text one whitespace-separated chunk at a time, by
``str.split``.  A per-call memo maps each chunk that is one term of at most
one letter (``a``, ``a^-1``, ``a^0``) to that letter, so a repeated chunk
costs one dict lookup and one comparison with the top of the letter stack;
the token pattern runs once on each other chunk, on the chunk's own text.
Positions are computed only when a ParseError is raised: the chunk starts
where the text's run of non-whitespace with the same ordinal does.  Parse
time is linear in the text plus the letters that powers and parenthesized
groups expand to, and ``MAX_EXPANDED_LETTERS`` bounds those.
"""

import re
from operator import itemgetter, length_hint

from .errors import (
    DuplicateGenerator,
    InvalidGeneratorName,
    ParseError,
    UnknownGenerator,
    WordSizeError,
)

# Words are stored fully expanded, so powers with huge exponents are rejected
# instead of represented symbolically.  Parsing is linear in the letters, and
# fox_matrix in the letters times the generators, since it walks each block
# of a word once per generator, so this bounds what is stored and echoed
# back in reports; MAX_EXPANDED_LETTERS bounds parse time.
MAX_WORD_LETTERS = 20_000
MAX_EXPONENT = 2**31
# Parse time is linear in the text plus the letters that powers and groups
# expand to, and a power may cancel what the one before it pushed: 200 pairs
# "a^10000 a^-10000", 3,399 characters, expand 4,000,000 letters.  So the
# letters pushed by atoms of more than one letter may total this many; the
# line above is refused at its ninth power.  No recorded test text needs
# more than 40,000, and a full-size word still fits inside three pairs of
# parentheses, each of which pushes it again.
MAX_EXPANDED_LETTERS = 4 * MAX_WORD_LETTERS
# A budget that input files are promised; the parser keeps open parentheses
# on an explicit stack, so the bound guards no recursion.
MAX_NESTING = 100

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
# Within a chunk of non-whitespace: (1) an atom, a (2) name or a ')', with
# the (3) signed exponent right after it, whose (4) digits may be missing (a
# malformed exponent); or a (5) '(' or a (6) stray character.  Every
# character starts a match, so the matches cover the chunk.
_TOKEN_RE = re.compile(rf"((?:({_NAME_RE.pattern})|\))(?:\^([+-]?(\d*)))?)|(\()|(.)", re.S)
# The chunks of str.split(), in place: it and \s agree on every code point.
# Read only to give a ParseError its position.
_CHUNK_RE = re.compile(r"\S+")


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


def _conjugator_length(atom):
    """The length of u where a freely reduced atom is u c u^-1 with c
    cyclically reduced: its first and last letters cancel that deep."""
    n = len(atom)
    i = 0
    while 2 * i + 1 < n and atom[i][0] == atom[-1 - i][0] and atom[i][1] == -atom[-1 - i][1]:
        i += 1
    return i


def _power(atom, k):
    """The k-th power, k >= 0, of a freely reduced atom, freely reduced, with
    no letter-by-letter reduction.  Written u c u^-1 with c cyclically
    reduced, the atom's power is u c^k u^-1: only the junctions of the copies
    can cancel, and those of c do not."""
    n = len(atom)
    if not k or not n:
        return ()
    i = _conjugator_length(atom)
    return atom[:i] + atom[i : n - i] * k + atom[n - i :]


class Word:
    """A freely reduced word; the empty word is the identity.  Words are
    built by `parse_word` and by `fox_derivative` from reduced letters."""

    __slots__ = ("letters",)

    @classmethod
    def _from_reduced(cls, letters):
        # Trusted constructor for sequences that are already freely reduced.
        w = cls.__new__(cls)
        w.letters = tuple(letters)
        return w

    def generator_names(self):
        return set(map(itemgetter(0), self.letters))

    def __eq__(self, other):
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __repr__(self):
        return f"Word({render_word(self)!r})"


def render_word(w):
    """Canonical text for a word: syllables like ``a^3 b^-2``, identity is ``''``.

    One loop over the letters counts each run of equal letters; a sentinel
    after the last letter closes the last run."""
    syllables = []
    prev = None
    k = 0
    for letter in w.letters + (None,):
        if letter == prev:
            k += 1
        else:
            if k:
                name, sign = prev
                syllables.append(name if k == sign == 1 else f"{name}^{sign * k}")
            prev = letter
            k = 1
    return " ".join(syllables)


def _position(text, left, offset):
    """The position in ``text`` of ``offset`` in the chunk that has ``left``
    chunks after it, counted among the text's runs of non-whitespace."""
    return [m.start() for m in _CHUNK_RE.finditer(text)][-1 - left] + offset


def parse_word(text, names):
    """Parse the word grammar over the given generator names into a reduced Word.

    ``names`` is any iterable of names; a set or frozenset is used as given,
    so a caller parsing many words over one generator list builds it once.

    The text is read one ``str.split`` chunk at a time.  A per-call memo maps
    each chunk that is one name term of at most one letter (``a``, ``a^-1``,
    ``a^0``) to that letter and its inverse, so a repeated chunk is pushed or
    cancelled with one lookup and one comparison with the top of the letter
    stack.  Any other chunk goes through the token pattern on its own text:
    in one match when that match covers the chunk, else match by match.  A
    position is computed only where a ParseError is raised: the chunk starts
    where the text's run of non-whitespace with the same ordinal does, the
    split iterator's length hint gives the ordinal, and the token's offset
    in the chunk is added.  Each '(' saves the enclosing sequence's letter
    stack with the count of chunks after its own and its offset there, so
    its position is found only if it is never closed.  Each atom, freely
    reduced, cancels against the top of the current freely reduced stack at
    their junction and is appended.  A group that reduces to u c u^-1, with
    c cyclically reduced, has the k-th power u c^k u^-1, built without
    reducing.  Powers are never kept, so the memo holds no expanded power
    however many distinct ones a text has.  The result equals folding the
    syntax tree through the product and power of the test ``Word`` in
    ``tests/helpers.py``, errors included, left to right.

    Time is linear in the text plus the letters that atoms of more than one
    letter expand to (powers and parenthesized groups, counted once per push);
    those may total MAX_EXPANDED_LETTERS.  An atom of one letter costs a
    chunk of text and is not counted.

    Raises ParseError (with position) for unknown generator names, malformed
    exponents, unbalanced parentheses, parentheses nested deeper than
    MAX_NESTING, or stray characters; WordSizeError for exponents beyond
    MAX_EXPONENT (a digit run longer than MAX_EXPONENT's is rejected unread),
    words beyond MAX_WORD_LETTERS and expansions beyond MAX_EXPANDED_LETTERS.
    """
    if not isinstance(names, (set, frozenset)):
        names = set(names)
    memo = {}  # chunk of one name term of at most one letter -> () or (letter, inverse)
    open_parens = []  # (chunks after the one holding the '(', its offset there, outer stack)
    stack = []  # the current sequence's letters so far, freely reduced
    expanded = 0  # letters pushed by atoms of more than one letter
    rest = iter(text.split())  # the chunks still to come, and how many
    for chunk in rest:
        hit = memo.get(chunk)
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
        token = _TOKEN_RE.match(chunk)
        tokens = (token,) if token.end() == len(chunk) else _TOKEN_RE.finditer(chunk)
        for token in tokens:
            term = token[1]
            if term is None:
                if token[5]:
                    if len(open_parens) == MAX_NESTING:
                        where = _position(text, length_hint(rest), token.start(5))
                        raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", where)
                    open_parens.append((length_hint(rest), token.start(5), stack))
                    stack = []
                    continue
                where = _position(text, length_hint(rest), token.start(6))
                raise ParseError(f"unexpected character {token[6]!r}", where)
            name = token[2]
            if name:
                if name not in names:
                    where = _position(text, length_hint(rest), token.start(1))
                    raise ParseError(f"unknown generator {name!r}", where)
                atom = ((name, 1),)
            else:
                if not open_parens:
                    where = _position(text, length_hint(rest), token.start(1))
                    raise ParseError("unbalanced parentheses: unexpected ')'", where)
                atom = stack
                stack = open_parens.pop()[2]
            size = len(atom)
            if token[3] is not None:
                digits = token[4]
                if not digits:
                    where = _position(text, length_hint(rest), token.start(3))
                    raise ParseError("malformed exponent", where)
                # Longer runs exceed MAX_EXPONENT; int() would meet its string limit.
                if len(digits) > len(str(MAX_EXPONENT)):
                    raise WordSizeError(
                        f"exponent with {len(digits)} digits exceeds {MAX_EXPONENT}"
                    )
                k = int(token[3])
                if abs(k) > MAX_EXPONENT:
                    raise WordSizeError(f"exponent magnitude {k} exceeds {MAX_EXPONENT}")
                if k < 0:
                    atom = ((name, -1),) if name else [(g, -sign) for g, sign in reversed(atom)]
                    k = -k
                size *= k
                if size > MAX_WORD_LETTERS:
                    raise WordSizeError("power exceeds the word size limit")
                # a power of one letter is reduced already
                atom = atom * k if name else _power(atom, k)
            if size > 1:
                expanded += size
                if expanded > MAX_EXPANDED_LETTERS:
                    raise WordSizeError(
                        f"powers and groups expand to more than {MAX_EXPANDED_LETTERS} letters"
                    )
            if len(stack) + len(atom) > MAX_WORD_LETTERS:
                raise WordSizeError("product exceeds the word size limit")
            if name and size <= 1 and len(term) == len(chunk):
                memo[chunk] = (atom[0], (name, -atom[0][1])) if atom else ()
            _push_reduced(stack, atom)
    if open_parens:
        left, offset, _ = open_parens[-1]
        raise ParseError("unbalanced parentheses: missing ')'", _position(text, left, offset))
    return Word._from_reduced(stack)


class Presentation:
    """An ordered generator list together with freely reduced relator words."""

    def __init__(self, generators, relators=()):
        names = tuple(str(g) for g in generators)
        for name in names:
            if not _NAME_RE.fullmatch(name):
                raise InvalidGeneratorName(f"invalid generator name {name!r}")
        known = set(names)
        if len(known) != len(names):
            raise DuplicateGenerator(f"duplicate generator names in {list(names)}")
        rels = []
        for r in relators:
            if not isinstance(r, Word):
                # parse_word refuses unknown names itself
                rels.append(parse_word(str(r), known))
                continue
            unknown = r.generator_names() - known
            if unknown:
                raise UnknownGenerator(
                    f"relator {render_word(r)!r} uses unknown generators {sorted(unknown)}"
                )
            rels.append(r)
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
