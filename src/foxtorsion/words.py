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

``reduce_words`` rewrites the words of a torsion input before its Fox matrix
is built.  It deletes from the inclusion words every cyclic permutation of
the cyclic core of a killed relator, or of its inverse (`_delete_relators`),
by one scan of each word's letters that looks up the window of each core
length ending at each letter among the rotations' rolling hashes (Karp and
Rabin 1987).  A deletion subtracts a monomial multiple of the relator's
column from the word's and leaves the determinant exactly as it was.  Then
it eliminates generators by Tietze moves on the words, each of which
removes a row and a column of the Fox matrix that cross at a unit, so the
matrix shrinks and the class stays.
"""

import re
from collections import Counter
from itertools import chain
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

# The rolling hash of the relator deletion (`_delete_relators`).  The modulus
# is the largest prime below 2^30: hashes stay one CPython digit, which made
# the scan about twice as fast as a modulus of 2^61 - 1 on `long-words`, and
# a collision costs only a letter check.
_HASH_MOD = 1_073_741_789
_HASH_BASE = 32_771

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


def reduce_words(generators, inclusion, relators, kills):
    """(generators, inclusion words, relators) after rotations of relators
    are deleted from the inclusion words and generators eliminated by Tietze
    moves, each word a tuple of letters; a word that nothing changed is
    returned as given.  ``kills`` holds one flag per relator, whether the
    abelianization phi kills it, and only killed relators are used.

    First every subword of an inclusion word that is a cyclic permutation of
    the cyclic core of a killed relator r or of its inverse is deleted
    (`_delete_relators`): deleting u r' v -> u v, r' a conjugate of r^+-1,
    subtracts x^phi(u) dr'/dg = +-(monomial) * dr/dg from the word's Fox
    column, a multiple of r's column, which stays in the matrix, so the
    determinant does not change at all.  Relators are left as given.

    Then a move on a killed relator r = u g^e v in which g occurs once
    replaces g by (v u)^-e in the other words (`_eliminate`) and drops g and
    r.  Moves are tried cheapest first, by (|r| - 1) times the occurrences
    of g elsewhere, and taken only when the words then hold no more letters
    than they did after the deletion.  A refused move is not tried again
    while its relator's text is unchanged.  One generator is always kept, so
    the matrix is never 0x0.  A move keeps phi of every word, so the
    relators it rewrites stay killed.
    """
    first = len(inclusion)
    kills = list(kills)  # kills[j]: whether phi kills the relator words[first + j]
    killed = [r for r, k in zip(relators, kills) if k]
    words = _delete_relators(inclusion, killed, generators) + list(relators)
    bound = sum(map(len, words))
    generators = list(generators)
    # relator -> {(i, g)}: its moves not refused yet, g = r[i] occurring once in r
    singles = {}
    while len(generators) > 1:
        occurrences = Counter(map(itemgetter(0), chain.from_iterable(words)))
        moves = []
        for j in range(first, len(words)):
            r = words[j]
            if r not in singles:
                once = Counter(map(itemgetter(0), r)) if kills[j - first] else {}
                singles[r] = {(i, g) for i, (g, _) in enumerate(r) if once.get(g) == 1}
            weight = len(r) - 1
            moves += [(weight * (occurrences[g] - 1), j, i, g) for i, g in singles[r]]
        for _, j, i, g in sorted(moves):
            reduced = _eliminate(words, j, i, bound)
            if reduced is not None:
                break
            singles[words[j]].discard((i, g))
        else:
            break
        generators.remove(g)
        del kills[j - first]
        words = reduced
    return generators, words[:first], words[first:]


def _eliminate(words, j, i, bound):
    """The words after the Tietze move on the relator r = words[j] = u g^e v,
    g = r[i] occurring once in r: every other word, in order, with g replaced
    by (v u)^-e and freely reduced, and r dropped.  None as soon as the
    letters written, counted word by word, pass ``bound``."""
    r = words[j]
    g, e = r[i]
    vu = list(r[i + 1 :])
    _push_reduced(vu, r[:i])
    # g^-e -> v u and g^e -> (v u)^-1
    images = {(g, -e): vu, (g, e): [(h, -sign) for h, sign in reversed(vu)]}
    written = 0
    reduced = []
    for w in words[:j] + words[j + 1 :]:
        if (g, 1) in w or (g, -1) in w:
            stack = []
            start = 0
            for p, letter in enumerate(w):
                if letter[0] == g:
                    _push_reduced(stack, w[start:p])
                    _push_reduced(stack, images[letter])
                    start = p + 1
                    if written + len(stack) > bound:
                        return None
            _push_reduced(stack, w[start:])
            w = tuple(stack)
        written += len(w)
        reduced.append(w)
    return reduced if written <= bound else None


def _delete_relators(words, relators, generators):
    """The words, each with every subword that is a cyclic permutation of a
    relator's cyclic core, or of its inverse, deleted, and freely reduced; a
    word that loses nothing is returned as given.

    Each letter of the generators, of either sign, is written as one
    character, hashed by its code point, and each word is scanned as its
    text (`_delete_rotations`), which is mapped back to letters only when it
    lost some.  The cores and their inverses form one list.  Each rotation
    of a core c = p q, |p| = ceil(|c| / 2), holds p or q whole (a one-letter
    core is its own only half), so a word is scanned only for the cores
    with a half in its text, which ``str.__contains__`` finds in C: a word
    that holds none, such as every family word, costs one string join.  A
    core's rotations are hashed when a word first needs them, each from the
    one before by the rolling hash's step.  A deletion can expose a rotation
    of a core the scan was not run for, so while the text left holds a half
    of such a core, the word is scanned again with that core too.  The words
    returned hold no rotation of any core, unless two of its rotations share
    a hash, which only leaves one of them in place.  Any hash gives an exact
    deletion: a hit is checked letter by letter.
    """
    mod, base = _HASH_MOD, _HASH_BASE
    letters = [(g, e) for g in generators for e in (1, -1)]
    chars = {letter: chr(k) for k, letter in enumerate(letters)}
    inverse = {c: chars[g, -e] for (g, e), c in chars.items()}
    flip = str.maketrans(inverse)
    cores = []  # the text of the cyclic core of each relator, then of its inverse
    for r in relators:
        i = _conjugator_length(r)
        if 2 * i < len(r):
            core = "".join(map(chars.__getitem__, r[i : len(r) - i]))
            cores += [core, core.translate(flip)[::-1]]
    halves = []  # (the text of a half, the index of its core)
    for k, core in enumerate(cores):
        cut = (len(core) + 1) // 2
        halves += [(core[:cut], k), (core[cut:] or core, k)]
    hashed = set()  # the indices of the cores hashed into table
    table = {}  # core length m -> (base^m, {hash of a rotation: (doubled core, start)})
    result = []
    for word in words:
        text = left = "".join(map(chars.__getitem__, word))
        done = set()  # the cores this word was scanned for
        while True:
            found = {k for h, k in halves if h in left}
            if found <= done:
                break
            for k in found - hashed:
                m = len(cores[k])
                top, rotations = table.setdefault(m, (pow(base, m, mod), {}))
                ws = list(map(ord, cores[k]))
                h = 0
                for w in ws:
                    h = (h * base + w) % mod
                # rotation s + 1 is rotation s less its first letter, shifted, plus it
                lead = pow(base, m - 1, mod)
                doubled = cores[k] + cores[k]
                for s, w in enumerate(ws):
                    rotations.setdefault(h, (doubled, s))
                    h = ((h - w * lead) * base + w) % mod
            hashed |= found
            done |= found
            windows = [(m, *table[m]) for m in sorted({len(cores[k]) for k in done})]
            scanned = _delete_rotations(left, windows, base, mod, inverse)
            if scanned is None:
                break
            left = scanned
        if len(left) < len(text):
            word = tuple(map(letters.__getitem__, map(ord, left)))
        result.append(word)
    return result


def _delete_rotations(text, windows, base, mod, inverse):
    """The text with every subword that ``windows`` holds deleted and freely
    reduced, or None when none is found.

    ``windows`` lists (m, base^m, {hash: (text, s)}) by increasing m, a
    window of length m being text[s : s + m], and each character is hashed
    by its code point.  The letters are pushed one at a time onto a stack
    that keeps the hash of every prefix, so after each push the hash of the
    last m letters takes O(1) for each m, and only a hit compares the
    letters: the scan is linear in the letters times the number of lengths,
    and a comparison costs what the match it confirms deletes.  A match is
    cut off the stack, and the letters pushed next cancel its top while it
    is their inverse.  Every window below the top was looked up when its
    last letter was pushed, so the text returned holds no subword that
    ``windows`` holds.
    """
    stack = [""]  # the letters left, above an empty text that nothing cancels
    hashes = [0]  # hashes[k]: the hash of the stack's first k letters
    cancel = False  # whether the next letter may cancel the top
    for c in text:
        if cancel:
            if stack[-1] == inverse[c]:
                stack.pop()
                hashes.pop()
                continue
            cancel = False
        h = (hashes[-1] * base + ord(c)) % mod
        stack.append(c)
        hashes.append(h)
        n = len(stack)
        for m, top, rotations in windows:
            if n <= m:
                break
            hit = rotations.get((h - hashes[-1 - m] * top) % mod)
            if hit is not None:
                rotation, s = hit
                if "".join(stack[-m:]) == rotation[s : s + m]:
                    del stack[-m:]
                    del hashes[-m:]
                    cancel = True
                    break
    return None if len(stack) == len(text) + 1 else "".join(stack)
