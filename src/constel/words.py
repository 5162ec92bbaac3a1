"""Words over a finite alphabet and its formal inverses.

A word is a sequence of signed letters (letter index, +1/-1).  Lowercase
text denotes positive letters, uppercase their inverses, so "abA" is
a b a^-1.  The verbose form "a b^-1" is accepted on input as well.
"""

from __future__ import annotations

from dataclasses import dataclass, field

ASCII_LETTERS = "abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class Alphabet:
    """Ordered alphabet of distinct single lowercase ASCII letters."""

    names: tuple[str, ...]

    def __post_init__(self):
        if len(self.names) == 0:
            raise ValueError("alphabet must have at least one letter")
        if len(set(self.names)) != len(self.names):
            raise ValueError("alphabet letters must be distinct")
        for c in self.names:
            if len(c) != 1 or c not in ASCII_LETTERS:
                raise ValueError("alphabet letter must be a single lowercase ascii letter, got %r" % (c,))

    @classmethod
    def of_size(cls, k: int) -> "Alphabet":
        if not 1 <= k <= 26:
            raise ValueError("alphabet size must be between 1 and 26")
        return cls(tuple(ASCII_LETTERS[:k]))

    @property
    def size(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ValueError("letter %r not in alphabet %s" % (name, "".join(self.names))) from None


@dataclass(frozen=True)
class Word:
    """Sequence of signed letters; `reduced` caches free reduction and
    does not take part in equality."""

    letters: tuple[tuple[int, int], ...] = ()
    reduced: bool = field(default=False, compare=False)

    def __post_init__(self):
        for idx, sign in self.letters:
            if idx < 0 or sign not in (1, -1):
                raise ValueError("bad signed letter (%r, %r)" % (idx, sign))

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        return concat(self, other)

    def __invert__(self) -> "Word":
        return invert(self)

    def reduce(self) -> "Word":
        return reduce(self)

    def max_letter(self) -> int:
        return max((idx for idx, _ in self.letters), default=-1)


EMPTY = Word((), reduced=True)


def word(pairs) -> Word:
    return Word(tuple(pairs))


def reduce(w: Word) -> Word:
    """Free reduction: cancel adjacent x x^-1 pairs until none remain."""
    if w.reduced:
        return w
    stack: list[tuple[int, int]] = []
    for idx, sign in w.letters:
        if stack and stack[-1] == (idx, -sign):
            stack.pop()
        else:
            stack.append((idx, sign))
    return Word(tuple(stack), reduced=True)


def invert(w: Word) -> Word:
    return Word(tuple((idx, -sign) for idx, sign in reversed(w.letters)), reduced=w.reduced)


def concat(*ws: Word) -> Word:
    return Word(tuple(pair for w in ws for pair in w.letters))


def power(w: Word, k: int) -> Word:
    if k < 0:
        return power(invert(w), -k)
    return Word(w.letters * k)


def parse_word(text: str, alphabet: Alphabet) -> Word:
    """Parse compact ("abA") or verbose ("a b^-1 a") word syntax."""
    from .groups import check_size  # groups imports this module

    text = text.strip()
    if text in ("", "1"):
        return EMPTY
    if any(ch.isspace() for ch in text) or "^" in text:
        powers = []
        for tok in text.split():
            if "^" in tok:
                name, _, exp = tok.partition("^")
                k = int(exp)
            else:
                name, k = tok, 1
            powers.append((alphabet.index(name), k))
        check_size(sum(abs(k) for _, k in powers), "word length")
        pairs: list[tuple[int, int]] = []
        for idx, k in powers:
            pairs.extend([(idx, 1 if k > 0 else -1)] * abs(k))
        return Word(tuple(pairs))
    pairs = []
    for ch in text:
        if ch.islower():
            pairs.append((alphabet.index(ch), 1))
        elif ch.isupper():
            pairs.append((alphabet.index(ch.lower()), -1))
        else:
            raise ValueError("bad character %r in word %r" % (ch, text))
    return Word(tuple(pairs))


def format_word(w: Word) -> str:
    """Compact text form; inverse letters are uppercased."""
    out = []
    for idx, sign in w.letters:
        if idx >= len(ASCII_LETTERS):
            raise ValueError("letter index %d has no name" % idx)
        out.append(ASCII_LETTERS[idx] if sign > 0 else ASCII_LETTERS[idx].upper())
    return "".join(out)
