"""Words over a finite alphabet and its formal inverses.

A word is a sequence of signed letters (letter index, +1/-1).  Lowercase
text denotes positive letters, uppercase their inverses, so "abA" is
a b a^-1.  The verbose form "a b^-1" is accepted on input as well.
"""

from __future__ import annotations

from dataclasses import dataclass

ASCII_LETTERS = "abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True, slots=True)
class Word:
    """Sequence of signed letters."""

    letters: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        for idx, sign in self.letters:
            if idx < 0 or sign not in (1, -1):
                raise ValueError("bad signed letter (%r, %r)" % (idx, sign))

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def max_letter(self) -> int:
        return max((idx for idx, _ in self.letters), default=-1)


EMPTY = Word()


def reduce(w: Word) -> Word:
    """Free reduction: cancel adjacent x x^-1 pairs until none remain.
    The letters kept are w's own (letter, sign) objects."""
    stack: list[tuple[int, int]] = []
    for pair in w.letters:
        if stack and stack[-1] == (pair[0], -pair[1]):
            stack.pop()
        else:
            stack.append(pair)
    return Word(tuple(stack))


def invert(w: Word) -> Word:
    return Word(tuple((idx, -sign) for idx, sign in reversed(w.letters)))


def concat(*ws: Word) -> Word:
    return Word(tuple(pair for w in ws for pair in w.letters))


def power(w: Word, k: int) -> Word:
    if k < 0:
        return power(invert(w), -k)
    return Word(w.letters * k)


def check_alphabet(n_letters: int) -> None:
    """Refuse an alphabet size the letters a..z cannot name."""
    if not 1 <= n_letters <= len(ASCII_LETTERS):
        raise ValueError("alphabet size must be between 1 and 26")


def parse_word(text: str, n_letters: int) -> Word:
    """Parse compact ("abA") or verbose ("a b^-1 a") word syntax over
    the letters a, b, ... of an n_letters-letter alphabet."""
    from .groups import check_size, parse_int  # groups imports this module

    check_alphabet(n_letters)
    names = tuple(ASCII_LETTERS[:n_letters])  # a tuple: str.index would find "ab" and ""

    def index(name: str) -> int:
        try:
            return names.index(name)
        except ValueError:
            raise ValueError("letter %r not in alphabet %s" % (name, "".join(names))) from None

    text = text.strip()
    if text in ("", "1"):
        return EMPTY
    if any(ch.isspace() for ch in text) or "^" in text:
        powers = []
        for tok in text.split():
            if "^" in tok:
                name, _, exp = tok.partition("^")
                k = parse_int(exp, "word exponent")
            else:
                name, k = tok, 1
            powers.append((index(name), k))
        check_size(sum(abs(k) for _, k in powers), "word length")
        pairs: list[tuple[int, int]] = []
        for idx, k in powers:
            pairs.extend([(idx, 1 if k > 0 else -1)] * abs(k))
        return Word(tuple(pairs))
    pairs = []
    for ch in text:
        if ch.islower():
            pairs.append((index(ch), 1))
        elif ch.isupper():
            pairs.append((index(ch.lower()), -1))
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
