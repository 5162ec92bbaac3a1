import random

import pytest

from constel.words import (EMPTY, Word, concat, format_word, invert, parse_word,
                           power, reduce)
import oracle as O

A2 = 2
A3 = 3


def rand_word(rng, n_letters, length):
    return Word(tuple((rng.randrange(n_letters), rng.choice((1, -1)))
                      for _ in range(length)))


def test_parse_format_round_trip():
    for text in ("", "a", "A", "abA", "aaBBc"):
        w = parse_word(text, A3)
        assert format_word(w) == text


def test_parse_rejects_unknown_letter():
    with pytest.raises(ValueError):
        parse_word("abc", A2)
    with pytest.raises(ValueError):
        parse_word("a!", A2)


def test_format_refuses_a_letter_past_z():
    assert format_word(Word(((25, 1), (25, -1)))) == "zZ"
    with pytest.raises(ValueError, match="^letter index 26 has no name$"):
        format_word(Word(((26, 1),)))


def test_parse_verbose_syntax():
    assert parse_word("a b^-1 a", A2) == parse_word("aBa", A2)
    assert parse_word("a^3", A2) == parse_word("aaa", A2)


def test_reduce_examples():
    assert format_word(reduce(parse_word("aA", A2))) == ""
    assert format_word(reduce(parse_word("abBA", A2))) == ""
    assert format_word(reduce(parse_word("abAB", A2))) == "abAB"
    assert format_word(reduce(parse_word("aabBa", A2))) == "aaa"


def test_reduce_keeps_the_input_pairs():
    # reduction appends the input's own (letter, sign) objects, so a word
    # built from shared pairs stays built from them
    pairs = [tuple(pair) for pair in ([0, 1], [1, 1], [1, -1], [0, 1], [0, 1])]
    kept = reduce(Word(tuple(pairs))).letters
    assert kept == ((0, 1),) * 3
    assert [id(pair) for pair in kept] == [id(pairs[i]) for i in (0, 3, 4)]


def test_reduce_idempotent_random():
    rng = random.Random(7)
    for _ in range(200):
        w = rand_word(rng, 3, rng.randrange(12))
        r = reduce(w)
        assert reduce(r) == r


def test_parse_and_reduce_against_oracle():
    # O.parse_word and O.free_reduce read and cancel compact words, as the
    # benchmark's checks of printed witnesses do
    rng = random.Random(11)
    for _ in range(300):
        text = "".join(rng.choice("abcABC") for _ in range(rng.randrange(1, 14)))
        u = parse_word(text, A3)
        assert list(u.letters) == O.parse_word(text), text
        assert list(reduce(u).letters) == O.free_reduce(O.parse_word(text)), text


def test_invert_involutive_and_anti():
    rng = random.Random(8)
    for _ in range(100):
        u = rand_word(rng, 2, rng.randrange(8))
        v = rand_word(rng, 2, rng.randrange(8))
        assert invert(invert(u)) == u
        # (uv)^-1 = v^-1 u^-1 as raw letter strings
        assert invert(concat(u, v)) == concat(invert(v), invert(u))


def test_concat_variadic_and_operators():
    u, v, w = parse_word("a", A2), parse_word("b", A2), parse_word("A", A2)
    assert concat(u, v, w) == parse_word("abA", A2)
    assert concat() == EMPTY
    assert concat(u, v) == parse_word("ab", A2)
    assert invert(u) == parse_word("A", A2)


def test_power():
    a = parse_word("ab", A2)
    assert power(a, 0) == EMPTY
    assert power(a, 3) == parse_word("ababab", A2)
    assert power(a, -2) == parse_word("BABA", A2)


def test_word_constructor_validates():
    assert Word(((0, 1), (1, -1))) == parse_word("aB", A2)
    with pytest.raises(ValueError):
        Word(((0, 2),))
    with pytest.raises(ValueError):
        Word(((-1, 1),))


def test_alphabet():
    assert parse_word("b", A2) == Word(((1, 1),))
    assert parse_word("z", 26) == Word(((25, 1),))
    for size in (0, 27):
        with pytest.raises(ValueError, match="alphabet size must be between 1 and 26"):
            parse_word("a", size)
    with pytest.raises(ValueError, match="letter 'c' not in alphabet ab"):
        parse_word("c", A2)
    # letters are looked up whole: neither a two-letter name nor an empty
    # one is a letter, though "ab".index finds both
    for text, name in (("ab^2", "ab"), ("^2", ""), ("a ab^2", "ab")):
        with pytest.raises(ValueError, match="letter %r not in alphabet ab" % name):
            parse_word(text, A2)


def test_max_letter():
    assert EMPTY.max_letter() == -1
    assert parse_word("abc", A3).max_letter() == 2
