"""Text preprocessing: lowercase, tokenize, stopword removal, Porter stemming.

The stemmer follows Martin Porter's 1980 algorithm as fixed by his
canonical C implementation (the variant ported into the classic IR
toolkits), i.e. including the bli/logi rules and the rule that words of
length <= 2 are left alone.
"""

import functools
import operator
import re
from dataclasses import dataclass

from ._stopwords import SMART_STOPWORDS

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


@dataclass(frozen=True)
class PreprocessConfig:
    """The stopword list; the default is what corpus ingestion uses."""

    stopwords: frozenset = SMART_STOPWORDS


DEFAULT_CONFIG = PreprocessConfig()


def tokenize(text):
    """Lowercase and split on any non-alphanumeric character."""
    return _TOKEN_RE.findall(text.lower())


def preprocess(text, config=DEFAULT_CONFIG):
    """Full pipeline: tokenize, drop digits and stopwords, stem, re-filter.

    The second pass keeps the invariant that no output token is a
    stopword or all digits even when stemming collapses a word onto one,
    as it does "00s" onto "00".
    """
    out = []
    for tok in tokenize(text):
        if tok.isdigit() or tok in config.stopwords:
            continue
        tok = porter_stem(tok)
        if tok.isdigit() or tok in config.stopwords:
            continue
        out.append(tok)
    return out


# ---------------------------------------------------------------------------
# Porter stemmer
# ---------------------------------------------------------------------------

# The consonant/vowel pattern of a word: "c" for a consonant, "v" for a
# vowel, "y" for a y until _pattern settles it.  Any character other
# than a-z counts as a consonant.
_CV = {ord(ch): ("v" if ch in "aeiou" else "y" if ch == "y" else "c")
       for ch in map(chr, range(128))}


def _pattern(word):
    """The word's consonant/vowel pattern.  A y is a consonant at the
    start or after a vowel, and a vowel after a consonant.

    A letter's class depends only on the letters before it, so the
    pattern of ``word[:n]`` is ``_pattern(word)[:n]``: the measure m of
    the stem ``word[:n]`` is ``_pattern(word).count("vc", 0, n)``, and
    the stem holds a vowel when ``"v"`` occurs in the first n places.
    """
    if word.isascii():
        cv = word.translate(_CV)
    else:
        cv = "".join(_CV.get(ord(ch), "c") for ch in word)
    i = cv.find("y")
    while i >= 0:
        cv = cv[:i] + ("c" if i == 0 or cv[i - 1] == "v" else "v") + cv[i + 1:]
        i = cv.find("y", i + 1)
    return cv


def _ends_cvc(word, cv, n):
    """Whether ``word[:n]`` ends consonant-vowel-consonant, the last
    not w, x or y."""
    return n >= 3 and cv.startswith("cvc", n - 3) and word[n - 1] not in "wxy"


# (suffix, replacement) pairs in canonical order; a word is compared against
# the rules in sequence and the first suffix match ends the scan whether or
# not the measure condition allows the rewrite.
_STEP2_RULES = (
    ("ational", "ate"), ("tional", "tion"),
    ("enci", "ence"), ("anci", "ance"),
    ("izer", "ize"),
    ("bli", "ble"), ("alli", "al"), ("entli", "ent"), ("eli", "e"), ("ousli", "ous"),
    ("ization", "ize"), ("ation", "ate"), ("ator", "ate"),
    ("alism", "al"), ("iveness", "ive"), ("fulness", "ful"), ("ousness", "ous"),
    ("aliti", "al"), ("iviti", "ive"), ("biliti", "ble"),
    ("logi", "log"),
)

_STEP3_RULES = (
    ("icate", "ic"), ("ative", ""), ("alize", "al"),
    ("iciti", "ic"), ("ical", "ic"), ("ful", ""), ("ness", ""),
)

_STEP4_SUFFIXES = (
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant",
    "ement", "ment", "ent", "ion", "ou", "ism", "ate", "iti",
    "ous", "ive", "ize",
)


def _by_penultimate(rules, suffix_of):
    """`rules` grouped by the penultimate letter of their suffix, each
    group in rule order.  A word can only match a suffix that shares
    its penultimate letter, so scanning the word's group finds the same
    first match as scanning every rule; Porter's C version switches on
    a letter of the word the same way."""
    table = {}
    for rule in rules:
        table.setdefault(suffix_of(rule)[-2], []).append(rule)
    return {letter: tuple(group) for letter, group in table.items()}


_STEP2 = _by_penultimate(_STEP2_RULES, operator.itemgetter(0))
_STEP3 = _by_penultimate(_STEP3_RULES, operator.itemgetter(0))
_STEP4 = _by_penultimate(_STEP4_SUFFIXES, str)


def _step1a(w):
    if not w.endswith("s"):
        return w
    if w.endswith(("sses", "ies")):
        return w[:-2]
    if w.endswith("ss"):
        return w
    return w[:-1]


def _step1b(w):
    if w.endswith("eed"):
        return w[:-1] if _pattern(w).count("vc", 0, len(w) - 3) else w
    if w.endswith("ed"):
        n = len(w) - 2
    elif w.endswith("ing"):
        n = len(w) - 3
    else:
        return w
    cv = _pattern(w)
    if cv.find("v", 0, n) < 0:
        return w
    stem = w[:n]
    if stem.endswith(("at", "bl", "iz")):
        return stem + "e"
    if (n >= 2 and stem[-1] == stem[-2] and cv[n - 1] == "c"
            and stem[-1] not in "lsz"):
        return stem[:-1]
    if cv.count("vc", 0, n) == 1 and _ends_cvc(stem, cv, n):
        return stem + "e"
    return stem


def _step1c(w):
    if w.endswith("y") and _pattern(w).find("v", 0, len(w) - 1) >= 0:
        return w[:-1] + "i"
    return w


def _apply_rules(w, table):
    for suffix, repl in table.get(w[-2:-1], ()):
        if w.endswith(suffix):
            n = len(w) - len(suffix)
            if _pattern(w).count("vc", 0, n) > 0:
                return w[:n] + repl
            return w
    return w


def _step4(w):
    for suffix in _STEP4.get(w[-2:-1], ()):
        if w.endswith(suffix):
            n = len(w) - len(suffix)
            if _pattern(w).count("vc", 0, n) <= 1:
                return w
            if suffix == "ion" and not w.endswith(("sion", "tion")):
                return w
            return w[:n]
    return w


def _step5a(w):
    if w.endswith("e"):
        n = len(w) - 1
        cv = _pattern(w)
        m = cv.count("vc", 0, n)
        if m > 1 or (m == 1 and not _ends_cvc(w, cv, n)):
            return w[:n]
    return w


def _step5b(w):
    if w.endswith("ll") and _pattern(w).count("vc") > 1:
        return w[:-1]
    return w


@functools.lru_cache(maxsize=None)
def porter_stem(word):
    """Stem one lowercase token; words of length <= 2 pass through.

    The rules look at the word alone, so each distinct token is stemmed
    once and its stem remembered for the life of the process.
    """
    if len(word) <= 2:
        return word
    w = _step1a(word)
    w = _step1b(w)
    w = _step1c(w)
    w = _apply_rules(w, _STEP2)
    w = _apply_rules(w, _STEP3)
    w = _step4(w)
    w = _step5a(w)
    w = _step5b(w)
    return w
