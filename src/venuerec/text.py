"""Text preprocessing: lowercase, tokenize, stopword removal, Porter stemming.

The stemmer follows Martin Porter's 1980 algorithm as fixed by his
canonical C implementation (the variant ported into the classic IR
toolkits), i.e. including the bli/logi rules and the rule that words of
length <= 2 are left alone.
"""

import functools
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

    The second stopword pass keeps the invariant that no output token is
    a stopword even when stemming collapses a word onto one.
    """
    out = []
    for tok in tokenize(text):
        if tok.isdigit() or tok in config.stopwords:
            continue
        tok = porter_stem(tok)
        if tok in config.stopwords:
            continue
        out.append(tok)
    return out


# ---------------------------------------------------------------------------
# Porter stemmer
# ---------------------------------------------------------------------------

_VOWELS = frozenset("aeiou")


def _is_cons(word, i):
    ch = word[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        return i == 0 or not _is_cons(word, i - 1)
    return True


def _measure(stem):
    """Number of vowel->consonant transitions, the m of [C](VC)^m[V]."""
    n = len(stem)
    i = 0
    while i < n and _is_cons(stem, i):
        i += 1
    m = 0
    while i < n:
        while i < n and not _is_cons(stem, i):
            i += 1
        if i == n:
            break
        m += 1
        while i < n and _is_cons(stem, i):
            i += 1
    return m


def _has_vowel(stem):
    return any(not _is_cons(stem, i) for i in range(len(stem)))


def _ends_double_cons(word):
    return len(word) >= 2 and word[-1] == word[-2] and _is_cons(word, len(word) - 1)


def _ends_cvc(word):
    n = len(word)
    if n < 3:
        return False
    if _is_cons(word, n - 1) and not _is_cons(word, n - 2) and _is_cons(word, n - 3):
        return word[-1] not in "wxy"
    return False


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


def _step1a(w):
    if w.endswith("sses"):
        return w[:-2]
    if w.endswith("ies"):
        return w[:-2]
    if w.endswith("ss"):
        return w
    if w.endswith("s"):
        return w[:-1]
    return w


def _step1b(w):
    if w.endswith("eed"):
        return w[:-1] if _measure(w[:-3]) > 0 else w
    if w.endswith("ed"):
        stem = w[:-2]
        return _step1b_adjust(stem) if _has_vowel(stem) else w
    if w.endswith("ing"):
        stem = w[:-3]
        return _step1b_adjust(stem) if _has_vowel(stem) else w
    return w


def _step1b_adjust(w):
    if w.endswith(("at", "bl", "iz")):
        return w + "e"
    if _ends_double_cons(w) and w[-1] not in "lsz":
        return w[:-1]
    if _measure(w) == 1 and _ends_cvc(w):
        return w + "e"
    return w


def _step1c(w):
    if w.endswith("y") and _has_vowel(w[:-1]):
        return w[:-1] + "i"
    return w


def _apply_rules(w, rules):
    for suffix, repl in rules:
        if w.endswith(suffix):
            stem = w[: len(w) - len(suffix)]
            if _measure(stem) > 0:
                return stem + repl
            return w
    return w


def _step4(w):
    for suffix in _STEP4_SUFFIXES:
        if w.endswith(suffix):
            stem = w[: len(w) - len(suffix)]
            if _measure(stem) <= 1:
                return w
            if suffix == "ion" and not stem.endswith(("s", "t")):
                return w
            return stem
    return w


def _step5a(w):
    if w.endswith("e"):
        stem = w[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _ends_cvc(stem)):
            return stem
    return w


def _step5b(w):
    if w.endswith("ll") and _measure(w) > 1:
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
    w = _apply_rules(w, _STEP2_RULES)
    w = _apply_rules(w, _STEP3_RULES)
    w = _step4(w)
    w = _step5a(w)
    w = _step5b(w)
    return w
