"""Tokenizer, stopword filtering, and stemmer tests.

The stemmer is checked two ways: against a frozen table of known
stems, and for exact agreement with the independent transliteration in
reference_porter.py over a generated vocabulary and random strings.
"""

import itertools
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_porter import reference_stem
from venuerec.text import (
    DEFAULT_CONFIG,
    PreprocessConfig,
    porter_stem,
    preprocess,
    tokenize,
)
from venuerec._stopwords import SMART_STOPWORDS

# Full-pipeline stems, frozen from the reference implementation and
# spot-checked against the published behaviour of the algorithm.
KNOWN_STEMS = [
    ("caresses", "caress"),
    ("ponies", "poni"),
    ("ties", "ti"),
    ("caress", "caress"),
    ("cats", "cat"),
    ("feed", "feed"),
    ("agreed", "agre"),
    ("plastered", "plaster"),
    ("bled", "bled"),
    ("motoring", "motor"),
    ("sing", "sing"),
    ("conflated", "conflat"),
    ("troubled", "troubl"),
    ("sized", "size"),
    ("hopping", "hop"),
    ("tanned", "tan"),
    ("falling", "fall"),
    ("hissing", "hiss"),
    ("fizzed", "fizz"),
    ("failing", "fail"),
    ("filing", "file"),
    ("happy", "happi"),
    ("sky", "sky"),
    ("relational", "relat"),
    ("conditional", "condit"),
    ("rational", "ration"),
    ("valenci", "valenc"),
    ("hesitanci", "hesit"),
    ("digitizer", "digit"),
    ("conformabli", "conform"),
    ("radicalli", "radic"),
    ("differentli", "differ"),
    ("vileli", "vile"),
    ("analogousli", "analog"),
    ("vietnamization", "vietnam"),
    ("predication", "predic"),
    ("operator", "oper"),
    ("feudalism", "feudal"),
    ("decisiveness", "decis"),
    ("hopefulness", "hope"),
    ("callousness", "callous"),
    ("formaliti", "formal"),
    ("sensitiviti", "sensit"),
    ("sensibiliti", "sensibl"),
    ("triplicate", "triplic"),
    ("formative", "form"),
    ("formalize", "formal"),
    ("electriciti", "electr"),
    ("electrical", "electr"),
    ("hopeful", "hope"),
    ("goodness", "good"),
    ("revival", "reviv"),
    ("allowance", "allow"),
    ("inference", "infer"),
    ("airliner", "airlin"),
    ("gyroscopic", "gyroscop"),
    ("adjustable", "adjust"),
    ("defensible", "defens"),
    ("irritant", "irrit"),
    ("replacement", "replac"),
    ("adjustment", "adjust"),
    ("dependent", "depend"),
    ("adoption", "adopt"),
    ("homologou", "homolog"),
    ("communism", "commun"),
    ("activate", "activ"),
    ("angulariti", "angular"),
    ("homologous", "homolog"),
    ("effective", "effect"),
    ("bowdlerize", "bowdler"),
    ("probate", "probat"),
    ("rate", "rate"),
    ("cease", "ceas"),
    ("controlling", "control"),
    ("roll", "roll"),
    ("generalization", "gener"),
    ("oscillators", "oscil"),
    ("grandparents", "grandpar"),
    ("visited", "visit"),
    ("enjoying", "enjoi"),
    ("saying", "sai"),
    ("crying", "cry"),
    ("flying", "fly"),
    ("dying", "dy"),
    ("agreeable", "agreeabl"),
]


class TestTokenize:
    def test_empty(self):
        assert tokenize("") == []

    def test_punctuation_split(self):
        assert tokenize("Great food, great view!") == [
            "great", "food", "great", "view"]

    def test_underscore_splits(self):
        assert tokenize("day_time") == ["day", "time"]

    def test_digits_kept_by_tokenizer(self):
        # dropping numerics is preprocess's job, not the tokenizer's
        assert tokenize("open 24 hours") == ["open", "24", "hours"]

    def test_apostrophes_split(self):
        assert tokenize("don't") == ["don", "t"]


class TestPorterKnownStems:
    @pytest.mark.parametrize("word,expected", KNOWN_STEMS)
    def test_known_stem(self, word, expected):
        assert porter_stem(word) == expected

    @pytest.mark.parametrize("word,expected", KNOWN_STEMS)
    def test_reference_agrees_with_table(self, word, expected):
        assert reference_stem(word) == expected

    @pytest.mark.parametrize("word", ["a", "is", "be", "as", "by", "s", ""])
    def test_short_words_unchanged(self, word):
        assert porter_stem(word) == word

    def test_not_idempotent_in_general(self):
        # documented property of the algorithm: re-stemming a stem can
        # shorten it further, so nothing downstream may rely on
        # stem(stem(w)) == stem(w)
        assert porter_stem("university") == "univers"
        assert porter_stem("univers") == "univ"


class TestPorterCrossCheck:
    ROOTS = """cat dog run walk jump talk drop hop stop plan control roll fall
    hiss fizz fail file hope rate size conflate trouble plaster motor sing feed
    agree bleed care tie pony caress happy sky enjoy say cry try deny rely
    relation condition ration valency hesitancy digitize radical different vile
    analogous predicate operate feudal decisive hopeful callous formal sensitive
    triplicate formative formalize electrical good act probate cease activate
    communicate generate oscillate resolute derive oppose irritate adopt commune
    arrange engineer celebrate revive effect airline""".split()

    SUFFIXES = [
        "", "s", "es", "ed", "ing", "ings", "er", "ers", "est", "ly", "ness",
        "ment", "ments", "ation", "ations", "ational", "ization", "izer",
        "iveness", "fulness", "ousness", "ality", "ivity", "ability", "alism",
        "ently", "ously", "ely", "ally", "icate", "ative", "alize", "icity",
        "ical", "ful", "ance", "ence", "able", "ible", "ant", "ement", "ent",
        "ion", "ism", "ate", "iti", "ous", "ive", "ize", "al", "e", "y", "ies",
    ]

    def test_agreement_on_morphological_grid(self):
        mismatches = []
        for root, suffix in itertools.product(self.ROOTS, self.SUFFIXES):
            word = root + suffix
            if porter_stem(word) != reference_stem(word):
                mismatches.append(word)
        assert mismatches == []

    # every suffix a rule of steps 1 to 5 tests for
    RULE_SUFFIXES = """sses ies ss s eed ed ing at bl iz y ational tional
    enci anci izer bli alli entli eli ousli ization ation ator alism iveness
    fulness ousness aliti iviti biliti logi icate ative alize iciti ical ful
    ness al ance ence er ic able ible ant ement ment ent ion sion tion ou ism
    ate iti ous ive ize e ll""".split()

    @settings(max_examples=2000, deadline=None)
    @given(st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=12))
    def test_agreement_on_random_words(self, word):
        assert porter_stem(word) == reference_stem(word)

    # Any letters, or one or two consonant-vowel-consonant syllables,
    # the last consonant perhaps doubled: the shapes the measure, *d and
    # *o conditions test.  The letters those conditions name (l, s, z;
    # w, x, y) are drawn twice as often as the other consonants.
    CONSONANT = st.sampled_from("bcdfghjklmnpqrstvwxyz" + "lszwxy")
    ROOT = st.one_of(
        st.text(alphabet=string.ascii_lowercase, max_size=8),
        st.builds(lambda syllables, doubled: syllables + syllables[-1]
                  * doubled,
                  st.lists(st.tuples(CONSONANT, st.sampled_from("aeiouy"),
                                     CONSONANT).map("".join),
                           min_size=1, max_size=2).map("".join),
                  st.booleans()))

    def test_agreement_on_syllable_grid(self):
        # every one-syllable root over the consonants the *d and *o
        # conditions name, doubled or not, with every rule suffix
        consonants = "bdlswxyz"
        mismatches = []
        for c1, v, c2, doubled, suffix in itertools.product(
                consonants, "aeiouy", consonants, (False, True),
                [""] + self.RULE_SUFFIXES):
            word = c1 + v + c2 * (1 + doubled) + suffix
            if porter_stem(word) != reference_stem(word):
                mismatches.append(word)
        assert mismatches == []

    @settings(max_examples=1000, deadline=None)
    @given(ROOT,
           st.lists(st.sampled_from(RULE_SUFFIXES), min_size=1, max_size=2))
    def test_agreement_on_roots_with_rule_suffixes(self, root, suffixes):
        word = root + "".join(suffixes)
        assert porter_stem(word) == reference_stem(word)


class TestStopwords:
    def test_size_of_builtin_list(self):
        assert len(SMART_STOPWORDS) == 570

    @pytest.mark.parametrize("word", ["the", "a", "of", "alone", "can", "us"])
    def test_membership(self, word):
        assert word in SMART_STOPWORDS


class TestPreprocess:
    def test_pipeline_example(self):
        assert preprocess("Grandparents visited us in 2019!") == [
            "grandpar", "visit"]

    def test_stopword_stems_filtered(self):
        # "cans" stems to "can", which is itself a stopword; the
        # post-stem filter must catch it
        assert preprocess("cans") == []

    def test_digit_tokens_dropped(self):
        assert preprocess("room 101 checkin") == ["room", "checkin"]

    def test_tokens_that_stem_to_digits_dropped(self):
        # "00s" stems to "00"; the post-stem filter must catch it
        assert preprocess("the 00s 90s music") == ["music"]

    def test_empty(self):
        assert preprocess("") == []

    def test_no_stopword_config_keeps_everything(self):
        cfg = PreprocessConfig(stopwords=frozenset())
        assert preprocess("alone at night", cfg) == ["alon", "at", "night"]

    @settings(max_examples=500, deadline=None)
    @given(st.text(max_size=80))
    def test_output_never_contains_stopwords(self, text):
        for tok in preprocess(text):
            assert tok not in DEFAULT_CONFIG.stopwords

    @settings(max_examples=500, deadline=None)
    @given(st.text(max_size=80))
    def test_output_tokens_lowercase_non_digit(self, text):
        for tok in preprocess(text):
            assert tok == tok.lower()
            assert not tok.isdigit()
