"""Exactness of the classifier's score tables and the tokenizer.

``NaiveBayesClassifier`` scores a document from per-label tables (log
prior, token -> log likelihood) built once per training state, and
``tokenize`` extracts words with ``findall``. Both must reproduce the
reference computations exactly: the per-token ``math.log`` formula,
float for float (so scores, and ties between labels, never move), and
the ``finditer`` tokenizer. The tables are derived state: ``train``
drops them, and pickles (database images) never carry them.
"""

from __future__ import annotations

import base64
import math
import pickle
import zlib

from hypothesis import given
from hypothesis import strategies as st

from repro.mining import NaiveBayesClassifier, tokenize
from repro.mining import text as text_module
from repro.mining.text import STOP_WORDS
from repro.workload.vocab import CATEGORIES, CLASS_LABELS, SEED_EXAMPLES

#: A classifier trained on ``SEED_EXAMPLES`` and pickled (zlib, base64)
#: by a release whose classifier computed every score per token and kept
#: no tables: the shape of the state a saved database image holds.
TABLELESS_PICKLE = (
    "eNpFVNmu5DQQBXpJLzBCcBnusO8MElz2fZ2FtWEGhvWBoXGSSh/TThxspy89EhI8"
    "8BYJJML/UraTnjzZ8XHVqVPH9cf4v2R6S/jaY0O10SelrGS1OamE3NE6FXuyXXt0"
    "xe8u+s0lJayVhSTT/ds982f3e3e+nSqRkrLddV4nl6UlYalrkwuVcLrcd+3sIkHs"
    "pDZdO7nqwFepPVMIpVKRbdfhcodFe8fa6S1V60w3lbM+MpJ2mWmlKHNSV0wkueTP"
    "Qm6feKZTS2ZHebe6tZ3LqohAv5twQlEN/1VD1Q3hdzO7L2umZf1mbGW27Va3tUtZ"
    "5XIn80aocDDZSdOE1Uw3LjUktiFUqY0TSrp9OKqFEVY68ptEkQ0ceT0tmmojVI9x"
    "0BsKTBKpVEU2xmW1OViknuS9aExlRrXMqZRZQKXaNUraMrAt+1xLX6l1Yqg16WsK"
    "oFQaH7P5q7vWYYY7vU7jU25piOcXto7C3F5yzsZQSV7ucLevk4OoQD+pVVOKTSCW"
    "FCRC8zzACRnrs1tS5CKPcaqrQHB6SnIDFyKI3gUcgc/zoNzEQtTUd+BGWExY175z"
    "meHiYsFahcWCTaDNod6xNNL2edI0SjguiNyh7nmse17Kzc1rCWvvBiHSwZKrEevH"
    "f/uDsdU9ouCMw985e9I4C1mHQJwr70+mLMoAsqwDnXJXw4E3VI8p1L5fTgqls200"
    "gNYHOkv2tJFOGxlt4w1RK9HbzBBVPTDJ+NkMYcubqbmvHCLuogSLKMEyPpGDCFND"
    "mQ4Oaafc/B2FHPOdVv5hxe4uaminWbkagQBTPtxf8IzYUSWqLNo+06X3T8D92niB"
    "+x5VOpp1noGyLXs4qhIed8iZcJv94w1R6bea6Q+RuJytrFljES1knMwU9fQ3QwYl"
    "tpHDKTklqjyaRwt78EETZgo7K04W2+FMu8ypEI1yucwcjxF2QiMV68jTZcQi8i9/"
    "k0fP6hxmq2PMV2exWB017XKd62wYTnA4HXAjxo0YN2LcyON2rFfaKGH23d+M+BQV"
    "3sNruA8lPsSXeAw/osDreBhPIQfhDZzgW7yKu/AANvgcz+IszuEIH0HjazyHH3Ae"
    "9+IJrPEmnsc7+AQrfI+f8Ba+w8d4AVfwC77B43gJKS7gZVzF3RB4Fw/hfjyK6zhG"
    "hq/wBT7A29jiQQDv42n8jFfwGe6Bwot4BE9C4to/TXryP4nrN4I="
)

VOCABULARY = sorted({w for words in CATEGORIES.values() for w in words})

word = st.one_of(
    st.sampled_from(VOCABULARY),
    st.sampled_from(sorted(STOP_WORDS)),
    st.text(alphabet="abqxzAQZ'\u00e9\u00df\u00c5\u03bb", min_size=1,
            max_size=8),
)
casing = st.sampled_from([str.lower, str.upper, str.title, str.swapcase])
separator = st.sampled_from([" ", "  ", ", ", ". ", "\n", "-", "'", "3",
                             "\u00e9", "\u2014"])
texts = st.lists(st.tuples(word, casing, separator), max_size=20).map(
    lambda parts: "".join(case(w) + sep for w, case, sep in parts)
)
examples = st.lists(st.tuples(texts, st.sampled_from(CLASS_LABELS)),
                    min_size=1, max_size=8)


def reference_tokenize(text: str, drop_stop_words: bool = True) -> list[str]:
    tokens = [m.group(0).lower() for m in text_module._WORD_RE.finditer(text)]
    if drop_stop_words:
        tokens = [t for t in tokens if t not in STOP_WORDS]
    return tokens


def reference_log_scores(clf: NaiveBayesClassifier, text: str) -> dict:
    """The per-token formula the score tables replace."""
    tokens = [t for t in reference_tokenize(text) if t in clf._vocabulary]
    total_docs = sum(clf._doc_counts.values())
    vocab_size = len(clf._vocabulary)
    scores = {}
    for label in clf.labels:
        prior = (clf._doc_counts[label] + 1) / (total_docs + len(clf.labels))
        score = math.log(prior)
        denom = clf._total_tokens[label] + vocab_size
        counts = clf._token_counts[label]
        for token in tokens:
            score += math.log((counts[token] + 1) / denom)
        scores[label] = score
    return scores


def reference_classify(clf: NaiveBayesClassifier, text: str) -> str:
    if not [t for t in reference_tokenize(text) if t in clf._vocabulary]:
        return clf.fallback_label
    scores = reference_log_scores(clf, text)
    return max(clf.labels, key=lambda label: scores[label])


def seeded() -> NaiveBayesClassifier:
    clf = NaiveBayesClassifier(CLASS_LABELS)
    clf.train(SEED_EXAMPLES)
    return clf


def assert_exact(clf: NaiveBayesClassifier, text: str) -> None:
    got, want = clf.log_scores(text), reference_log_scores(clf, text)
    assert [s.hex() for s in got.values()] == [s.hex() for s in want.values()]
    assert list(got) == list(want)
    assert clf.classify(text) == reference_classify(clf, text)


@given(texts, st.booleans())
def test_tokenize_matches_finditer(text, drop_stop_words):
    assert tokenize(text, drop_stop_words) == reference_tokenize(
        text, drop_stop_words)


@given(texts)
def test_seeded_scores_are_exact(text):
    assert_exact(seeded(), text)


@given(examples, st.lists(texts, min_size=1, max_size=5))
def test_trained_scores_and_ties_are_exact(training, documents):
    """Random training sets make tied and empty labels common."""
    clf = NaiveBayesClassifier(CLASS_LABELS)
    clf.train(training)
    for text in documents:
        assert_exact(clf, text)


@given(examples, texts)
def test_incremental_training_rebuilds_the_tables(more, text):
    """Scoring once builds the tables; more training moves every prior,
    so a stale table would show as an inexact score."""
    clf = seeded()
    assert_exact(clf, "avian influenza outbreak")
    clf.train(more)
    assert_exact(clf, text)


@given(texts)
def test_pickles_carry_no_tables(text):
    clf = seeded()
    before = pickle.dumps(clf)
    clf.classify(text)
    clf.log_scores(text)
    assert pickle.dumps(clf) == before
    assert_exact(pickle.loads(before), text)


@given(texts)
def test_a_tableless_pickle_classifies_identically(text):
    loaded = pickle.loads(zlib.decompress(base64.b64decode(TABLELESS_PICKLE)))
    fresh = seeded()
    assert pickle.loads(pickle.dumps(fresh)).__dict__ == loaded.__dict__
    assert_exact(loaded, text)
    assert loaded.log_scores(text) == fresh.log_scores(text)
    assert loaded.classify(text) == fresh.classify(text)
