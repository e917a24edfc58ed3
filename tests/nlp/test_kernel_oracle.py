"""The trimmed tokenizer and scorer equal their oracles, field for field.

``tests/nlp/oracle.py`` keeps the bodies the kernel ran before it
skipped substitutions that cannot match, lowercased the joined text
once and unrolled its two-token windows.  Every score field must be
``==``, not approximately equal: the arithmetic is unchanged.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nlp.lexicon import INTENSIFIERS, NEGATORS, VALENCES
from repro.nlp.sentiment import SentimentAnalyzer
from repro.nlp.tokenize import tokenize
from repro.resilience.faults import BRIGADE_TEMPLATES
from tests.nlp import oracle

_LEXICON = sorted(VALENCES)
_SHIFTERS = sorted(set(INTENSIFIERS) | set(NEGATORS))
_WORDS = _LEXICON + _SHIFTERS

_PIECES = st.one_of(
    st.sampled_from(_WORDS),
    st.sampled_from(_WORDS).map(str.upper),
    st.sampled_from(_WORDS).map(str.title),
    st.sampled_from(["dish", "the", "Mbps", "50", "12.5", "isn't", "o'clock"]),
    st.text(alphabet="!?", min_size=1, max_size=5),
    st.sampled_from(["🚀", "😡", "🎉", "🤬", "☀", "➿"]),
    st.sampled_from([
        "u/x", "r/x", "/u/some_one", "/r/Starlink", "http://example.com/a",
        "https://x.org/u/y", "www.site.com", "www.", "://", "/", " / ",
    ]),
)
_SEPARATORS = st.sampled_from([" ", "", ", ", ". ", "\n", "/"])

#: Texts built from what the kernel reacts to: lexicon hits, shifters
#: in the two tokens before a hit (positions 0 and 1 included), caps,
#: bursts, emoji, and every substitution trigger next to a lone "/".
soups = st.tuples(
    st.sampled_from(["", *_SHIFTERS]),
    st.sampled_from(["", *_SHIFTERS]),
    st.lists(st.tuples(_PIECES, _SEPARATORS), max_size=30),
).map(lambda parts: f"{parts[0]} {parts[1]} " + "".join(
    piece + sep for piece, sep in parts[2]
))


def fields(scores):
    return scores.positive, scores.negative, scores.neutral


def assert_matches_oracle(text):
    assert tokenize(text) == oracle.tokenize(text)
    assert fields(SentimentAnalyzer().score(text)) == fields(oracle.score(text))


@given(st.text(max_size=300))
@settings(max_examples=300, deadline=None)
def test_any_text(text):
    assert_matches_oracle(text)


@given(soups)
@settings(max_examples=500, deadline=None)
def test_token_soups(text):
    assert_matches_oracle(text)


def test_hits_at_the_window_edges():
    for shifter in _SHIFTERS:
        for word in ("great", "slow", "GARBAGE"):
            for text in (
                f"{word}!!", f"{shifter} {word}", f"{shifter} {shifter} {word}",
                f"{shifter} {word} {word} !?", f"! {shifter} {word}",
            ):
                assert_matches_oracle(text)


def test_every_text_of_a_generated_corpus(small_corpus):
    texts = {post.full_text for post in small_corpus}
    texts.update(f"{title}\n{text}" for title, text in BRIGADE_TEMPLATES)
    for text in sorted(texts):
        assert_matches_oracle(text)


def test_score_many_matches_the_oracle(small_corpus):
    texts = [post.full_text for post in small_corpus]
    assert [fields(s) for s in SentimentAnalyzer().score_many(texts)] == [
        fields(oracle.score(t)) for t in texts
    ]
