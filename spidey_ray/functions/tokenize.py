"""Tokenizers (crawl + index), bigrams, stem-dicts, contraction expansion.

Reference semantics:
- crawl tokenizer: lowercase, pattern ``[a-zA-Z'-]{2,}``, drop a 174-word
  stopword set (backend/crawler/scraper.py:142-156, 264-288),
- index tokenizer: lowercase, pattern ``[a-z0-9']+``, expand contractions,
  split expansions on whitespace/apostrophe, yield (token, char_pos) with the
  running position accumulator (backend/HTMLParser.py:19-27),
- bigram tokenizer: adjacent pairs, first token's position
  (backend/HTMLParser.py:30-41),
- stem-dict builder: group positions by token, Porter-stem (space-joined for
  bigrams), merge and sort positions (backend/HTMLParser.py:46-68).

The reference relies on the third-party ``contractions`` package
(HTMLParser.py:7); unavailable here, so a compact public contraction map
covers the shapes the engine emits. Shared by the oracle and Ray stages.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator

from . import porter

INDEX_TOKEN_PATTERN = re.compile(r"[a-z0-9']+")
CRAWL_TOKEN_PATTERN = re.compile(r"[a-zA-Z'-]{2,}")

# Same stopword list as scraper.py:144-156.
CRAWL_STOPWORDS = frozenset(
    """a about above after again against all am an and any are aren't as at be
    because been before being below between both but by can't cannot could
    couldn't did didn't do does doesn't doing don't down during each few for
    from further had hadn't has hasn't have haven't having he he'd he'll he's
    her here here's hers herself him himself his how how's i i'd i'll i'm i've
    if in into is isn't it it's its itself let's me more most mustn't my myself
    no nor not of off on once only or other ought our ours ourselves out over
    own same shan't she she'd she'll she's should shouldn't so some such than
    that that's the their theirs them themselves then there there's these they
    they'd they'll they're they've this those through to too under until up
    very was wasn't we we'd we'll we're we've were weren't what what's when
    when's where where's which while who who's whom why why's with won't would
    wouldn't you you'd you'll you're you've your yours yourself yourselves""".split()
)

# Query stopwords (backend/Query.py:33) — contraction-free variant.
QUERY_STOPWORDS = frozenset(
    """about were having more same for your very up out has again some through
    all not we during be between until whom theirs few most where such he what
    those no an let it too you have ours her will who than further after are if
    was doing our been then into ought the over us while own being his these
    cannot down in below yourselves their or so him this but they on both once
    itself them only by there is herself how she did to a themselves which off
    because against yourself with at its before does that had me i other each
    hers and as nor under himself am any would from of should must my myself
    why above when shall could here yours do ourselves""".split()
)

_CONTRACTIONS = {
    "ain't": "are not", "aren't": "are not", "can't": "cannot",
    "couldn't": "could not", "didn't": "did not", "doesn't": "does not",
    "don't": "do not", "hadn't": "had not", "hasn't": "has not",
    "haven't": "have not", "he'd": "he would", "he'll": "he will",
    "he's": "he is", "how's": "how is", "i'd": "i would", "i'll": "i will",
    "i'm": "i am", "i've": "i have", "isn't": "is not", "it's": "it is",
    "let's": "let us", "mustn't": "must not", "shan't": "shall not",
    "she'd": "she would", "she'll": "she will", "she's": "she is",
    "shouldn't": "should not", "that's": "that is", "there's": "there is",
    "they'd": "they would", "they'll": "they will", "they're": "they are",
    "they've": "they have", "wasn't": "was not", "we'd": "we would",
    "we'll": "we will", "we're": "we are", "we've": "we have",
    "weren't": "were not", "what's": "what is", "when's": "when is",
    "where's": "where is", "who's": "who is", "why's": "why is",
    "won't": "will not", "wouldn't": "would not", "you'd": "you would",
    "you'll": "you will", "you're": "you are", "you've": "you have",
}


def expand_contractions(token: str) -> str:
    return _CONTRACTIONS.get(token, token)


_EXPANSION_SPLIT = re.compile(r"\s|'")


def tokenize(text: str) -> Iterator[tuple[str, int]]:
    """Index tokenizer: yields (token, position) pairs (HTMLParser.py:19-28)."""
    text = text.lower()
    pos = 0
    for res in INDEX_TOKEN_PATTERN.finditer(text):
        token = res.group()
        if "'" not in token:
            # fast path: no apostrophe ⇒ not a contraction, no split needed
            yield token, pos
            pos += len(token) + 1
            continue
        for t in _EXPANSION_SPLIT.split(expand_contractions(token)):
            if not t:
                continue
            yield t, pos
            pos += len(t) + 1


def bigram_tokenize(
    tokens_iter: Iterable[tuple[str, int]]
) -> Iterator[tuple[str, int]]:
    """Adjacent token pairs with the first token's position (HTMLParser.py:30-41)."""
    it = iter(tokens_iter)
    try:
        out = next(it)
    except StopIteration:
        return
    for xi in it:
        yield f"{out[0]} {xi[0]}", out[1]
        out = xi


def stem_bigram(token: str) -> str:
    return " ".join(porter.stem(t) for t in token.split())


def tokens_to_stem_dict(
    tokens_and_positions: Iterable[tuple[str, int]]
) -> dict[str, list[int]]:
    """Group positions by token, stem, merge, sort (HTMLParser.py:46-68)."""
    tokendict: dict[str, list[int]] = {}
    for token, position in tokens_and_positions:
        tokendict.setdefault(token, []).append(position)
    stemdict: dict[str, list[int]] = {}
    for token, positions in tokendict.items():
        s = " ".join(porter.stem(t) for t in token.split())
        if s in stemdict:
            stemdict[s] += positions
        else:
            stemdict[s] = positions
    for s in stemdict:
        stemdict[s].sort()
    return stemdict


def crawl_tokenize(text: str) -> list[str]:
    """Crawl-report tokenizer with stopword removal (scraper.py:264-272)."""
    lst = CRAWL_TOKEN_PATTERN.findall(text.lower())
    return [t for t in lst if t and t not in CRAWL_STOPWORDS]


def word_frequencies(tokens: Iterable[str]) -> dict[str, int]:
    """Frequency dict (scraper.py:347-354)."""
    freq: dict[str, int] = {}
    for t in tokens:
        freq[t] = freq.get(t, 0) + 1
    return freq
