"""HTML → interleaved span-sequence parser (the `documents` table row shape).

Reference semantics being matched (span-sequence equality on
(kind, text, media_ref, order) — BASELINE.json input_hint):

- visible text nodes: every stripped, non-empty text node whose parent tag is
  not in {style, script, head, title, meta, [document]} and is not a comment,
  with kind = the enclosing tag name (backend/HTMLParser.py:87-98; same
  filter in backend/crawler/scraper.py:512-514),
- title: first <title> string, stripped, first line; fallback = basename of
  the URL path (backend/HTMLParser.py:81-85),
- html-vs-raw decision: has <html>, or (path has no extension in its last 6
  chars or an html-ish extension) and at least one tag
  (backend/HTMLParser.py:77-80); raw docs produce a single span with kind ''
  (the reference's ``[[None, content]]``, HTMLParser.py:98),
- outlinks: every <a href> and sitemap <loc>, absolutized + defragged
  (backend/crawler/scraper.py:429-432, 490) → interleaved spans with
  kind='link', text = anchor visible text, media_ref = resolved URL,
- media (<img>, <source>, <video src>, <audio src>, <embed src>): the
  rebuild's interleaved-media extension (input_hint) → kind='media',
  text = alt text, media_ref = resolved URL.  The reference follows only
  a/loc links, so media spans never feed the frontier.
- offset: the running tokenized-char accumulator the reference tracks as
  ``fileLength`` (backend/Filter.py:83-88): each text span advances it by
  sum(len(token)+1) of its index-tokenized text.

The reference uses BeautifulSoup + lxml; neither is installed here, so this
is a from-scratch parser over ``html.parser.HTMLParser`` (stdlib) that
reproduces the text-node/parent semantics above for the HTML the engine
processes.  Pure module: shared verbatim by the serial oracle and all Ray
stages.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from html.parser import HTMLParser as _StdHTMLParser
from urllib.parse import urlparse

from .tokenize import (_EXPANSION_SPLIT, INDEX_TOKEN_PATTERN,
                       expand_contractions, tokenize)
from .urltools import absolute_url

EXCLUDED_PARENTS = frozenset({"style", "script", "head", "title", "meta", "[document]"})
VOID_TAGS = frozenset(
    {"area", "base", "br", "col", "embed", "hr", "img", "input",
     "link", "meta", "param", "source", "track", "wbr"}
)
HTMLISH_EXTS = (
    ".html", ".xml", ".xhtml", ".phtml", ".shtml", ".htm", ".php", ".aspx",
    ".asp", ".jsp",
)
MEDIA_TAGS = frozenset({"img", "source", "video", "audio", "embed"})


@dataclass
class Span:
    kind: str
    text: str
    media_ref: str
    offset: int = 0


@dataclass
class ParsedDoc:
    url: str
    title: str
    spans: list[Span]
    tag_count: int
    is_sitemap: bool
    is_html: bool

    @property
    def links(self) -> list[str]:
        """a@href + loc targets in document order (scraper.py:490 xpath)."""
        return [s.media_ref for s in self.spans if s.kind == "link"]

    @property
    def visible_text(self) -> str:
        """Space-joined visible text nodes (scraper.py:512-514)."""
        return " ".join(
            s.text for s in self.spans if s.kind not in ("link", "media")
        )


class _SpanExtractor(_StdHTMLParser):
    def __init__(self, base_url: str):
        super().__init__(convert_charrefs=True)
        self.base_url = base_url
        self.stack: list[str] = []
        self.spans: list[Span] = []
        self.tag_count = 0
        self.has_html = False
        self.loc_count = 0
        self.title: str | None = None
        self._title_buf: list[str] | None = None
        self._data_buf: list[str] = []
        self._anchors: list[tuple[str, list[str]]] = []  # (href, text parts)

    # -- text-node handling: contiguous data between tag events is one node --
    def _flush_data(self) -> None:
        if not self._data_buf:
            return
        raw = "".join(self._data_buf)
        self._data_buf = []
        parent = self.stack[-1] if self.stack else "[document]"
        if self._title_buf is not None and parent == "title":
            self._title_buf.append(raw)
            return
        stripped = raw.strip()
        if not stripped:
            return
        if self._anchors:
            self._anchors[-1][1].append(stripped)
        if parent in EXCLUDED_PARENTS:
            return
        self.spans.append(Span(parent, stripped, ""))
        if parent == "loc":
            # sitemap <loc> — an outlink target (scraper.py:429-432)
            self.spans.append(
                Span("link", stripped, absolute_url(self.base_url, stripped))
            )
            self.loc_count += 1

    def handle_starttag(self, tag, attrs):
        self._flush_data()
        self.tag_count += 1
        if tag == "html":
            self.has_html = True
        adict = dict(attrs)
        if tag == "a":
            self._anchors.append((adict.get("href", ""), []))
        if tag in MEDIA_TAGS:
            src = adict.get("src") or adict.get("data-src") or ""
            if src:
                self.spans.append(
                    Span("media", (adict.get("alt") or "").strip(),
                         absolute_url(self.base_url, src))
                )
        if tag == "title" and self.title is None and self._title_buf is None:
            self._title_buf = []
        if tag not in VOID_TAGS:
            self.stack.append(tag)

    def handle_startendtag(self, tag, attrs):
        self.handle_starttag(tag, attrs)
        if tag not in VOID_TAGS:
            # self-closing non-void: treat as immediately closed
            self.handle_endtag(tag)

    def handle_endtag(self, tag):
        self._flush_data()
        if tag == "title" and self._title_buf is not None and self.title is None:
            self.title = "".join(self._title_buf)
            self._title_buf = None
        if tag == "a" and self._anchors:
            href, parts = self._anchors.pop()
            if href:
                self.spans.append(
                    Span("link", " ".join(parts), absolute_url(self.base_url, href))
                )
            if self._anchors:  # nested anchors: propagate text upward
                self._anchors[-1][1].extend(parts)
        # lenient pop: close up to the matching open tag if present
        if tag in self.stack:
            while self.stack and self.stack[-1] != tag:
                self.stack.pop()
            if self.stack:
                self.stack.pop()

    def handle_data(self, data):
        self._data_buf.append(data)

    def handle_comment(self, data):
        self._flush_data()  # comments break text nodes and are skipped

    def close(self):
        super().close()
        self._flush_data()


def _basename_title(url: str) -> str:
    return os.path.split(urlparse(url).path)[-1].strip()


# ---------------------------------------------------------------------------
# fast event scanner
# ---------------------------------------------------------------------------
# Drives the SAME _SpanExtractor handler methods as html.parser's feed(),
# but with one regex match per tag and charref conversion only when '&'
# is present — html.parser's goahead() character loop was ~half the parse
# cost of the crawl hot path.  Semantics replicated from html.parser with
# convert_charrefs=True: data charrefs unescaped (except inside
# script/style rawtext), tag/attr names lowercased, quoted '>' inside
# attribute values honored, bogus comments (<!x>, </ x>) → handle_comment,
# doctype / <![...]> / <?...> → no event (stdlib handlers are no-ops, so
# they do not split text nodes), stray '<' → data.  parse_document falls
# back to the stdlib parser if the scanner raises, and the differential
# test suite asserts span-sequence equality between both paths over the
# synthetic web and adversarial markup.

import re as _re

from html.parser import attrfind_tolerant as _ATTRFIND
from html.parser import endtagfind as _ENDTAGFIND
from html.parser import locatestarttagend_tolerant as _LOCATE
from html.parser import tagfind_tolerant as _TAGFIND

# strict fast-path grammar: clean well-formed start tags only — anything
# else falls through to the exact stdlib-mirror slow path below
_SIMPLE_START = _re.compile(
    r'<([a-zA-Z][a-zA-Z0-9]*)'
    r'((?:\s+[a-zA-Z_:][-a-zA-Z0-9_:.]*'
    # bare values swallow a trailing '/' like the stdlib-tolerant grammar
    # ('<a href=v/>' is a NORMAL start tag with value "v/", never
    # self-closing — fuzz find), but exclude quotes/'='/'<'/backtick so any
    # messier construct ('<a F=">', '<title s==\'\'/>') falls through to
    # the exact _starttag_mirror instead of matching with wrong extents
    r'(?:\s*=\s*(?:"[^"<]*"|\'[^\'<]*\'|[^\s>\'"=<`]+))?)*)'
    r'\s*(/?)>'
)
_SCAN_ATTR = _re.compile(
    r'([^\s/=>]+)(?:\s*=\s*("[^"]*"|\'[^\']*\'|[^\s>]*))?')
_RAWTEXT_END = {
    "script": _re.compile(r'</\s*script', _re.I),
    "style": _re.compile(r'</\s*style', _re.I),
}
_COMMENT_CLOSE = _re.compile(r'--\s*>')        # stdlib allows '--  >'
# marked-section (<![...) mirror of _markupbase.parse_marked_section
_DECLNAME = _re.compile(r'[a-zA-Z][-_.a-zA-Z0-9]*\s*')
_MS_CLOSE = _re.compile(r']\s*]\s*>')          # standard ]]> (spaces legal)
_MSO_CLOSE = _re.compile(r']\s*>')             # MS Office <![if ...]> form
_LETTERS_EQ_SLASH = frozenset(
    "abcdefghijklmnopqrstuvwxyz=/ABCDEFGHIJKLMNOPQRSTUVWXYZ")
# tags whose attributes the extractor actually reads — the strict fast path
# skips attr parsing for every other tag (class-soup pages pay nothing)
_ATTR_TAGS = frozenset({"a"}) | MEDIA_TAGS


class _FastBail(Exception):
    """Raised by the fast scanner at constructs where html.parser's
    _markupbase ERRORS mid-parse (error() → NotImplementedError), dropping
    the rest of the document.  parse_document catches it and redoes the page
    through the stdlib mirror so behavior — including the dropped tail —
    stays identical."""


def _unesc(s: str) -> str:
    if "&" in s:
        from html import unescape

        return unescape(s)
    return s


def _parse_attrs(raw: str) -> list[tuple[str, str | None]]:
    out = []
    for m in _SCAN_ATTR.finditer(raw):
        name = m.group(1).lower()
        val = m.group(2)
        if val is None:
            out.append((name, None))
            continue
        if val[:1] in ('"', "'") and val[-1:] == val[:1]:
            val = val[1:-1]
        out.append((name, _unesc(val)))
    return out


def _incomplete(x: "_SpanExtractor", content: str, lt: int, find) -> int:
    """stdlib recovery for an incomplete markup construct (goahead's
    end-phase): emit data up to and including the next '>', else up to the
    next '<', else one char — and keep scanning."""
    gt = find(">", lt + 1)
    if gt >= 0:
        end = gt + 1
    else:
        lt2 = find("<", lt + 1)
        end = lt2 if lt2 >= 0 else lt + 1
    x.handle_data(_unesc(content[lt:end]))
    return end


def _starttag_mirror(x: "_SpanExtractor", content: str, lt: int,
                     find) -> tuple[int, str | None, bool]:
    """Exact mirror of HTMLParser.parse_starttag/check_for_whole_start_tag
    (tolerant grammar: '/' as attr separator, '<' legal inside tag names),
    using the stdlib's own compiled regexes. Returns
    (newpos, started_tag_or_None, self_closing)."""
    m = _LOCATE.match(content, lt)
    j = m.end()
    nx = content[j:j + 1]
    if nx == ">":
        endpos = j + 1
    elif nx == "/":
        if content.startswith("/>", j):
            endpos = j + 2
        else:
            return _incomplete(x, content, lt, find), None, False
    elif nx == "" or nx in _LETTERS_EQ_SLASH:
        return _incomplete(x, content, lt, find), None, False
    else:
        endpos = j if j > lt else lt + 1
    tm = _TAGFIND.match(content, lt + 1)
    tag = tm.group(1).lower()
    k = tm.end()
    attrs = []
    while k < endpos:
        am = _ATTRFIND.match(content, k)
        if not am:
            break
        name, rest, val = am.group(1, 2, 3)
        if not rest:
            val = None
        elif val[:1] == "'" == val[-1:] or val[:1] == '"' == val[-1:]:
            val = val[1:-1]
        if val:
            val = _unesc(val)
        attrs.append((name.lower(), val))
        k = am.end()
    end = content[k:endpos].strip()
    if end not in (">", "/>"):
        x.handle_data(content[lt:endpos])   # bogus tail: raw data (stdlib)
        return endpos, None, False
    if end.endswith("/>"):
        x.handle_startendtag(tag, attrs)
        return endpos, None, False
    x.handle_starttag(tag, attrs)
    return endpos, tag, False


def _fast_feed(x: "_SpanExtractor", content: str) -> None:
    pos, n = 0, len(content)
    find = content.find
    while pos < n:
        lt = find("<", pos)
        if lt < 0:
            x.handle_data(_unesc(content[pos:]))
            return
        if lt > pos:
            x.handle_data(_unesc(content[pos:lt]))
        nxt = content[lt + 1:lt + 2]
        if nxt.isalpha():
            m = _SIMPLE_START.match(content, lt)
            if m is not None:
                tag = m.group(1).lower()
                raw_attrs = m.group(2)
                attrs = (_parse_attrs(raw_attrs)
                         if raw_attrs and tag in _ATTR_TAGS else [])
                pos = m.end()
                if m.group(3):
                    x.handle_startendtag(tag, attrs)
                    continue
                x.handle_starttag(tag, attrs)
            else:
                pos, tag, _sc = _starttag_mirror(x, content, lt, find)
                if tag is None:
                    continue
            endrx = _RAWTEXT_END.get(tag)
            if endrx is not None:               # script/style rawtext
                start = pos
                while True:
                    em = endrx.search(content, pos)
                    if em is None:              # unterminated rawtext: the
                        return                  # stdlib parser DROPS it
                    tm = _ENDTAGFIND.match(content, em.start())
                    if tm is not None and tm.group(1).lower() == tag:
                        break                   # strict end tag only;
                    pos = em.start() + 2        # '</script x>' stays rawtext
                if em.start() > start:          # no charref conversion here
                    x.handle_data(content[start:em.start()])
                x.handle_endtag(tag)
                pos = tm.end()
        elif nxt == "/":
            m = _ENDTAGFIND.match(content, lt)
            if m is not None:
                x.handle_endtag(m.group(1).lower())
                pos = m.end()
                continue
            gt = find(">", lt + 1)
            if gt < 0:
                pos = _incomplete(x, content, lt, find)
                continue
            nm = _TAGFIND.match(content, lt + 2)
            if nm is not None:                  # junk after name: consume
                gt2 = find(">", nm.end())       # to the first '>' (stdlib)
                x.handle_endtag(nm.group(1).lower())
                pos = (gt2 + 1) if gt2 >= 0 else n
            elif content.startswith("</>", lt):
                pos = lt + 3                    # '</>' is silently dropped
            else:                               # '</ x>' → bogus comment
                x.handle_comment(content[lt + 2:gt])
                pos = gt + 1
        elif nxt == "!":
            if content.startswith("<!--", lt):
                em = _COMMENT_CLOSE.search(content, lt + 4)
                if em is None:                  # incomplete → data recovery
                    pos = _incomplete(x, content, lt, find)
                    continue
                x.handle_comment(content[lt + 4:em.start()])
                pos = em.end()
            elif content.startswith("<![", lt):
                # parse_marked_section mirror: name scan, keyword check
                # (unknown keyword / non-name → stdlib error()s: bail),
                # ']]>' close for standard sections, ']>' for MS Office
                if lt + 3 == n:
                    pos = _incomplete(x, content, lt, find)
                    continue
                dm = _DECLNAME.match(content, lt + 3)
                if dm is None:
                    raise _FastBail
                if dm.end() == n:               # name runs to EOF: incomplete
                    pos = _incomplete(x, content, lt, find)
                    continue
                name = dm.group().strip().lower()
                if name in ("temp", "cdata", "ignore", "include", "rcdata"):
                    em = _MS_CLOSE.search(content, lt + 3)
                elif name in ("if", "else", "endif"):
                    em = _MSO_CLOSE.search(content, lt + 3)
                else:
                    raise _FastBail
                if em is None:
                    pos = _incomplete(x, content, lt, find)
                    continue
                pos = em.end()                  # unknown_decl → no event
            elif content[lt + 2:lt + 9].lower() == "doctype":
                gt = find(">", lt)              # handle_decl → no event
                if gt < 0:
                    pos = _incomplete(x, content, lt, find)
                    continue
                pos = gt + 1
            else:                               # '<!x>' → bogus comment
                gt = find(">", lt + 2)
                if gt < 0:
                    pos = _incomplete(x, content, lt, find)
                    continue
                x.handle_comment(content[lt + 2:gt])
                pos = gt + 1
        elif nxt == "?":
            gt = find(">", lt)                  # handle_pi → no event
            if gt < 0:
                pos = _incomplete(x, content, lt, find)
                continue
            pos = gt + 1
        else:                                   # stray '<' (incl. EOF)
            x.handle_data("<")
            pos = lt + 1


def tokenized_len(text: str) -> int:
    """len of the space-joined token stream the filter writes per span
    (Filter.py:77: ``elemText += token + " "``).

    C-level counting: one ``findall`` + ``sum(map(len, ...))`` replaces the
    per-match ``finditer``/``span()`` Python loop (3× measured, and this
    runs once per span — the single largest non-stdlib cost of the parse
    hot path); the rare apostrophe tokens are then corrected through the
    same contraction expansion the tokenizer applies, so totals stay
    identical."""

    text = text.lower()
    toks = INDEX_TOKEN_PATTERN.findall(text)
    if not toks:
        return 0
    total = sum(map(len, toks)) + len(toks)
    if "'" in text:
        for t in toks:
            if "'" in t:
                total -= len(t) + 1
                for p in _EXPANSION_SPLIT.split(expand_contractions(t)):
                    if p:
                        total += len(p) + 1
    return total


FAST_PARSE = True   # differential tests flip this to compare both paths


def parse_document(content: str, url: str, encoding: str = "utf-8") -> ParsedDoc:
    """Parse one page into its interleaved span sequence."""
    extractor = _SpanExtractor(url)
    if FAST_PARSE:
        try:
            _fast_feed(extractor, content)
            extractor._flush_data()
        except Exception:
            # scanner tripped on markup it doesn't model: redo the page
            # through the stdlib parser (fresh extractor, same handlers)
            extractor = _SpanExtractor(url)
            try:
                extractor.feed(content)
                extractor.close()
            except Exception:
                pass
    else:
        try:
            extractor.feed(content)
            extractor.close()
        except Exception:
            pass  # lenient, like bs4 on broken markup

    urlpath = urlparse(url).path
    if urlpath.endswith("/") or urlpath.endswith("~"):
        urlpath = urlpath[:-1]
    htmlish = extractor.has_html or (
        ("." not in urlpath[-6:] or any(urlpath.endswith(x) for x in HTMLISH_EXTS))
        and extractor.tag_count != 0
    )

    if htmlish:
        if extractor.title is None:
            title = _basename_title(url)
        else:
            title = extractor.title.strip().split("\n")[0]
        spans = extractor.spans
    else:
        title = _basename_title(url)
        spans = [Span("", content, "")]

    # offset accumulator (Filter.py:83-88)
    file_length = 0
    for s in spans:
        s.offset = file_length
        if s.kind not in ("link", "media"):
            file_length += tokenized_len(s.text)

    return ParsedDoc(
        url=url,
        title=title,
        spans=spans,
        tag_count=extractor.tag_count,
        is_sitemap=extractor.loc_count > 0,
        is_html=htmlish,
    )


def spans_to_pylist(spans: list[Span]) -> list[dict]:
    return [
        {"kind": s.kind, "text": s.text, "media_ref": s.media_ref, "offset": s.offset}
        for s in spans
    ]
