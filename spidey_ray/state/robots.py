"""robots.txt rules with Allow-over-Disallow precedence.

Matches the observable behavior of the reference's modified urllib
robotparser (backend/crawler/robotparser.py):
- within an applicable entry, ANY matching Allow rule wins over matching
  Disallow rules (robotparser.py:270-281 ``allowance``),
- rule paths are wildcard regexes: '*' → '.*', '$'/'^' kept as anchors,
  prefix match (robotparser.py:227-230 ``applies_to``),
- per-agent entries with '*' catch-all (robotparser.py:256-263),
- Crawl-delay parsed per entry (robotparser.py:185-193),
- Sitemap: lines collected globally (robotparser.py:205-208),
- 401/403 on fetch ⇒ disallow all; other non-200 ⇒ allow all
  (robotparser.py:66-75 semantics, applied by the caller,
  politeness.process_robots).

Fresh implementation (no stdlib subclassing) so the matching semantics are
explicit and unit-tested (FIXTURES.md §A3).
"""

from __future__ import annotations

import re
from urllib.parse import urlparse


class _Rule:
    __slots__ = ("pattern", "allowance", "raw")

    def __init__(self, path: str, allowance: bool):
        if path == "" and not allowance:
            allowance = True  # empty Disallow means allow all
        self.raw = path
        self.allowance = allowance
        pat = re.escape(path + "*").replace(r"\*", ".*").replace(r"\$", "$").replace(r"\^", "^")
        self.pattern = re.compile(pat)

    def applies_to(self, path: str) -> bool:
        return bool(self.pattern.match(path))


class _Entry:
    def __init__(self):
        self.useragents: list[str] = []
        self.rules: list[_Rule] = []
        self.delay: float | None = None

    def applies_to(self, useragent: str) -> bool:
        useragent = useragent.split("/")[0].lower()
        for agent in self.useragents:
            if agent == "*" or agent.lower() in useragent:
                return True
        return False

    def allowance(self, path: str) -> bool:
        was_disallowed = False
        for rule in self.rules:
            if rule.applies_to(path):
                if rule.allowance:
                    return True  # Allow wins (robotparser.py:270-281)
                was_disallowed = True
        return not was_disallowed


class RobotsRules:
    """Parsed robots.txt for one host."""

    def __init__(self):
        self.entries: list[_Entry] = []
        self.default_entry: _Entry | None = None
        self.sitemaps: list[str] = []

    @classmethod
    def parse(cls, lines_or_text: "str | list[str]") -> "RobotsRules":
        self = cls()
        lines = (
            lines_or_text.splitlines()
            if isinstance(lines_or_text, str)
            else lines_or_text
        )
        entry = _Entry()
        state = 0  # 0: expecting user-agent, 1: saw user-agent, 2: saw rules
        for line in lines:
            i = line.find("#")
            if i >= 0:
                line = line[:i]
            line = line.strip()
            if not line:
                if state == 1:
                    entry = _Entry()
                    state = 0
                elif state == 2:
                    self._add_entry(entry)
                    entry = _Entry()
                    state = 0
                continue
            parts = line.split(":", 1)
            if len(parts) != 2:
                continue
            key, val = parts[0].strip().lower(), parts[1].strip()
            if key == "user-agent":
                if state == 2:
                    self._add_entry(entry)
                    entry = _Entry()
                entry.useragents.append(val)
                state = 1
            elif key in ("allow", "disallow"):
                if state != 0:
                    entry.rules.append(_Rule(val, key == "allow"))
                    state = 2
            elif key == "crawl-delay":
                if state != 0:
                    try:
                        entry.delay = float(val)
                    except ValueError:
                        pass
                    state = 2
            elif key == "sitemap":
                self.sitemaps.append(val)
        if state == 2:
            self._add_entry(entry)
        return self

    def _add_entry(self, entry: _Entry) -> None:
        if "*" in entry.useragents:
            if self.default_entry is None:
                self.default_entry = entry
        else:
            self.entries.append(entry)

    def can_fetch(self, useragent: str, url: str) -> bool:
        parsed = urlparse(url)
        path = parsed.path or "/"
        if parsed.query:
            path = f"{path}?{parsed.query}"
        for entry in self.entries:
            if entry.applies_to(useragent):
                return entry.allowance(path)
        if self.default_entry:
            return self.default_entry.allowance(path)
        return True

    def crawl_delay(self, useragent: str) -> float | None:
        for entry in self.entries:
            if entry.applies_to(useragent):
                return entry.delay
        if self.default_entry:
            return self.default_entry.delay
        return None

    def site_maps(self) -> list[str]:
        return self.sitemaps
