"""Real HTTP fetcher surface (reference ``backend/crawler/utils/download.py:7-21``).

The reference fetches every page THROUGH a cache server:
``GET http://host:port/?q=<url>&u=<user_agent>`` and decodes the body into
(url, status, content) — ``make_cache_fetch_fn`` reproduces that exact
indirection.  The reference decodes CBOR; this sandbox has no cbor package,
so the wire format is JSON with the same fields (``{"url", "status",
"content"}``), with CBOR used when the package is importable.
``make_direct_fetch_fn`` is the plain-GET variant for deployments without a
cache server.

Retry discipline (round_stage.py docstring, SURVEY.md §7.5.5): a real fetch
is NOT idempotent against politeness budgets, and the reference never
retries — a non-200 response blacklists the URL (scraper.py:413-417).
Both factories therefore swallow transport errors into a synthetic 599
"no response" status and NEVER retry internally; the crawl stage that uses
them must run with ``max_retries=0`` (CrawlEngine does this automatically
when a non-synthetic fetch_spec is configured).

Both factories match the ``FetchFn`` signature
(url → (final_url, status, content)) used by the host-partition actors
(robots/sitemap fetches) and the fused round stage, and are importable by
module+name so actor construction ships no closures.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.parse
import urllib.request

try:  # pragma: no cover - cbor not present in this sandbox
    import cbor  # type: ignore

    HAVE_CBOR = True
except ImportError:
    HAVE_CBOR = False


def _decode(body: bytes) -> dict:
    if HAVE_CBOR:  # pragma: no cover
        try:
            return cbor.loads(body)
        except Exception:
            pass
    return json.loads(body.decode("utf-8"))


def make_cache_fetch_fn(server: str, user_agent: str = "spidey-ray",
                        timeout: float = 10.0):
    """Fetch through a cache server, the reference's deployment shape
    (download.py:9-12: ``requests.get(f"http://{host}:{port}/",
    params=[("q", url), ("u", user_agent)])``)."""

    def fetch_fn(url: str) -> tuple[str, int, str]:
        q = urllib.parse.urlencode([("q", url), ("u", user_agent)])
        try:
            with urllib.request.urlopen(f"{server}/?{q}", timeout=timeout) as r:
                payload = _decode(r.read())
            return (payload.get("url", url) or url,
                    int(payload.get("status", 500)),
                    payload.get("content", "") or "")
        except Exception:
            # no retry: the caller's gate blacklists non-200s
            # (download.py:16-21 error Response; scraper.py:413-417)
            return url, 599, ""

    return fetch_fn


def register_cache_server(registration_server: str,
                          user_agent: str = "spidey-ray",
                          fresh: bool = False, timeout: float = 10.0,
                          poll_interval: float = 0.5,
                          max_polls: int = 120) -> str:
    """Cache-server registration handshake — the step a reference user hits
    FIRST when deploying (``backend/crawler/utils/server_registration.py:
    5-26``): present the user agent to the registration endpoint, poll
    until a load balancer assigns a (host, port), and fail hard on an
    unacceptable user agent.  The reference speaks the spacetime dataframe
    protocol (Register row + pull_await loop); this rebuild carries the
    same state machine over plain HTTP:

        GET {registration_server}/register?u=<agent>&fresh=<0|1>
            → {"invalid": bool, "host": str|null, "port": int|null}

    polled until ``host``/``port`` are set.  Returns the cache server
    address ``http://host:port`` ready for :func:`make_cache_fetch_fn`.
    ``fresh`` mirrors ``restart or not os.path.exists(save_file)``."""
    import time

    q = urllib.parse.urlencode([("u", user_agent),
                                ("fresh", "1" if fresh else "0")])
    url = f"{registration_server}/register?{q}"
    for _ in range(max_polls):
        with urllib.request.urlopen(url, timeout=timeout) as r:
            payload = _decode(r.read())
        if payload.get("invalid"):
            # server_registration.py:15-16
            raise RuntimeError("User agent string is not acceptable.")
        if payload.get("host") and payload.get("port"):
            return f"http://{payload['host']}:{int(payload['port'])}"
        time.sleep(poll_interval)
    raise TimeoutError(
        f"no load balancer assigned after {max_polls} polls of "
        f"{registration_server}")


_REGISTERED: dict = {}


def make_registered_cache_fetch_fn(registration_server: str,
                                   user_agent: str = "spidey-ray",
                                   fresh: bool = False,
                                   timeout: float = 10.0):
    """register → fetch in one factory, importable by module+name so the
    crawl stage can construct it inside workers (fetch_spec).  Registration
    runs ONCE per process per (registration_server, user_agent) — repeat
    factory calls in the same worker reuse the assigned cache address,
    mirroring the reference's single driver-side registration."""
    key = (registration_server, user_agent)
    server = _REGISTERED.get(key)
    if server is None:
        server = _REGISTERED[key] = register_cache_server(
            registration_server, user_agent, fresh=fresh, timeout=timeout)
    return make_cache_fetch_fn(server, user_agent=user_agent, timeout=timeout)


def make_direct_fetch_fn(user_agent: str = "spidey-ray", timeout: float = 10.0):
    """Plain HTTP GET (no cache server). Redirects resolve to ``geturl()``
    — the reference's ``resp.url is final_url`` semantics."""

    def fetch_fn(url: str) -> tuple[str, int, str]:
        req = urllib.request.Request(url, headers={"User-Agent": user_agent})
        try:
            with urllib.request.urlopen(req, timeout=timeout) as r:
                return (r.geturl(), int(r.status),
                        r.read().decode("utf-8", "replace"))
        except urllib.error.HTTPError as e:
            return url, int(e.code), ""
        except Exception:
            return url, 599, ""

    return fetch_fn
