"""Crash-consistency: a crawl SIGKILLed mid-flight (no cleanup, no atexit)
must resume from its last complete round checkpoint and converge to the
exact same result as an uninterrupted run — the per-round manifest's
atomicity claim under a real abrupt death, not a cooperative stop."""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from spidey_ray.pipelines.crawl import _complete_rounds

_TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "tools", "run_crawl.py")
_ARGS = ["--hosts", "16", "--pages", "12", "--seeds", "8",
         "--cpus", "4", "--seen-shards", "2", "--host-shards", "2"]


def _spawn(ckpt, extra=()):
    # new session → killing the process GROUP also takes down the child's
    # own local Ray processes without touching this pytest session's Ray
    return subprocess.Popen(
        [sys.executable, _TOOL, "--ckpt", ckpt, *_ARGS, *extra],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, start_new_session=True)


def _run(ckpt, extra=()):
    p = _spawn(ckpt, extra)
    out, _ = p.communicate(timeout=300)
    assert p.returncode == 0, out
    return json.loads(out.strip().splitlines()[-1])


def test_sigkill_mid_crawl_then_resume_equals_fresh(tmp_path):
    ck = str(tmp_path / "ck")
    victim = _spawn(ck, ("--restart",))
    try:
        # wait until at least two rounds are durably checkpointed, then
        # kill the whole process group with SIGKILL (mid-round, wherever
        # execution happens to be)
        deadline = time.time() + 240
        while time.time() < deadline:
            if len(_complete_rounds(ck)) >= 2:
                break
            if victim.poll() is not None:
                pytest.fail("victim finished before it could be killed; "
                            "enlarge the web")
            time.sleep(0.05)
        else:
            pytest.fail("no complete round checkpoint appeared in time")
        os.killpg(victim.pid, signal.SIGKILL)
    finally:
        try:
            victim.kill()
        except ProcessLookupError:
            pass
        victim.wait(timeout=30)

    resumed = _run(ck)                       # no --restart → resume
    fresh = _run(str(tmp_path / "fresh"), ("--restart",))
    for k in ("urls_fetched", "rounds", "unique_pages", "top_tokens",
              "host_counts"):
        assert resumed[k] == fresh[k], k
