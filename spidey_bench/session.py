"""The benchmark's local Ray session, owned from start to certain end.

- Workers import ``spidey_ray`` from the repository root wherever this
  script lives: the root goes on ``PYTHONPATH`` before ``ray.init``, and the
  raylet hands that environment to every worker it starts.
- Ray's own output never reaches the result line: file descriptor 1 is
  pointed at stderr for the whole run (Ray's daemons inherit it), and the
  result is written to a saved copy of the real stdout.
- The session is shut down on every exit path (return, exception, SIGTERM,
  SIGINT), and every process the session started is waited for, and
  killed if it outlives the shutdown grace period.  Those processes are
  found by an environment variable set before ``ray.init`` (every Ray
  process inherits it), because a worker whose raylet died is reparented
  away from this process and renames itself ``ray::IDLE``.
"""

from __future__ import annotations

import os
import shutil
import signal
import sys
import time
import uuid

NUM_CPUS = 4
OBJECT_STORE_BYTES = 768 * 1024 * 1024
# AF_UNIX socket paths are capped at 107 bytes; Ray appends about 62
# characters (session_<date>_<pid>/sockets/plasma_store) to its temp dir
_MAX_TEMP_DIR_LEN = 44


class _Interrupted(BaseException):
    """Raised from the SIGTERM handler so ``finally`` blocks run."""


def _raise_interrupted(signum, _frame):
    raise _Interrupted(f"signal {signum}")


_TOKEN_VAR = "SPIDEY_BENCH_SESSION"


def _marked(token: str) -> dict[int, str]:
    """pid → state of every live process whose environment carries
    ``token`` (this process excluded)."""
    needle = f"{_TOKEN_VAR}={token}".encode()
    out = {}
    for d in os.listdir("/proc"):
        if not d.isdigit() or int(d) == os.getpid():
            continue
        try:
            with open(f"/proc/{d}/environ", "rb") as f:
                if needle not in f.read().split(b"\0"):
                    continue
            with open(f"/proc/{d}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        out[int(d)] = stat[stat.rfind(")") + 2:].split()[0]
    return out


class RaySession:
    """``with RaySession(root, temp_dir) as s:`` — a 4-CPU local session
    whose daemons keep their files under ``temp_dir`` when its path is short
    enough for Ray's sockets (Ray's default temp dir otherwise)."""

    def __init__(self, root: str, temp_dir: str):
        self.root = root
        self.temp_dir = (os.path.abspath(temp_dir)
                         if len(os.path.abspath(temp_dir)) <= _MAX_TEMP_DIR_LEN
                         else None)
        self._session_dir: str | None = None
        self.result_fd: int | None = None
        self._old_handlers: dict = {}
        self._token = f"{os.getpid()}-{uuid.uuid4().hex}"

    # -- stdout --------------------------------------------------------
    def _divert_stdout(self) -> None:
        sys.stdout.flush()
        self.result_fd = os.dup(1)
        os.dup2(2, 1)

    def write_result(self, line: str) -> None:
        os.write(self.result_fd, (line + "\n").encode())

    # -- lifetime ------------------------------------------------------
    def __enter__(self) -> "RaySession":
        self._divert_stdout()
        for sig in (signal.SIGTERM, signal.SIGINT):
            self._old_handlers[sig] = signal.signal(sig, _raise_interrupted)
        try:
            self._start()
            # ray.init installs its own fatal-signal handler for SIGTERM,
            # which would end the process with the session still up
            for sig in self._old_handlers:
                signal.signal(sig, _raise_interrupted)
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def _start(self) -> None:
        os.environ["PYTHONPATH"] = os.pathsep.join(
            p for p in (self.root, os.environ.get("PYTHONPATH")) if p)
        os.environ[_TOKEN_VAR] = self._token
        import logging

        import ray

        kw = dict(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
                  logging_level="ERROR", log_to_driver=False,
                  object_store_memory=OBJECT_STORE_BYTES)
        if self.temp_dir:
            os.makedirs(self.temp_dir, exist_ok=True)
            kw["_temp_dir"] = self.temp_dir
        ray.init(**kw)
        if self.temp_dir:
            from ray._private.worker import _global_node

            self._session_dir = _global_node.get_session_dir_path()
        import ray.data

        ctx = ray.data.DataContext.get_current()
        ctx.enable_progress_bars = False
        logging.getLogger("ray.data").setLevel(logging.ERROR)
        logging.getLogger("ray").setLevel(logging.ERROR)

    def __exit__(self, *exc) -> None:
        # a second signal during teardown must not abort the teardown
        for sig in self._old_handlers:
            signal.signal(sig, signal.SIG_IGN)
        try:
            import ray

            if ray.is_initialized():
                ray.shutdown()
        finally:
            self._reap()
            if self._session_dir:
                shutil.rmtree(self._session_dir, ignore_errors=True)
            for sig, h in self._old_handlers.items():
                signal.signal(sig, h)

    def _alive(self) -> set[int]:
        marked = _marked(self._token)
        for pid in marked:
            try:   # collect our own exited children
                os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                pass
        return {p for p, state in _marked(self._token).items()
                if state not in ("Z", "X")}

    def _reap(self, grace_s: float = 15.0) -> None:
        deadline = time.monotonic() + grace_s
        alive = self._alive()
        while alive and time.monotonic() < deadline:
            time.sleep(0.1)
            alive = self._alive()
        for pid in alive:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + 5.0
        while alive and time.monotonic() < deadline:
            time.sleep(0.05)
            alive = self._alive()
        if alive:
            raise RuntimeError(f"Ray processes still alive after kill: {sorted(alive)}")
