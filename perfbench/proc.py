"""Child processes that are always waited for."""

from __future__ import annotations

import os
import signal
import subprocess
import threading


def run_child(cmd: list[str], out, timeout: float, *, env: dict | None = None,
              session: bool = False) -> tuple[int, int]:
    """Run ``cmd`` to completion; (exit code, peak RSS in bytes from ``os.wait4``).

    Standard output and error go to ``out``.  A child still running after
    ``timeout`` seconds is killed and then waited for.  With ``session`` the
    child leads a new session, and the kill, as well as a sweep once the
    child has exited, reaches every process left in it.
    """
    proc = subprocess.Popen(cmd, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=out,
                            start_new_session=session)

    def kill() -> None:
        try:
            if session:
                os.killpg(proc.pid, signal.SIGKILL)
            else:
                proc.kill()
        except ProcessLookupError:
            pass

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if session:
        kill()
    return proc.returncode, usage.ru_maxrss * 1024
