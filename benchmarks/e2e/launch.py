"""Run one child for the harness and report how it went.

    python -S launch.py LOG TIMEOUT ARGV...

Linux folds the peak RSS of the process that *forked* a child into the
child's ``ru_maxrss``, and the harness is big (it holds the generated
inputs as numpy arrays), so a child it spawned directly would read as
at least as large as the harness.  This launcher is a few MB: what
``os.wait4`` tells it about its child — exit code, wall time, peak RSS
of the child and the descendants the child reaped — is the program's
own.  The result is one JSON line on stdout; the child's output goes
to LOG, and a child still running after TIMEOUT seconds is killed.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main(argv):
    log_path, timeout, command = argv[0], float(argv[1]), argv[2:]
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(command, stdout=log,
                                stderr=subprocess.STDOUT,
                                stdin=subprocess.DEVNULL)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        seconds = time.perf_counter() - t0
    print(json.dumps({"returncode": os.waitstatus_to_exitcode(status),
                      "seconds": seconds, "maxrss_kb": usage.ru_maxrss}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
