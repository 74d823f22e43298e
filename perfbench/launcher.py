"""Starts the cli workload's child processes, one at a time.

Each line on stdin is a JSON object {"argv": [...], "stdout": path,
"stderr": path}; the launcher runs that command with the two streams sent
to the files, waits for it and answers with one JSON line
[exit code, peak RSS in KB].

Linux carries the peak RSS of a parent's memory into a child's
``ru_maxrss`` across fork and exec.  The workload process grows while it
checks outputs in process, so children are started from this small
process instead, which keeps each child's reported peak its own.
"""

import json
import os
import sys


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        out = os.open(request["stdout"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        err = os.open(request["stderr"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        try:
            pid = os.posix_spawn(request["argv"][0], request["argv"], os.environ,
                                 file_actions=[(os.POSIX_SPAWN_DUP2, out, 1),
                                               (os.POSIX_SPAWN_DUP2, err, 2)])
            _, status, usage = os.wait4(pid, 0)
        finally:
            os.close(out)
            os.close(err)
        print(json.dumps([os.waitstatus_to_exitcode(status), usage.ru_maxrss]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
