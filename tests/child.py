"""Python snippets run in a child process, for tests that watch what a
whole process imports or how much memory it may map."""

import os
import subprocess
import sys
import textwrap

import isodist

SRC = os.path.dirname(os.path.dirname(isodist.__file__))

# Run before each snippet: `limit_memory(mb)` caps the child's address space
# at what it maps now plus `mb` megabytes.
PRELUDE = """\
def limit_memory(mb):
    import resource

    with open("/proc/self/status") as fh:
        kb = next(int(line.split()[1]) for line in fh if line.startswith("VmSize:"))
    resource.setrlimit(resource.RLIMIT_AS, ((kb << 10) + (mb << 20), resource.RLIM_INFINITY))
"""


def run_python(code: str, timeout: float = 120) -> subprocess.CompletedProcess:
    """Run `code` in a fresh interpreter that imports isodist from the
    sources under test, with one BLAS thread, so that its address space
    holds no thread pool; returns the finished process."""
    return subprocess.run(
        [sys.executable, "-c", PRELUDE + textwrap.dedent(code)],
        capture_output=True, text=True, timeout=timeout,
        env={**os.environ, "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": "1"},
    )
