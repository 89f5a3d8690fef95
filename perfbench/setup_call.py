"""One CLI call in a fresh interpreter, for the set-up time metric.

    python3 perfbench/setup_call.py ARGV_JSON_FILE

Imports nothing but what `srsurf` itself imports, runs the call with stdout
captured, and prints one JSON line: the exit code, the CLOCK_MONOTONIC time
at which the call ended, and the captured output.
"""

import contextlib
import io
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from srsurf.cli import main  # noqa: E402

with open(sys.argv[1]) as fh:
    argv = json.load(fh)
buf = io.StringIO()
with contextlib.redirect_stdout(buf):
    code = main(argv)
end = time.clock_gettime(time.CLOCK_MONOTONIC)
print(json.dumps({"exit": code, "end": end, "output": buf.getvalue()}))
