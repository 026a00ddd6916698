"""`python -m hookforge`: run the CLI and leave without interpreter teardown.

Once `main()` has returned, every report is written (an `--out` file is
closed by `cli.run`, and the workers are reaped), so the process flushes its
standard streams and ends with `os._exit`, skipping the teardown of every
module the interpreter loaded.  A usage error (argparse's `SystemExit`), an
exception from `main()`, or a flush that raises takes the normal exit path,
which reports it.
"""

import os
import sys

from .cli import main

status = main()
try:
    sys.stdout.flush()
    sys.stderr.flush()
except (OSError, ValueError):
    sys.exit(status)
os._exit(status)
