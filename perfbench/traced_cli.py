"""Run one schurbox CLI command with layer spans recorded.

    python perfbench/traced_cli.py SPANS_PATH OP_ID ARG...

behaves like ``python -m schurbox.cli ARG...`` (same stdout, stderr and exit
code) and also writes SPANS_PATH.json and SPANS_PATH.bin (see tracing.py),
with the monotonic clock read just before and just after the CLI's main.
"""

import sys
import time

from tracing import Recorder, install


def main():
    path, op_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    import schurbox.cli as cli

    rec = Recorder(op_id)
    install(rec)
    rec.marks["enter"] = time.monotonic()
    try:
        code = cli.main(argv)
    finally:
        rec.marks["return"] = time.monotonic()
        rec.dump(path)
    sys.exit(code)


if __name__ == "__main__":
    main()
