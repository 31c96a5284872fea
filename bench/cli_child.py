"""Child-side timing for traced cli_cold requests.

    python -X importtime bench/cli_child.py <verb> [args...]

Behaves like `python -m gldual.cli <verb> [args...]` (same stdout, same exit
code) and writes one line to stderr with the perf_counter times around
`import gldual.cli` and `gldual.cli.main(argv)`.  perf_counter reads the
system-wide monotonic clock, so the parent can nest these times in its spans.
"""

import json
import sys
import time

MARKER = "BENCH_CLI_TIMES "

if __name__ == "__main__":
    times = {"import_start": time.perf_counter()}
    try:
        import gldual.cli

        times["main_start"] = time.perf_counter()
        code = gldual.cli.main(sys.argv[1:])
        sys.stdout.flush()
    finally:
        times["main_end"] = time.perf_counter()
        sys.stderr.write(MARKER + json.dumps(times) + "\n")
        sys.stderr.flush()
    sys.exit(code)
