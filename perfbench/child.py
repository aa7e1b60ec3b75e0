"""One fresh `qwave` process, as a command-line user starts it.

    python3 child.py SRC_DIR --setup-only
    python3 child.py SRC_DIR --trace|--untraced -- QWAVE_ARGS...

The parent takes the time before it spawns this process; `READY`, taken
right after `import qwave.cli`, closes set-up and opens the command.  The last
stdout line is `PERFBENCH {json}` with the command's wall and CPU time and
this process's peak RSS, plus per-layer figures with `--trace`.
"""

import sys
import time

import qwave.cli

READY = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402


def main(argv: list[str]) -> int:
    src = Path(argv[0]).resolve()
    if Path(qwave.cli.__file__).resolve().parent.parent != src:
        print(f"qwave was imported from {qwave.cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    record = {"ready": READY}
    if argv[1] != "--setup-only":
        trace = argv[1] == "--trace"
        cli_args = argv[argv.index("--") + 1:]
        tracer = None
        if trace:
            import tracing

            tracer = tracing.install()
        before = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        code = qwave.cli.main(cli_args)
        wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_SELF)
        if code != 0:
            return code
        record.update(
            wall_s=wall,
            cpu_s=(after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime),
            peak_rss_mb=after.ru_maxrss / 1024.0,
        )
        if tracer is not None:
            record["layers"] = tracer.metrics(wall)
    print("PERFBENCH " + json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
