"""Run one padicq CLI command under the tracer.

    python bench/launch.py --trace span|count --trace-out FILE -- ARGV...

Equivalent to ``python -m padicq ARGV...`` except that the timing or
counting wrappers are installed first and the aggregates are written to
FILE when the command returns.  Nothing is imported before padicq, so the
recorded import time is the package's own.
"""

import sys
import time


def main() -> int:
    args = sys.argv[1:]
    if len(args) < 5 or args[0] != "--trace" or args[2] != "--trace-out" or args[4] != "--":
        sys.stderr.write(__doc__)
        return 4
    mode, out, argv = args[1], args[3], args[5:]

    t0 = time.perf_counter()
    import padicq.cli
    import_s = time.perf_counter() - t0

    import tracer

    rec = tracer.install(mode)
    rec.extra["import_s"] = import_s
    try:
        return padicq.cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(rec, out)


if __name__ == "__main__":
    sys.exit(main())
