"""Run one hermdens command line with the tracer installed, then write its spans.

    python3 perfbench/launch.py SPANS_FILE [hermdens arguments...]

Stdout and the exit code are those of ``python -m hermdens.cli`` with the
same arguments; the spans go to SPANS_FILE.
"""

import sys

from tracer import Tracer


def main() -> None:
    out, args = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    import hermdens.cli

    try:
        hermdens.cli.main(args=args, prog_name="python -m hermdens.cli")
    finally:
        tracer.dump(out)


if __name__ == "__main__":
    main()
