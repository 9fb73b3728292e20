"""Run the thermops CLI with span wrappers installed and write the spans.

    python3 perfbench/traced_cli.py SPANS_FILE CLI_ARGS...

The document goes to stdout exactly as `python -m thermops CLI_ARGS...`
writes it.  The recorded region starts before thermops is imported, so the
import is a span of its own.
"""

import sys
import time

import spans


def main(span_path, cli_args) -> int:
    start = time.perf_counter()
    tracer = spans.Tracer()
    with tracer.region("import"):
        import thermops.cli
    tracer.install()
    code = thermops.cli.main(cli_args)
    sys.stdout.flush()
    tracer.write(span_path, start, time.perf_counter())
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
