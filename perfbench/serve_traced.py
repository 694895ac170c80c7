"""``repro lab serve`` with the span wrappers installed.

Usage: python3 perfbench/serve_traced.py SPANS lab serve [options...]

Installs :mod:`tracer` in this process, then runs the ordinary CLI.
When the server has drained and returned, spans and counters go to
the SPANS file.  Pool workers fork from this
process; what runs inside them is not traced and shows up as the
parent's ``lab.backend`` time.
"""

import sys

import tracer


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    recorder = tracer.Recorder()
    tracer.install(recorder)
    import repro.cli

    status = repro.cli.main(cli_args)
    recorder.dump(spans_path)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
