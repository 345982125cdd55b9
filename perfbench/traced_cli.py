"""Run one projclust command with the layer tracer installed.

    python traced_cli.py SPANS_JSON ARG...

ARG... are the arguments of the ``projclust`` command.  The spans are kept
in memory and written to SPANS_JSON when the command returns; the exit code
is the command's.
"""

import json
import sys

import layers
import tracer


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    import projclust.cli

    t = tracer.Tracer()
    t.install("projclust", layers.TARGETS)
    try:
        code = projclust.cli.main(cli_args)
    finally:
        t.uninstall()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(t.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
