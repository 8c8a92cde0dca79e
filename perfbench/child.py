"""Child process of the benchmark; run with ``src`` on PYTHONPATH.

    child.py setup WORKLOAD OUT_DIR D   import freejacobi and run the
                                        workload's warm-up ops (the set-up
                                        the parent times)
    child.py trace SPANS_OUT -- ARGV    one traced ``freejacobi ARGV``: the
                                        spans go to SPANS_OUT as JSON

``freejacobi.cli`` is imported before anything else of the benchmark, so a
traced child imports the package as ``python -m freejacobi.cli`` does.
"""

import sys

from freejacobi import cli


def main():
    mode = sys.argv[1]
    if mode == "setup":
        import contextlib
        import io

        import workloads

        workload, out_dir, d = sys.argv[2], sys.argv[3], int(sys.argv[4])
        for op in workloads.warmup_ops(workload, out_dir, d):
            for call in op:
                with contextlib.redirect_stdout(io.StringIO()):
                    cli.main(call["argv"])
        return 0
    if mode == "trace":
        import json

        import tracer

        spans_out, argv = sys.argv[2], sys.argv[4:]
        tr = tracer.Tracer()
        tracer.install(tr)
        tr.op = 0
        try:
            with tr.span("op", "op"):
                code = cli.main(argv)
        finally:
            sys.stdout.flush()
            with open(spans_out, "w") as fh:
                json.dump(tr.export(), fh)
        return code
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main())
