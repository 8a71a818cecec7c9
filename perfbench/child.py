"""One workload repetition in a fresh interpreter.

    python3 child.py SPAWNED_AT SRC_DIR RESULT_JSON MODE -- CLI_ARGS...

MODE is ``setup`` (import and parse only), ``plain`` or ``traced``.
SPAWNED_AT is the parent's ``time.monotonic()`` just before it started this
process; on Linux that clock is shared by all processes, so setup time runs
from then until ``cli.main`` is called.  Set-up is the import of
``dirichlet_rwa.cli`` plus parsing the arguments and, for ``run``, loading
the config (``main`` parses both again, which costs well under a
millisecond).  The result is one JSON object written to RESULT_JSON; a
crash leaves no result, which the parent treats as a structural failure.
"""
from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def main() -> None:
    spawned_at, src, result_path, mode = sys.argv[1:5]
    argv = sys.argv[6:]
    sys.path.insert(0, src)
    import dirichlet_rwa
    from dirichlet_rwa import cli

    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"dirichlet_rwa imported from {cli.__file__}, not {src}")
    args = cli.build_parser().parse_args(argv)
    if args.command == "run":
        cli.load_config(args.config)
    tracer = None
    if mode == "traced":
        from layers import Tracer

        tracer = Tracer()
        tracer.install(dirichlet_rwa)
    t0 = time.monotonic()
    result = {"setup_s": t0 - float(spawned_at)}
    if mode != "setup":
        c0 = time.process_time()
        code = cli.main(argv)
        t1 = time.monotonic()
        result.update(
            exit_code=code,
            wall_s=t1 - t0,
            cpu_s=time.process_time() - c0,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        if tracer is not None:
            result["spans"] = tracer.spans
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
