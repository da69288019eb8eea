"""Traced CLI launcher: ``python launcher.py OUT.json <rho-moments args>``.

Times ``import rho_moments.cli``, wraps every layer's public functions, runs
``rho_moments.cli.main`` on the remaining arguments and, on exit, writes the
spans, counters and Murnaghan-Nakayama cache statistics to OUT.json. The exit
status is the CLI's own.
"""

from __future__ import annotations

import json
import sys

import common  # pins BLAS threads before numpy loads
import spans


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    common.require_program()
    recorder = spans.Recorder()
    with recorder.span("cli.import"):
        import rho_moments.cli
    from rho_moments import characters

    code = 0
    with spans.installed(recorder), recorder.span("cli.command"):
        try:
            rho_moments.cli.main.main(args=argv, prog_name="rho-moments")
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    info = characters._mn_character.cache_info()
    span_list, counts = recorder.take()
    doc = {"spans": span_list, "counts": counts, "mn_cache": [info.hits, info.misses]}
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
