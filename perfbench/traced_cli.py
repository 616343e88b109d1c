"""Run one trendkit command with every public function traced.

Usage: ``traced_cli.py SUMMARY_JSON COMMAND [ARGS ...]``. Times the
fresh-process ``import trendkit.cli``, runs ``trendkit.cli.main`` under a
:class:`spans.Tracer`, writes the import time and the span summary to
SUMMARY_JSON and exits with the command's exit code.
"""

import json
import sys
import time
from pathlib import Path


def main() -> int:
    out = Path(sys.argv[1])
    start = time.perf_counter()
    import trendkit.cli
    import_s = time.perf_counter() - start

    import spans  # after the timed import: it loads numpy too
    tracer = spans.Tracer().install()
    try:
        code = trendkit.cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
        out.write_text(json.dumps({"import_s": import_s, "summary": tracer.summary()}))
    return code


if __name__ == "__main__":
    sys.exit(main())
