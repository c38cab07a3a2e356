"""Fresh-process entry for traced commands.

Usage: python perfbench/child.py OUT.json [minecc arguments...]

Times ``import minecc.cli``, installs the span recorder, runs
``minecc.cli.main`` on the remaining arguments (none: import only) and writes
the import time and the spans to OUT.json. Exits with the command's code.
"""

import json
import sys
import time


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import minecc.cli
    import_s = time.perf_counter() - t0

    import spans

    recorder = spans.Recorder()
    code = 0
    try:
        if argv:
            recorder.install()
            code = minecc.cli.main(argv)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "spans": spans.to_rows(recorder.spans)}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
