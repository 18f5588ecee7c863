"""Cold-start probe: a fresh interpreter imports gssf and gssf.cli, then
finishes one warm-up operation of a workload, as a one-shot ``gssf``
call would.  Prints the split between import and first call as JSON.

Usage: python3 perfbench/setup_probe.py '<spec>', where the spec holds
either ``argv`` for ``gssf.cli.main`` or an ``instance`` (generator
config) for one ``global_delta_bounds`` call.
"""

import time

START = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> int:
    spec = json.loads(sys.argv[1])
    import gssf
    import gssf.cli

    imported = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        if "argv" in spec:
            code = gssf.cli.main(spec["argv"])
        else:
            point = gssf.random_instance(gssf.GeneratorConfig(**spec["instance"]))
            gssf.global_delta_bounds(point)
            code = 0
    done = time.perf_counter()
    print(json.dumps({"code": code, "import_s": imported - START,
                      "first_call_s": done - imported}))
    return code


if __name__ == "__main__":
    sys.exit(main())
