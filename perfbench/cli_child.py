"""Fresh-interpreter probe: import costs, then optionally one CLI command.

    python3 perfbench/cli_child.py [bellmix CLI arguments...]

Times `import numpy`, then `import bellmix.cli`, then either
`bellmix.cli.main(arguments)` or, without arguments, the first
standard_projector_set() call. Prints one JSON line of seconds and exits with the
command's exit code. PYTHONPATH must name the program's src directory.
"""

import time

_t0 = time.perf_counter()
import numpy  # noqa: E402,F401

_t1 = time.perf_counter()
import bellmix.cli  # noqa: E402

_t2 = time.perf_counter()
import json  # noqa: E402
import sys  # noqa: E402

result = {"import_numpy_s": _t1 - _t0, "import_bellmix_s": _t2 - _t1}
code = 0
if len(sys.argv) > 1:
    code = bellmix.cli.main(sys.argv[1:])
    result["main_s"] = time.perf_counter() - _t2
else:
    from bellmix.optics import standard_projector_set

    _t3 = time.perf_counter()
    standard_projector_set()
    result["projector_set_first_call_s"] = time.perf_counter() - _t3
print(json.dumps(result))
sys.exit(code)
