"""One CLI invocation in a fresh interpreter, as a user would start it.

    python3 child.py MODE SPAWN_TIME RESULT_JSON SRC_DIR -- CLI_ARGS...

MODE is `plain` (untraced), `spans` (tracing.Tracer) or `count`
(tracing.Counter).  SPAWN_TIME is the CLOCK_MONOTONIC reading the parent took
just before starting this process, so `setup_s` covers interpreter start plus
`import detraceval.cli`.  `wall_s` is `cli.main(argv)` alone.
"""

import sys
import time

mode, spawned, result_path, src = sys.argv[1:5]
sys.path.insert(0, src)
import detraceval.cli as cli  # noqa: E402

ready = time.clock_gettime(time.CLOCK_MONOTONIC)

import json  # noqa: E402
import resource  # noqa: E402

import tracing  # noqa: E402

argv = sys.argv[6:]
main = cli.main
hook = None
if mode == "spans":
    hook = tracing.Tracer()
    hook.install()
    main = hook.wrap("cli.main", cli.main)
elif mode == "count":
    hook = tracing.Counter()
    hook.install()

usage0 = resource.getrusage(resource.RUSAGE_SELF)
start = time.perf_counter()
rc = main(argv)
wall = time.perf_counter() - start
usage1 = resource.getrusage(resource.RUSAGE_SELF)

result = {
    "rc": rc,
    "setup_s": ready - float(spawned),
    "wall_s": wall,
    "cpu_s": (usage1.ru_utime - usage0.ru_utime)
    + (usage1.ru_stime - usage0.ru_stime),
}
if hook is not None:
    result["functions"] = hook.summary()
    result["missing"] = hook.missing
with open(result_path, "w") as fh:
    json.dump(result, fh)
sys.exit(0 if rc == 0 else 1)
