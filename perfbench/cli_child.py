"""Run one egk CLI command for the cli workload, probing the host's speed.

Usage: python perfbench/cli_child.py PROBES_OUT SPANS_OUT EGK_ARGS...

Behaves like ``python -m egk.cli EGK_ARGS...``.  The host-speed probe runs
from before ``import egk.cli`` to the command's end, and its times go to
PROBES_OUT.  Unless SPANS_OUT is ``-``, egk's functions are traced and the
spans go to SPANS_OUT.
"""

import json
import sys

from hostspeed import Probe

probe = Probe()
probe.start()

import egk.cli  # noqa: E402  (imported under the probe)


def main() -> int:
    probes_out, spans_out, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = None
    if spans_out != "-":
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        return egk.cli.main(argv)
    finally:
        probe.stop()
        if tracer:
            tracer.uninstall()
            tracer.dump(spans_out)
        with open(probes_out, "w") as f:
            json.dump(probe.times, f)


if __name__ == "__main__":
    raise SystemExit(main())
