"""Server process of the wire workloads.

Run as `python3 perfbench/wire_server.py` from the root of a checkout.  It
opens one loopback listener on a port the system picks, prints
`{"port": N}` and then reads one JSON command per line on stdin:

  {"cmd": "session", "protocol": P, "seed": S, "config": C, "op": I,
   "timeout": T}
      serve the next connection with `harness.serve_on`, then reply with
      the status, the SHA-256 of the server transcript and of its message
      list, and the party result;
  {"cmd": "trace", "on": true|false, "spans": PATH}
      install or remove the tracer; turning it off replies with the
      traced totals and the CPU seconds spent while it was on, and
      writes the spans to PATH;
  {"cmd": "stop"}
      reply with the peak resident set size and exit.

Every session of a run goes through this one process in turn.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ospsim import harness  # noqa: E402

from checks import sha256_hex  # noqa: E402


def _reply(obj):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main():
    listener = harness.open_listener("127.0.0.1", 0)
    _reply({"port": listener.getsockname()[1]})
    tracer = None
    cpu_start = 0.0
    try:
        for line in sys.stdin:
            cmd = json.loads(line)
            if cmd["cmd"] == "session":
                if tracer is not None:
                    tracer.op_id = cmd["op"]
                transcript = harness.serve_on(
                    listener, cmd["protocol"], cmd["seed"], cmd["config"],
                    timeout=cmd["timeout"])
                if tracer is not None:
                    tracer.paused = True
                _reply({"status": transcript.outcome["status"],
                        "transcript": sha256_hex(transcript.to_bytes()),
                        "messages": sha256_hex(transcript.message_bytes()),
                        "result": transcript.outcome["result"]})
                if tracer is not None:
                    tracer.paused = False
            elif cmd["cmd"] == "trace" and cmd["on"]:
                import tracer as tracing  # only traced runs load it

                tracer = tracing.Tracer()
                tracer.install()
                cpu_start = time.process_time()
                _reply({"tracing": True})
            elif cmd["cmd"] == "trace":
                cpu = time.process_time() - cpu_start
                tracer.uninstall()
                tracer.save_spans(cmd["spans"])
                _reply({"tracing": False, "cpu_s": cpu,
                        "trace": tracer.snapshot()})
                tracer = None
            elif cmd["cmd"] == "stop":
                break
            else:
                raise ValueError("unknown command %r" % (cmd,))
    finally:
        listener.close()
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    _reply({"maxrss_kb": peak})


if __name__ == "__main__":
    main()
