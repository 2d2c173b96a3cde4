"""Sinusoidal black box served over newline-delimited JSON (stdlib only).

Serves ``f(x) = 2 cos(pi x1) cos(pi x2)`` on stdin/stdout, one request per
line:

* ``{"x": [x1, x2]}`` answers ``{"y": f(x)}``;
* ``{"xs": [[x1, x2], ...]}`` answers ``{"ys": [f(x), ...]}``, the batch
  form the HTTP adapter already speaks.

It counts the requests and points it served.  At end of input it appends
``{"requests": R, "points": P}`` as one line to the ``--counts`` file, if
given, and exits.

Run: ``python3 bench/model_child.py [--counts PATH]``
"""

import json
import math
import sys


def surface(x):
    return 2.0 * math.cos(math.pi * x[0]) * math.cos(math.pi * x[1])


def serve(stdin, stdout):
    requests = points = 0
    for line in stdin:
        doc = json.loads(line)
        if "xs" in doc:
            reply = {"ys": [surface(x) for x in doc["xs"]]}
            points += len(doc["xs"])
        else:
            reply = {"y": surface(doc["x"])}
            points += 1
        requests += 1
        stdout.write(json.dumps(reply) + "\n")
        stdout.flush()
    return requests, points


def main(argv):
    counts = argv[argv.index("--counts") + 1] if "--counts" in argv else None
    requests, points = serve(sys.stdin, sys.stdout)
    if counts:
        with open(counts, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"requests": requests, "points": points}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
