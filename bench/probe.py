"""Set-up probe: a fresh interpreter from start to ready.

Imports ``anomattr.cli`` before anything else, loads the workload's CSV and
resolves its model, including the model's first answer (for a subprocess
model, starting the child and one round trip).  Prints one JSON line with
the phase times as soon as it is ready, then closes the model and exits.

Run: ``PYTHONPATH=src python3 bench/probe.py MODEL_SPEC DATA_CSV``
"""

import time

start = time.perf_counter()
import anomattr.cli as cli  # noqa: E402  (the import is what is timed)

imported = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main(spec: str, data: str) -> int:
    testset = cli.dataio.load_csv(data)
    loaded = time.perf_counter()
    model = cli.resolve_model(spec, testset.dimension)
    model.evaluate(testset.x[0])
    ready = time.perf_counter()
    print(json.dumps({
        "import_s": imported - start,
        "load_s": loaded - imported,
        "model_start_s": ready - loaded,
    }), flush=True)
    close = getattr(model, "close", None)
    if close is not None:
        close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
