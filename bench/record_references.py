"""Record the SHA-256 of each hecke-matrix stdout that the gate compares against.

    python3 bench/record_references.py

The CLI workloads send the same multiset of requests for every seed, so the
references cover every request of every run.  Run it only at a commit whose
output is the reference: the CLI JSON is meant to stay byte-identical.
"""

import hashlib
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import heckepoly.cli  # noqa: E402
import workloads  # noqa: E402


def main():
    requests = {r for name in ("highweight", "largeindex") for batch in workloads.generate(name, 0) for r in batch}
    references = {}
    for request in sorted(requests):
        status, out, err = workloads.run_cli(heckepoly.cli, request)
        if status != 0:
            raise SystemExit("%r failed: %s" % (request, err))
        references[request.key()] = hashlib.sha256(out.encode()).hexdigest()
    path = BENCH / "references.json"
    path.write_text(json.dumps(references, indent=0, sort_keys=True) + "\n")
    print("%d references written to %s" % (len(references), path))


if __name__ == "__main__":
    main()
