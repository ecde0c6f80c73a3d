"""Record the output digests the benchmark's correctness gate compares against.

    python3 afbench/record_digests.py [WORKLOAD ...]

Runs every job of the named workloads (default: all) once per input variant
and writes the sha256 of each output to ``afbench/digests.json``, keeping the
entries of workloads not named.  An output that fails its closed-form or
RESULT PASS check is not recorded: the script stops with an error instead.
Re-record only when a change is meant to alter the outputs.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402


def record(workload):
    table = {}
    for v in range(workloads.VARIANTS):
        entry = table[str(v)] = {}
        for job in workloads.prepare(workload, v):
            output = job.run()
            entry[job.label] = job.digest(output)
            reason = job.check(output, {workload: table})
            if reason is not None:
                raise SystemExit("%s variant %d: %s" % (workload, v, reason))
        print("%s variant %d recorded" % (workload, v), flush=True)
    return table


def main(argv):
    os.chdir(ROOT)
    names = argv or list(workloads.WORKLOADS)
    unknown = [w for w in names if w not in workloads.WORKLOADS]
    if unknown:
        raise SystemExit("unknown workloads: %s" % ", ".join(unknown))
    digests = workloads.load_digests() if os.path.exists(workloads.DIGESTS_PATH) else {}
    for workload in names:
        digests[workload] = record(workload)
        with open(workloads.DIGESTS_PATH, "w", encoding="utf-8") as fh:
            json.dump(digests, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
