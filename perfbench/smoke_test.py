#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark at tiny scale.

    python3 perfbench/smoke_test.py

Run from the repository root (it builds harp_perfbench like run.py does).
For every workload in BENCHMARK.json it checks that:

  * an untraced and a traced run exit 0 with a passing output gate
    (correct, no failed operation);
  * every end-to-end (untraced) or per-layer (traced) metric named in
    BENCHMARK.json is emitted, with its unit, and nothing else;
  * hashes pinned from a first run are checked and pass on a second;
  * one deliberately wrong pinned hash is reported as a failed
    operation, so the gate cannot pass silently.

Exits 0 when every check holds, 1 otherwise.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SEED = 3
SECONDS = 1


def hashes(stdout):
    """The '# hash NAME HASH' report lines as {name: hash}."""
    found = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[:2] == ["#", "hash"]:
            found[parts[2]] = parts[3]
    return found


def pinned_checks(stdout):
    """The count on the '# pinned hash checks: N' report line."""
    for line in stdout.splitlines():
        if line.startswith("# pinned hash checks: "):
            return int(line.split(": ")[1])
    return 0


def main():
    run.build()
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    units = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    smoke_dir = os.path.join(run.BUILD, "smoke")
    os.makedirs(smoke_dir, exist_ok=True)
    failures = []

    def check(ok, message):
        print(("ok   " if ok else "FAIL ") + message)
        if not ok:
            failures.append(message)

    for workload in (w["name"] for w in bench["workloads"]):
        pinned = {}
        for trace in (0, 1):
            code, out = run.run_bench(workload, SEED, SECONDS, trace,
                                       scale="tiny", pinned=None)
            result = run.parse_result(out)
            label = "%s trace=%d" % (workload, trace)
            check(code == 0 and result is not None, label + ": result line")
            if result is None:
                continue
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] > 0,
                  label + ": output gate passes")
            emitted = {k: v.get("unit") for k, v in result["metrics"].items()}
            check(emitted == units[trace],
                  label + ": every named metric emitted with its unit")
            pinned.update(hashes(out))
        check(bool(pinned), workload + ": result hashes reported")
        if not pinned:
            continue

        path = os.path.join(smoke_dir, workload + "-pinned.json")
        for corrupt in (False, True):
            pins = dict(pinned)
            if corrupt:
                name = sorted(pins)[0]
                pins[name] = "%016x" % (int(pins[name], 16) ^ 1)
            with open(path, "w") as f:
                json.dump({"tiny": {str(SEED): pins}}, f)
            code, out = run.run_bench(workload, SEED, SECONDS, 0,
                                       scale="tiny", pinned=path)
            result = run.parse_result(out)
            if result is None:
                check(False, workload + ": result line with pins")
                continue
            checked = pinned_checks(out) > 0
            if corrupt:
                check(checked and result["failed"] >= 1
                      and not result["correct"],
                      workload + ": wrong pinned hash counted as failed")
            else:
                check(checked and result["failed"] == 0
                      and result["correct"],
                      workload + ": pinned hashes checked and pass")

    print("%d check(s) failed" % len(failures) if failures
          else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
