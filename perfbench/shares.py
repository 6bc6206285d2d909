"""Per-layer self-time shares of a traced run, for ops whose label matches.

    python3 perfbench/shares.py .bench_build/perfbench/cold-build-seed1.spans.jsonl Rocket3
    python3 perfbench/shares.py .bench_build/perfbench/warm-query-seed1.spans.jsonl "/eval "

A span's self time is its duration minus that of the spans whose parent it
is; shares are of the summed self time of every layer span under the
matching ops (the op root spans themselves are not layers).
"""
import json
import sys
from collections import defaultdict


def main(path, label):
    spans = [json.loads(line) for line in open(path)]
    ops = {s["op"] for s in spans if s["parent"] < 0 and label in s.get("label", "")}
    self_ns = defaultdict(int)
    for s in spans:
        if s["op"] not in ops or s["parent"] < 0:
            continue
        d = s["end_ns"] - s["start_ns"]
        self_ns[s["name"]] += d
        parent = spans[s["parent"]]
        if parent["parent"] >= 0:
            self_ns[parent["name"]] -= d
    total = sum(self_ns.values())
    print(f"{len(ops)} ops labelled {label!r}; layer self time {total / 1e6 / max(1, len(ops)):.3f} ms/op")
    for name, ns in sorted(self_ns.items(), key=lambda kv: -kv[1]):
        print(f"  {name:22s} {ns / 1e6 / max(1, len(ops)):9.3f} ms/op  {100 * ns / total:5.1f}%")


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2] if len(sys.argv) > 2 else "")
