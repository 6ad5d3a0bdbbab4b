#!/usr/bin/env python3
"""Compares two sets of perfbench result records, like for like only.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds records written by perfbench (its out/results/ folder,
one JSON file per workload, seed and trace mode). Records are paired by
file name. A pair whose workload configuration or machine fingerprint
differ is refused: the comparison exits 2 and names the differing keys, so
a gate can never compare, say, a half-day run against a week-long
baseline. Otherwise it prints, per workload and metric, the median over
seeds on each side and the change, and exits 0.
"""
import json
import pathlib
import statistics
import sys


def load(directory):
    records = {}
    for path in sorted(pathlib.Path(directory).glob("*.json")):
        records[path.name] = json.loads(path.read_text())
    return records


def like_for_like(base, new):
    """Keys of config or machine on which two records differ."""
    differing = []
    for section in ("config", "machine"):
        a, b = base.get(section, {}), new.get(section, {})
        for key in sorted(set(a) | set(b)):
            if a.get(key) != b.get(key):
                differing.append(f"{section}.{key}: {a.get(key)!r} vs {b.get(key)!r}")
    return differing


def main(argv):
    if len(argv) != 3:
        sys.stderr.write(__doc__)
        return 2
    base, new = load(argv[1]), load(argv[2])
    paired = sorted(set(base) & set(new))
    if not paired:
        sys.stderr.write("compare: no records with matching names\n")
        return 2
    refused = False
    for name in paired:
        for reason in like_for_like(base[name], new[name]):
            sys.stderr.write(f"compare: {name}: {reason}\n")
            refused = True
    if refused:
        sys.stderr.write("compare: refusing to compare runs of different "
                         "configurations or machines\n")
        return 2

    groups = {}
    for name in paired:
        config = base[name]["config"]
        key = (config["workload"], config["trace"])
        for metric, entry in base[name]["metrics"].items():
            side = groups.setdefault(key, {}).setdefault(
                metric, {"unit": entry["unit"], "base": [], "new": []})
            side["base"].append(entry["value"])
            side["new"].append(new[name]["metrics"][metric]["value"])
    for (workload, trace), metrics in sorted(groups.items()):
        print(f"{workload} (trace {trace})")
        for metric, side in sorted(metrics.items()):
            b = statistics.median(side["base"])
            n = statistics.median(side["new"])
            change = (n - b) / b * 100.0 if b else float("nan")
            print(f"  {metric:44s} {b:14.6g} -> {n:14.6g} {side['unit']:6s}"
                  f" {change:+7.2f}%  (n={len(side['base'])})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
