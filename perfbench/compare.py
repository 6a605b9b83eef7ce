"""Compare two sets of benchmark records written by run.py.

    python3 perfbench/compare.py --base .perfbench_out/A*.json --new .perfbench_out/B*.json

Prints, per workload and metric, each side's median and quartiles and the
change of the medians, with the bound from BENCHMARK.json for end-to-end
metrics. Refuses (exit code 2) to compare records whose kernel backends
differ: the numba and numpy paths are different programs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(paths) -> dict[str, dict[str, list[float]]]:
    """values[workload][metric] over the given records."""
    values: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    for path in paths:
        record = json.loads(Path(path).read_text())
        for name, entry in record["metrics"].items():
            values[record["workload"]][name].append(entry["value"])
    return values


def backends(paths) -> set[str]:
    return {json.loads(Path(p).read_text())["env"]["backend"] for p in paths}


def summary(xs: list[float]) -> str:
    if len(xs) < 2:
        return f"{xs[0]:.4g}"
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return f"{q2:.4g} [{q1:.4g}, {q3:.4g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    found = backends(args.base) | backends(args.new)
    if len(found) != 1:
        print(f"refusing to compare: records come from backends {sorted(found)}",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    base, new = load(args.base), load(args.new)
    print("workload\tmetric\tbase median [q1, q3]\tnew median [q1, q3]\tchange\tbound")
    for workload in sorted(base.keys() & new.keys()):
        for name in sorted(base[workload].keys() & new[workload].keys()):
            b, n = base[workload][name], new[workload][name]
            mb, mn = statistics.median(b), statistics.median(n)
            change = f"{mn / mb - 1.0:+.3f}" if mb else "n/a"
            print(f"{workload}\t{name}\t{summary(b)}\t{summary(n)}\t{change}\t"
                  f"{bounds.get(name, '')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
