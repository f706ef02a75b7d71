#!/usr/bin/env python3
"""Compare the facts of the golden wire files between a git revision and the working tree.

    python3 scripts/golden_facts.py <rev>

A change that makes the solver find other, equally good designs rewrites
tests/golden/ (the designs and the solver counters differ), but it must not
change what any answer says. This script reads every file of tests/golden/
at <rev> (with `git show`) and in the working tree, and compares only these
fields, wherever they occur in the JSON: verdict, feasible, objective_costs,
conflicting_rules, unknown_names, stop_reason, timed_out, plus each file's
HTTP status line. For a list of rules it prints which rules were dropped or
added. Exit status is 0 when every fact is equal, 1 otherwise.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = "tests/golden"
FIELDS = {"verdict", "feasible", "objective_costs", "conflicting_rules",
          "unknown_names", "stop_reason", "timed_out"}


def facts(text):
    """Maps each path of a fact field in one golden file to its value."""
    out = {}
    if text.startswith("HTTP "):
        status, _, text = text.partition("\n")
        out["status"] = status

    def walk(value, path):
        if isinstance(value, dict):
            for key, child in value.items():
                where = f"{path}.{key}" if path else key
                if key in FIELDS:
                    out[where] = child
                else:
                    walk(child, where)
        elif isinstance(value, list):
            for i, child in enumerate(value):
                walk(child, f"{path}[{i}]")

    walk(json.loads(text), "")
    return out


def describe(path, old, new):
    if isinstance(old, list) and isinstance(new, list) and \
            all(isinstance(x, str) for x in old + new):
        dropped = [x for x in old if x not in new]
        added = [x for x in new if x not in old]
        lines = [f"  {path}: {len(old)} -> {len(new)} entries"
                 f" ({len(dropped)} dropped, {len(added)} added)"]
        lines += [f"    - {x}" for x in dropped] + [f"    + {x}" for x in added]
        return "\n".join(lines)
    return f"  {path}: {json.dumps(old)} -> {json.dumps(new)}"


def main():
    if len(sys.argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    rev = sys.argv[1]
    listing = subprocess.run(["git", "ls-tree", "--name-only", f"{rev}:{GOLDEN}"],
                             cwd=ROOT, check=True, capture_output=True, text=True)
    names = sorted(set(listing.stdout.split()) |
                   {p.name for p in (ROOT / GOLDEN).iterdir()})
    differing = 0
    for name in names:
        if not name.endswith(".txt"):
            continue  # inputs, not answers
        path = ROOT / GOLDEN / name
        old = subprocess.run(["git", "show", f"{rev}:{GOLDEN}/{name}"], cwd=ROOT,
                             capture_output=True, text=True)
        if old.returncode != 0 or not path.exists():
            print(f"{name}: only in {'the working tree' if old.returncode else rev}")
            differing += 1
            continue
        before, after = facts(old.stdout), facts(path.read_text())
        diffs = [describe(k, before.get(k), after.get(k))
                 for k in sorted(before.keys() | after.keys())
                 if before.get(k) != after.get(k)]
        print(f"{name}: {'same facts' if not diffs else f'{len(diffs)} facts differ'}")
        for line in diffs:
            print(line)
        differing += bool(diffs)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
