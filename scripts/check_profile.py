#!/usr/bin/env python3
"""Check a `hextile profile` report: it must parse as JSON, and every
span that has child spans must spend at most 10% of the report's total
wall time outside its children (time no named span accounts for).

Usage: python3 scripts/check_profile.py PROFILE.json
"""
import json
import sys

LIMIT = 0.10


def main(path):
    spans = json.load(open(path))["trace"]["spans"]
    if not spans:
        sys.exit("%s: no spans" % path)
    total = max(s["start_s"] + s["dur_s"] for s in spans) - min(s["start_s"] for s in spans)
    bad = []

    def walk(s, path):
        name = path + s["name"]
        kids = s.get("children", [])
        if kids:
            self_s = s["dur_s"] - sum(c["dur_s"] for c in kids)
            if self_s > LIMIT * total:
                bad.append((name, self_s))
        for c in kids:
            walk(c, name + "/")

    for s in spans:
        walk(s, "")
    for name, self_s in bad:
        print("span %s: %.3f s of %.3f s total outside its child spans (limit %d%%)"
              % (name, self_s, total, LIMIT * 100), file=sys.stderr)
    if bad:
        sys.exit(1)
    print("profile ok: %.3f s total, every parent span within %d%% unattributed"
          % (total, LIMIT * 100))


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(sys.argv[1])
