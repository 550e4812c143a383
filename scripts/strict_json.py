#!/usr/bin/env python3
"""Usage: strict_json.py FILE...  Fail unless every FILE is strict JSON.

`python3 -m json.tool` accepts NaN, Infinity and duplicate keys; this
check rejects all three, as RFC 8259 and our own parser do.
"""
import json
import sys


def reject_constant(name):
    raise ValueError("non-finite number " + name)


def unique_keys(pairs):
    obj = dict(pairs)
    if len(obj) != len(pairs):
        raise ValueError("duplicate key in object")
    return obj


if len(sys.argv) < 2:
    sys.exit(__doc__.strip())
for path in sys.argv[1:]:
    with open(path) as f:
        try:
            json.load(f, parse_constant=reject_constant,
                      object_pairs_hook=unique_keys)
        except ValueError as e:
            sys.exit("%s: %s" % (path, e))
