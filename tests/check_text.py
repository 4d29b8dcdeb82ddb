"""Check the CLI's text, read from stdin, against Python's own formatting.

    omrouter spectrum | python tests/check_text.py csv
    omrouter spectrum --format json | python tests/check_text.py json

csv: every field after the header line equals format(float(field),
".12e").  json: the text equals json.dumps(json.loads(text), indent=2)
plus a newline, so every float is the text json.dumps gives it.  Exits 1
with the first field or line that differs, so it checks the text that
``textout`` forms on whatever numpy is installed.
"""

import json
import sys


def _csv_difference(text):
    lines = text.splitlines()
    if len(lines) < 2:
        return "no csv rows"
    for number, line in enumerate(lines[1:], 2):
        for field in line.split(","):
            if field != format(float(field), ".12e"):
                return f"line {number}: {field!r} is not %.12e"
    return None


def _json_difference(text):
    want = json.dumps(json.loads(text), indent=2) + "\n"
    if text == want:
        return None
    for number, (got, line) in enumerate(
            zip(text.splitlines(), want.splitlines()), 1):
        if got != line:
            return f"line {number}: {got!r} where json.dumps gives {line!r}"
    return "the text and json.dumps differ in length"


def main(argv):
    check = {"csv": _csv_difference, "json": _json_difference}[argv[1]]
    difference = check(sys.stdin.read())
    if difference:
        print(f"{argv[1]} text differs: {difference}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
