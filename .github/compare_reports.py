"""Compare two directories of JSON reports, each report without its timing.

    python .github/compare_reports.py DIR_A DIR_B

Prints the number of reports in each directory and exits 0 only if both
hold reports and the two sets are equal, file name by file name.
"""
import json
import pathlib
import sys


def reports(out):
    found = {}
    for path in sorted(pathlib.Path(out).glob("*.json")):
        report = json.loads(path.read_text())
        report.pop("timing")
        found[path.name] = report
    return found


a, b = sys.argv[1:]
one, two = reports(a), reports(b)
print(f"{len(one)} reports in {a}, {len(two)} in {b}")
sys.exit(0 if one and one == two else 1)
