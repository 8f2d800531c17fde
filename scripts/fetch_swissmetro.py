#!/usr/bin/env python3
"""Download the public Swissmetro stated-preference survey file into data/.

The file is distributed for academic use by EPFL's transport research group.
Requires network access; the test suite skips the survey-data checks when the
file is absent.
"""

from __future__ import annotations

import argparse
import sys
import urllib.request
from pathlib import Path

DEFAULT_URL = "http://transp-or.epfl.ch/data/swissmetro.dat"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--url", default=DEFAULT_URL, help="source URL for the survey file")
    parser.add_argument(
        "--dest",
        default=str(Path(__file__).resolve().parents[1] / "data" / "swissmetro.dat"),
        help="destination path (default: data/swissmetro.dat)",
    )
    args = parser.parse_args()

    dest = Path(args.dest)
    if dest.exists():
        print(f"already present: {dest}")
        return 0
    dest.parent.mkdir(parents=True, exist_ok=True)

    print(f"downloading {args.url} ...")
    with urllib.request.urlopen(args.url, timeout=60) as response:  # raises on an error status
        text = response.read().decode("utf-8")
    header = text.splitlines()[0] if text else ""
    if "CHOICE" not in header:
        print("error: downloaded file does not look like the survey data", file=sys.stderr)
        return 1
    dest.write_text(text, encoding="utf-8")
    print(f"saved {len(text.splitlines()) - 1} rows to {dest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
