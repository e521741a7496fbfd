"""Print the DIGESTS table of tests/test_output_digests.py for the code as it is.

Run from the repository root:

    PYTHONPATH=src python tests/capture_digests.py

and paste the printed dict over DIGESTS when a change moves an output on
purpose; the diff then shows which digests moved.
"""

from __future__ import annotations

import json

from test_output_digests import CASES, digests


def main() -> None:
    print("DIGESTS = {")
    for case in CASES:
        print(f"    {json.dumps(case)}: {{")
        for name, digest in digests(case).items():
            print(f"        {json.dumps(name)}: {json.dumps(digest)},")
        print("    },")
    print("}")


if __name__ == "__main__":
    main()
