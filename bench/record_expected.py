"""Regenerate bench/expected.json: the digests the census workloads compare
their classified polys against.

    python3 bench/record_expected.py

Records the census-near digest and one digest per a for every a that a
census-far window can reach.  Run it only on a library version whose
output is trusted: the digests are a regression check, not an oracle.
"""

import json

import inputs
from worker import EXPECTED_PATH, census_lines, digest, enumeration


def main() -> None:
    near = [pair for a in range(inputs.CENSUS_NEAR_A_MIN, 1)
            for pair in enumeration.classified_polys_for_a(a)]
    lo = inputs.CENSUS_FAR_CENTER - inputs.CENSUS_FAR_JITTER
    hi = inputs.CENSUS_FAR_CENTER + inputs.CENSUS_FAR_WINDOW
    far = {str(a): digest(census_lines(enumeration.classified_polys_for_a(a)))
           for a in range(lo, hi)}
    with open(EXPECTED_PATH, "w") as fh:
        json.dump({"census-near": digest(census_lines(near)), "census-far": far},
                  fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
