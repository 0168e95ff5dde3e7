"""Record the SHA-256 of every gallery chart's SVG and scene JSON.

    python3 vizbench/capture_digests.py

The gallery workload checks each chart against these digests, because the
gallery bytes must stay identical. Re-record them only when the output
format changes on purpose.
"""

import hashlib
import json
import sys

from run import ROOT, load_program
from workloads import Gallery


def main():
    vz = load_program()
    if vz is None:
        print(f"error: no vizscene source and gallery under {ROOT}", file=sys.stderr)
        return 2
    digests = {}
    for chart, pipeline, data in Gallery.charts(ROOT):
        _, svg, doc = Gallery.chart(vz, pipeline, data)
        digests[chart] = {"svg": hashlib.sha256(svg.encode()).hexdigest(),
                          "json": hashlib.sha256(doc.encode()).hexdigest()}
    Gallery.digests.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
