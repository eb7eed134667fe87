#!/usr/bin/env python
"""Protocol comparison across the application suite (a mini Figure 6).

Runs a chosen subset of the Table 3 applications under the paper's
three base systems, normalizes to the ideal machine, and renders the
same bar chart Figure 6 shows — demonstrating R-NUMA's performance
stability: it tracks whichever pure protocol is better per application.

Run:  python examples/protocol_comparison.py [scale] [app ...]
"""

import sys

from repro.experiments import compute_figure6, format_figure6


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.4
    apps = sys.argv[2:] or ["em3d", "moldyn", "barnes", "radix"]

    print(f"simulating {', '.join(apps)} at scale {scale} "
          "(3 protocols + ideal baseline each) ...\n")
    result = compute_figure6(scale=scale, apps=apps)
    print(format_figure6(result))

    print("\nReading the chart: em3d is a communication workload "
          "(CC-NUMA wins, S-COMA thrashes its page cache); moldyn's "
          "remote working set fits the page cache (S-COMA wins); "
          "barnes has a hot tree top (R-NUMA relocates it and beats "
          "both); radix streams writes over many pages (S-COMA's "
          "worst case).  R-NUMA stays at or near the best in all four.")


if __name__ == "__main__":
    main()
