#!/usr/bin/env python3
"""Sweeping whole ranges: bulk convergence checking, record statistics,
and stitching reports together."""

from collatzkit import VerifyConfig, merge_reports, verify_range


def banner(text):
    print()
    print(text)
    print("-" * len(text))


def main():
    banner("A small sweep")
    report = verify_range(VerifyConfig(1, 1000))
    print("range:", report.range)
    print("verified:", report.verified_count)
    print("unresolved:", report.unresolved)
    print("longest flight:", report.max_total_stopping_time)
    print("highest peak:", report.max_excursion)

    banner("A million numbers")
    report = verify_range(VerifyConfig(1, 10**6))
    rate = report.throughput
    print(f"verified {report.verified_count:,} starts"
          f" at {rate:,.0f} per second")
    print("stopping-time record:", report.max_total_stopping_time)
    print("excursion record:", report.max_excursion)

    banner("Resuming where a previous run stopped")
    first = verify_range(VerifyConfig(1, 500_000))
    second = verify_range(VerifyConfig(500_001, 10**6,
                                       assume_verified_below=500_001))
    merged = merge_reports(first, second)
    print("merged range:", merged.range)
    print("same records as the single sweep:",
          merged.max_total_stopping_time == report.max_total_stopping_time
          and merged.max_excursion == report.max_excursion)

    banner("Starving the budget surfaces the unresolved")
    starved = verify_range(VerifyConfig(27, 27, step_budget=5))
    print("27 with five steps:", starved.unresolved)

    banner("Reports serialize")
    print(report.to_json())
    print()
    print(report.to_csv(), end="")


if __name__ == "__main__":
    main()
