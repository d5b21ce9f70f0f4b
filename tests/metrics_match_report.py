#!/usr/bin/env python3
"""Checks that vodrep_plan's --metrics-out file agrees with its run report.

Runs one three-epoch online replay that writes both files, then asserts:

  * sim.requests, sim.rejected and every sim.rejected.<reason> equal the
    report's final.total_requests, rejections.total and
    rejections.by_reason;
  * sim.mean_imbalance_eq2 and sim.mean_utilization equal the report's
    final values exactly: both are means over all three epochs, not the
    last epoch's;
  * online.replans counts the three epochs' replans;
  * the trace recorder's health counters are present.

usage: metrics_match_report.py VODREP_PLAN OUTPUT_DIR
"""
import json
import os
import subprocess
import sys

EPOCHS = 3


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    plan, out_dir = argv[1], argv[2]
    metrics_path = os.path.join(out_dir, "metrics_match_report.metrics.json")
    report_path = os.path.join(out_dir, "metrics_match_report.report.json")
    subprocess.run(
        [plan, "--videos=200", "--servers=8", "--degree=1.2",
         "--duration-min=30", "--online-epochs=%d" % EPOCHS,
         "--report-out=" + report_path, "--metrics-out=" + metrics_path],
        check=True, stdout=subprocess.DEVNULL)
    with open(metrics_path) as f:
        metrics = json.load(f)
    with open(report_path) as f:
        report = json.load(f)
    counters = metrics["counters"]
    gauges = metrics["gauges"]
    final = report["final"]
    rejections = report["rejections"]

    expected = [
        (counters, "sim.requests", final["total_requests"]),
        (counters, "sim.rejected", rejections["total"]),
        (gauges, "sim.mean_imbalance_eq2", final["mean_imbalance_eq2"]),
        (gauges, "sim.mean_utilization", final["mean_utilization"]),
        (counters, "online.replans", EPOCHS),
    ]
    for reason, count in rejections["by_reason"].items():
        expected.append((counters, "sim.rejected." + reason, count))
    failures = []
    for section, name, want in expected:
        got = section.get(name)
        if got != want:
            failures.append("%s: metrics file %r, expected %r" %
                            (name, got, want))
    for name in ("trace.events_recorded", "trace.events_dropped"):
        if name not in counters:
            failures.append("%s: missing from the metrics file" % name)
    for failure in failures:
        print("FAIL", failure)
    if failures:
        return 1
    print("metrics agree with the run report: %d requests, %d rejected"
          % (counters["sim.requests"], counters["sim.rejected"]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
