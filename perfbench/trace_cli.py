"""Run the shiftwatch CLI in this process with a span around each layer call.

Usage: python3 perfbench/trace_cli.py SPANS.json <shiftwatch arguments...>

Each public function is wrapped from outside, at the name its caller
looks it up under (``cli.predict``, ``harness.predict_many``,
``monitor.pmeb_update``, ``MonitorState.observe``, ...), so no program
file changes. Spans (name, start, end, parent index, count) are kept in
memory and written to SPANS.json when the command ends, with
``main_end``, the ``time.monotonic()`` reading when the command returned
(a system-wide clock on Linux, so the caller can subtract its own start
time), and for ``evaluate`` the sha256 of
``reports_to_json(reports, include_margins=True)`` and the seconds
``margins_s`` that digest took. The exit code is the command's own.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

from shiftwatch import cli, harness, monitor


def _len(args, result) -> int:
    return len(result)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.reports = None

    def wrap(self, owner, attr, name, count=None):
        fn = getattr(owner, attr)
        spans, stack, clock = self.spans, self.stack, time.monotonic

        def traced(*args, **kwargs):
            i = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(i)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[i] = (name, start, clock(), parent, 0)
                stack.pop()
                raise
            end = clock()
            stack.pop()
            spans[i] = (name, start, end, parent, 1 if count is None else count(args, result))
            return result

        setattr(owner, attr, traced)

    def keep_reports(self, args, result) -> int:
        self.reports = args[0]
        return len(args[0])

    def install(self) -> None:
        w = self.wrap
        w(cli, "read_dataset", "core.read_dataset", lambda a, r: r.n)
        for owner in (cli, harness):
            w(owner, "fit_knn", "estimator.fit_knn")
            w(owner, "score_dataset", "estimator.score_dataset", lambda a, r: a[1].n)
            w(owner, "calibrate", "calibration.calibrate")
            w(owner, "source_statistics", "monitor.source_statistics")
            w(owner, "split_pools", "shiftsim.split_pools")
            w(owner, "build_stream", "shiftsim.build_stream", lambda a, r: r.horizon)
            w(owner, "suite_metrics", "harness.suite_metrics")
        w(cli, "predict", "estimator.predict")
        w(harness, "predict_many", "estimator.predict_many", _len)
        w(harness, "oracle_source_statistics", "monitor.oracle_source_statistics")
        w(harness, "source_mean_upper", "monitor.source_mean_upper")
        w(harness, "run_experiment", "harness.run_experiment", lambda a, r: int(r.uncalibratable))
        w(cli, "run_suite", "harness.run_suite", _len)
        w(cli, "suite_metrics_by_r2", "harness.suite_metrics_by_r2")
        w(cli, "reports_to_json", "harness.reports_to_json", self.keep_reports)
        w(monitor, "pmeb_update", "confidence.pmeb_update")
        w(monitor, "pmeb_best_lower_path", "confidence.pmeb_best_lower_path", _len)
        w(monitor.MonitorState, "observe", "monitor.observe")
        w(cli, "write_trajectory_csv", "monitor.write_trajectory_csv", lambda a, r: len(a[1]))


def main(argv) -> int:
    spans_path, args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    code = 0
    try:
        cli.main.main(args=args, prog_name="shiftwatch")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    main_end = time.monotonic()
    margins = None
    if tracer.reports is not None:
        text = harness.reports_to_json(tracer.reports, include_margins=True)
        margins = hashlib.sha256(text.encode()).hexdigest()
    trailer = {"main_end": main_end, "margins_sha256": margins, "margins_s": time.monotonic() - main_end}
    with open(spans_path, "w") as fh:
        json.dump({"spans": tracer.spans, **trailer}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
