"""Run one ratcirc CLI request as a benchmark child.

Usage: python3 bench/child.py REPORT_JSON MODE [CLI_ARG...]

With MODE ``run`` it behaves like ``python -m ratcirc.cli CLI_ARG...``: same
stdout, stderr and exit code, and an uncaught exception still ends in a
traceback.  MODE ``trace`` installs the layer wrappers of ``tracer.py``
first; MODE ``import`` only imports ``ratcirc.cli``.  Before importing
ratcirc the child caps its own address space at 1.5 GiB.

REPORT_JSON is written in every case that lets ``finally`` run.  It holds
``peak_rss_kib``, the process's own VmHWM: the high-water mark of the memory
image made by exec.  rusage's ``ru_maxrss`` is not used because it starts from
the RSS the benchmark process had when it started the child.  It also holds
``reference_s``, the seconds a fixed pure-Python loop took just before the
import and just after the request, in this process: the benchmark uses them to
correct the request's time for the host's speed at that moment.  A traced
request adds its spans and counters.
"""
import json
import resource
import sys
import time

ADDRESS_SPACE_CAP = 1536 << 20
REFERENCE_ITERATIONS = 200_000


def cap_address_space() -> None:
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    cap = ADDRESS_SPACE_CAP if hard == resource.RLIM_INFINITY else min(ADDRESS_SPACE_CAP, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))


def peak_rss_kib() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/status has no VmHWM line")


def reference_s() -> float:
    """Seconds for a fixed pure-Python loop that does not touch ratcirc."""
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - start


def main() -> int:
    report_path, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    cap_address_space()
    reference = [reference_s()]
    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    import ratcirc.cli

    try:
        return 0 if mode == "import" else ratcirc.cli.main(argv)
    finally:
        reference.append(reference_s())
        report = {"peak_rss_kib": peak_rss_kib(), "reference_s": reference}
        if tracer is not None:
            report.update(tracer.record())
        with open(report_path, "w") as fh:
            json.dump(report, fh)


if __name__ == "__main__":
    sys.exit(main())
