"""The repo's benchmark: workloads, timing method, spans and comparison.

Drives the FedSZ reproduction only through its public API; nothing here is
imported by ``src/``.  See ``perf/README.md``.
"""
