"""The repo's benchmark: four workloads, end-to-end metrics, layers timed from outside.

See ``perf/README.md``.  Nothing under ``src/`` imports this package.
"""
