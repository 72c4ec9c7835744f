"""memchar: memory-hierarchy characterization toolkit.

Latency and bandwidth benchmarking with controlled cache-coherence states,
backed by a deterministic protocol simulator plus an analytic interconnect
latency model, so every procedure is testable at desk scale and runnable
natively on x86 servers.

The package re-exports nothing: import each name from the module that
defines it (``memchar.topology``, ``memchar.harness``, ...).  The command
line is ``memchar.cli``.
"""
