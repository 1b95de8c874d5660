"""Chaos suite: the resilience layer under injected faults.

Policies, spooling, checkpoint integrity, and degraded-mode finalize are
each exercised against the fault primitives in
:mod:`tests.chaos.injectors` — flipped bits, torn writes, full disks,
and hard-killed clients.
"""
