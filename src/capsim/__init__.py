"""capsim: quantify the consistency/availability/partition-span tradeoff.

A deterministic tick-based simulator drives replication strategies for
a keyed last-writer-wins register service under scripted link outages;
a trace checker measures the staleness and latency bounds each run
actually achieved and verifies that staleness plus latency always
covers the partition span (up to declared discrete-model slack).
"""

__version__ = "0.1.0"
