"""Benchmark for ordcut: seeded workloads, an independent oracle, tracing."""
