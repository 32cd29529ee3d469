"""Workload builders only the tests use (the engine's own live in ``repro.examples``)."""
