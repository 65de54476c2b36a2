"""Benchmark harness for l1lab: workloads, output checks and a layer tracer.

The harness drives the library only through its public API
(threshold_bisect, cli.main, parity.run_parity_audit and the public
functions of l1lab.empirical); the tracer observes internal layers by
rebinding names from outside, so nothing under src/ is edited.
"""
