"""The pipeline benchmark: workloads, runner, tracer (see README.md)."""
