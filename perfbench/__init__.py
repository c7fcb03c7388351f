"""Benchmark of the steincv sampler, control-variate and evidence paths."""
