"""Benchmark of termsep: checked verdicts, antiassociative certificates and
the census, timed end to end and, in a traced run, per module."""
