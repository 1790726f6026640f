"""Operator tools: simulated analogues of the paper artifact's tooling.

* :mod:`repro.tools.pcm` — Intel PCM-style live counter monitor.
"""
