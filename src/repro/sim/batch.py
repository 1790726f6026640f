"""Dispatch facts that benchmark records report.

The simulator has one dispatch path: a multi-line DMA burst and a run of
CPU accesses go through the same loops a single line does (see
``docs/performance.md``).  What is left here is the one constant the
benchmark harness still records per host.
"""

#: Always False: nothing here uses numpy (benchmark records report it).
HAVE_NUMPY = False
