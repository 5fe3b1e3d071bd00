"""Benchmark for joinlab: seeded protocol trials timed end to end, with an
optional traced run that records spans at each module boundary.

Run ``python3 perfbench/run.py --help`` from the repository root.
"""
