"""Oracles the tests check the package against.

Exact hulls, the centralized assembly, closed-form recourse and CSV
readers: independent transcriptions that no run, CLI verb or benchmark
reaches, so they live beside the tests and not in `mgridopt`.
"""
