"""Oracles the tests check the package against.

Exact hulls, the centralized assembly, closed-form recourse, CSV
readers, an LP's dual value and the big-M grid block the convex one
replaced: independent
transcriptions that no run, CLI verb or benchmark reaches, so they live
beside the tests and not in `mgridopt`.
"""
