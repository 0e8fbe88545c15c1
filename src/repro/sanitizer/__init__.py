"""Post-run data-integrity audits (``repro sanitize``).

:mod:`~repro.sanitizer.integrity` walks each engine's primary and
redundant structures and reports disagreements (QA701, QA702, QA704);
:mod:`~repro.sanitizer.faults` plants one seeded corruption per code so
the audits can be shown to fire; :mod:`~repro.sanitizer.harness` runs
the Figure 3 workload and then the audits.
"""
