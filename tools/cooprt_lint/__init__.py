"""cooprt-lint — static determinism & audit-coverage analysis for the
CoopRT simulator.

Every result this reproduction publishes rests on bit-identical
determinism (pinned-cycle baselines, jobs-1-vs-4 byte-identity,
figure tables matching the paper). The runtime ``cooprt::check``
audits enforce that property *dynamically*; this package rejects the
hazard patterns *statically*, before they reach a run:

  ====================================  =================================
  rule id                               hazard class
  ====================================  =================================
  ``nondeterministic-iteration``        hash-container iteration feeding
                                        a report/sink/tracer path
  ``unseeded-randomness``               wall-clock / rand / pointer
                                        identity influencing results
  ``float-accumulation-order``          float ``+=`` reductions in
                                        unordered loops or exec workers
  ``audit-coverage``                    registry-observable counters
                                        mutated but never audited
  ``check-purity``                      COOPRT_CHECK-only code writing
                                        non-check state
  ``registry-authority``                metric names registered twice,
                                        outside their authority file or
                                        missing from the DESIGN.md tables
  ``stats-registered``                  stats-struct counters never
                                        registered with the registry
  ====================================  =================================

Facts come from one structural C++ scanner (``frontend_text``:
comment/string stripping, brace/paren matching, declaration and loop
extraction, typedef'd containers resolved through their ``using``
aliases). It has no dependencies; the CI gate and ctest run it.

Findings can be suppressed inline with a mandatory reason::

    // cooprt-lint: allow(rule-id) why this is safe
    COOPRT_LINT_ALLOW("rule-id", "why this is safe");

and a checked-in baseline (``tools/cooprt_lint/BASELINE.json``) makes
CI fail only on *new* violations. See DESIGN.md §15 for the rule
catalogue.
"""

__version__ = "1.0"
