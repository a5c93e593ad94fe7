"""Reference engines for the differential suites (test-only).

``src/`` runs every homomorphism-shaped problem — the chase, model
checking, homomorphism/CQ search and core computation — on the compiled
join kernel (:mod:`repro.kernel.joins`). This package keeps the
original generic engines as the reference semantics those paths are
held to:

* :mod:`tests.oracle.homomorphism` — the backtracking homomorphism
  search (most-constrained-first over ``Instance.matching_rows``), and
  the retraction, core and conjunctive-query operations built on it;
* :mod:`tests.oracle.trigger` — triggers as explicit objects, their
  activity test and :func:`~tests.oracle.trigger.fire_trigger`;
* :mod:`tests.oracle.chase` — the round-based chase with its STANDARD,
  SEMI_NAIVE and OBLIVIOUS disciplines, and ``implies`` on top of it;
* :mod:`tests.oracle.modelcheck` — model checking by search;
* :mod:`tests.oracle.analysis` — the joint-acyclicity check over every
  pair of existential variables, the position graph with its
  special-cycle witness and ranks, and the firing graph's strata;
* :mod:`tests.oracle.graph` — the directed multigraph those analyses
  build;
* :mod:`tests.oracle.collect` — the chase's per-round trigger
  collection before the old/delta split, which enumerates each match
  once per delta atom.
* :mod:`tests.oracle.prune` — goal-directed pruning whose entailment
  pass chases every candidate, certified rest or not.
* :mod:`tests.oracle.canonical` — the canonical labelling memoized on
  the input's own atom order.

Apart from :mod:`tests.oracle.collect`, which pins the kernel's own
firing order and so runs on the kernel's join plans, and
:mod:`tests.oracle.prune`, whose entailment chases are the production
``implies``, nothing here touches the kernel: no interned view, no join
plan (:mod:`tests.oracle.canonical` memoizes through the kernel's
``memoized``, as the production labelling does). Tests and benchmarks import from the submodules (``from
tests.oracle.chase import chase``); no module under ``src/repro`` may
import from here (``scripts/lint_invariants.py`` enforces that).
"""
