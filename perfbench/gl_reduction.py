"""``gl_reduction``: library ``implies`` on the paper's own reduction.

Each query is ``D ⊨ D0`` for ``reduction.encode`` of a word-problem
presentation, drawn from :func:`positive_chain_family` (``A0 = 0``
valid, so ``D ⊨ D0``) or :func:`negative_family` (a finite
counter-model exists, so ``D ⊭ D0``). The Main Lemma is the ground
truth: a positive draw may never come back DISPROVED, a negative one
never PROVED; UNKNOWN is never wrong.

The stream is a sequence of *cycles* of equal make-up. A cycle holds
one fresh draw per kind below: its premises put in a fixed shuffled
order and alpha-renamed (:func:`disguise`), so each draw is a premise
tuple the analyzer's memo has not seen. ``REPEATS`` repeats of every
draw follow, in seeded order: one in ``EXACT_EVERY`` is an exact
repeat, the others ask the same premise tuple about a freshly renamed
``D0`` (warm for the analyzer, a new frozen database for the chase).
Chase cost, and even the verdict within the budget, depend on premise
order, so the ``ORDERS`` shuffles belong to the workload rather than
to ``--seed``: part ``p`` of a run uses order ``p % ORDERS``, and every
run covers the same orders. ``--seed`` picks the renamings and the
order of the stream. The budget is explicit and counts steps only. The
unit of work is one query, timed in CPU time (:func:`common.unit_clock`);
the loop is closed and runs the whole number of cycles nearest to
``seconds`` at the reference speed (``CYCLE_SECONDS`` each), so that
the make-up of a run does not follow the machine's speed.
"""

from __future__ import annotations

import random

from common import DISPROVED, PROVED, Speedometer, Tally, peak_rss_mb, timed, unit_clock

#: (family, k) drawn once per cycle.
KINDS = (
    ("positive", 1),
    ("positive", 2),
    ("positive", 3),
    ("negative", 0),
    ("negative", 1),
    ("negative", 2),
    ("negative", 3),
)
#: Fixed premise orders per kind; a part draws every kind in one of them.
ORDERS = 2
#: Repeats of each fresh draw per cycle, and how many are exact.
REPEATS = 35
EXACT_EVERY = 5
MAX_STEPS = 60
#: Measured time of one cycle at the reference speed (common.Speedometer).
CYCLE_SECONDS = 6.0
#: A query answered within this limit counts towards ``slo_share``.
SLO_SECONDS = 3.0
#: Parts per run, each a fresh interpreter (see run.py); part ``p``
#: draws its premises in order ``p % ORDERS``.
PARTS = 4


def _encodings() -> dict:
    from repro.reduction.encode import encode
    from repro.workloads.instances import negative_family, positive_chain_family

    families = {"positive": positive_chain_family, "negative": negative_family}
    return {(family, k): encode(families[family](k)) for family, k in KINDS}


def _cycle(encodings: dict, order: int, rng: random.Random) -> list:
    """One cycle: (kind, premises, target) per query, fresh draws first."""
    from repro.workloads.generators import disguise

    draws = []
    for kind in KINDS:
        encoding = encodings[kind]
        premises = list(encoding.dependencies)
        random.Random(f"gl-order-{kind[0]}-{kind[1]}-{order}").shuffle(premises)
        premises = tuple(
            disguise(dependency, seed=rng.randrange(1 << 30), tag="g")
            for dependency in premises
        )
        target = disguise(encoding.d0, seed=rng.randrange(1 << 30), tag="t")
        draws.append((kind, premises, target))
    rng.shuffle(draws)
    repeats = []
    for kind, premises, target in draws:
        for number in range(REPEATS):
            renamed = (
                disguise(encodings[kind].d0, seed=rng.randrange(1 << 30), tag="r")
                if number % EXACT_EVERY
                else target
            )
            repeats.append((kind, premises, renamed))
    rng.shuffle(repeats)
    return draws + repeats


OTHER_FAMILY = {"positive": "negative", "negative": "positive"}


def wrong_verdict(kind, status: str) -> bool:
    family = kind[0]
    return (family == "positive" and status == DISPROVED) or (
        family == "negative" and status == PROVED
    )


def run(seed: int, part: int, seconds: float, trace: bool = False, flip: bool = False) -> dict:
    from repro.chase.budget import Budget

    order = part % ORDERS

    def build():
        rng = random.Random(f"{seed}-{part}")
        encodings = _encodings()
        return rng, encodings, _cycle(encodings, order, rng)

    (rng, encodings, cycle), setup_s = timed(build)
    tracer = counters = None
    if trace:
        from spans import Tracer, instrument

        tracer = Tracer()
        counters = instrument(tracer)
    from repro.chase.implication import implies  # wrapped when tracing

    budget = Budget(max_steps=MAX_STEPS, max_rows=None, max_seconds=None)
    tally = Tally(SLO_SECONDS)
    speed = Speedometer()
    units = 0
    for __ in range(max(1, round(seconds / CYCLE_SECONDS))):
        for kind, premises, target in cycle:
            speed.probe_if_due()
            started = unit_clock()
            if tracer is not None:
                with tracer.unit(units):
                    outcome = implies(premises, target, budget=budget)
            else:
                outcome = implies(premises, target, budget=budget)
            elapsed = unit_clock() - started
            status = outcome.status.value
            if flip and status in (PROVED, DISPROVED):
                # Self-test: judge the first decisive verdict against
                # the other family's answer.
                kind, flip = (OTHER_FAMILY[kind[0]], kind[1]), False
            tally.unit(elapsed, tally.verdict(status, wrong_verdict(kind, status)))
            units += 1
        cycle = _cycle(encodings, order, rng)
    return {
        "tally": tally,
        "segment_units": len(cycle),
        "setup_s": [setup_s],
        "speed": speed,
        "rss_mb": peak_rss_mb(),
        "units": units,
        "tracer": tracer,
        "counters": counters,
        "snapshot": None,
        "attributes": {"max_steps": MAX_STEPS, "repeats": REPEATS, "order": order},
    }
