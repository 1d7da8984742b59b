"""Budget accounting: warm-up measurement, iteration planning, hard stops.

Every section runs through ``BudgetClock.section`` on a ``VirtualClock``, so
consumption is the clock's scripted time since the budget started, and every
gating rule is checked on the clock alone.
"""

import math

import numpy as np
import pytest

from tftb.budget import BudgetClock, VirtualClock, WallClock
from tftb.errors import BudgetError
from tftb.trainer import epoch_equivalent_batches


def run(budget, label, times=1):
    for _ in range(times):
        budget.section(label, lambda: None)


def warmed(total, batches, elapsed, clock=None):
    """A budget after a warm-up of ``batches`` batches lasting ``elapsed`` in all."""
    clock = clock or VirtualClock(sequences={"batch": [elapsed / batches] * batches})
    budget = BudgetClock(total, clock)
    run(budget, "batch", batches)
    budget.finish_warmup()
    return budget


def test_measure_warmup_direct_formula():
    clock = warmed(100.0, batches=20, elapsed=4.0)  # B=10, m=2
    assert clock.tb == pytest.approx(0.2)
    assert clock.consumed == pytest.approx(4.0)

    small = warmed(1.0, batches=1, elapsed=0.05)  # B=1, m=1
    assert small.tb == pytest.approx(0.05)
    assert small.consumed == pytest.approx(0.05)

    # shuffles belong to the warm-up's measurement window
    budget = BudgetClock(100.0, VirtualClock(costs={"shuffle": 0.5, "batch": 0.25}))
    run(budget, "shuffle")
    run(budget, "batch", 6)
    budget.finish_warmup()
    assert budget.tb == budget.tb_initial == 2.0 / 6
    assert budget.trace()["warmup_elapsed"] == 2.0


def test_measure_warmup_rejects_zero_batches():
    clock = BudgetClock(10.0, VirtualClock(costs={"shuffle": 1.0}))
    run(clock, "shuffle")
    with pytest.raises(BudgetError):
        clock.finish_warmup()


def test_plan_iterations_arithmetic():
    clock = warmed(10.0, batches=10, elapsed=2.0)  # tb = 0.2, consumed = 2
    assert clock.plan_iterations() == 40

    exhausted = warmed(5.0, batches=10, elapsed=2.0,
                       clock=VirtualClock(costs={"batch": 0.2, "rank": 3.5}))
    run(exhausted, "rank")
    assert exhausted.plan_iterations() == 0


def test_plan_iterations_in_epoch_equivalents():
    clock = warmed(10.0, batches=10, elapsed=2.0)  # tb = 0.2, 40 batches left
    batches = clock.plan_iterations()
    per_epoch = epoch_equivalent_batches(320, 32)
    assert batches / per_epoch == pytest.approx(4.0)


def test_plan_iterations_monotone_in_consumed():
    clock = warmed(10.0, batches=10, elapsed=1.0,
                   clock=VirtualClock(costs={"batch": 0.1, "rank": 0.17}))
    previous = clock.plan_iterations()
    for _ in range(40):
        run(clock, "rank")
        now = clock.plan_iterations()
        assert now <= previous
        previous = now


def test_should_stop_overrun_avoidance_rule():
    vclock = VirtualClock(costs={"batch": 0.2, "validation": 10.0 - 2.0 - 0.1})
    clock = warmed(10.0, batches=10, elapsed=2.0, clock=vclock)  # tb = 0.2
    run(clock, "validation")  # consumed = T - 0.5 * tb
    assert clock.plan_iterations() == 0
    assert clock.section("batch", lambda: None, batches=1) is None

    fresh = BudgetClock(10.0, VirtualClock())
    fresh.tb = 0.2
    assert fresh.plan_iterations() == 50


def test_should_stop_flips_exactly_when_next_batch_no_longer_fits():
    durations = [0.3, 0.3, 0.3, 0.3]
    clock = warmed(1.0, batches=1, elapsed=0.3,
                   clock=VirtualClock(sequences={"batch": [0.3] + durations}))
    ran = 0
    while clock.plan_iterations() > 0:
        clock.section("batch", lambda: None, batches=1)
        ran += 1
    # 0.3 warm-up + two more 0.3 batches fit; a third would overrun
    assert ran == 2
    assert clock.consumed == pytest.approx(0.9)
    assert clock.section("batch", lambda: None, batches=1) is None


def test_charge_identity_and_additivity():
    clock = BudgetClock(10.0, VirtualClock(costs={"free": 0.0, "rank": 1.5}))
    run(clock, "free")
    assert clock.consumed == 0.0
    run(clock, "rank", 2)
    assert clock.consumed == pytest.approx(3.0)
    assert clock.sections["rank"].count == 2
    assert clock.sections["rank"].total == pytest.approx(3.0)
    assert clock.sections["rank"].longest == 1.5 and "never" not in clock.sections
    # a section cannot take negative time, so consumption never runs backwards,
    # nor a time that is not a number or never ends
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(BudgetError):
            VirtualClock(costs={"rank": bad})
        with pytest.raises(BudgetError):
            VirtualClock(sequences={"rank": [0.1, bad]})


def test_section_refuses_work_that_no_longer_fits():
    costs = {"batch": 0.25, "rank": 0.75, "refresh": 0.75}
    clock = warmed(1.5, batches=1, elapsed=0.25, clock=VirtualClock(costs=costs))  # tb = 0.25
    calls = []
    done = clock.section("rank", calls.append, 1)  # no rank yet: always runs
    assert done.elapsed == 0.75 and calls == [1]
    assert clock.section("rank", calls.append, 2) is None  # 1.0 + longest 0.75 > 1.5
    assert calls == [1] and clock.sections["rank"].count == 1 and clock.consumed == 1.0
    assert clock.section("refresh", calls.append, 3, batches=1).value is None  # 1.0 + tb fits
    assert calls == [1, 3] and clock.consumed == 1.75  # the estimate was short

    unbudgeted = warmed(None, batches=1, elapsed=0.25, clock=VirtualClock(costs=costs))
    assert unbudgeted.section("rank", lambda: "ran", batches=10**9).value == "ran"


# the estimate of each label's section after the warm-up, at tb = 0.25: work
# counted in batches at tb per batch, any other section at the longest of
# its label so far (here its first one, which costs 0.5)
LABEL_BATCHES = {"batch": 1, "validation": 3, "refresh": 2, "shuffle": None, "rank": None,
                 "ledger": None}


@pytest.mark.parametrize("slack", [-0.125, 0.0, 0.125])
@pytest.mark.parametrize("label", list(LABEL_BATCHES))
def test_section_refuses_exactly_when_consumed_plus_estimate_exceeds_the_budget(label, slack):
    total, tb = 4.0, 0.25
    batches = LABEL_BATCHES[label]
    estimate = tb * batches if batches else 0.5
    before = tb + (0.5 if batches is None else 0.0)  # warm-up, then a first section
    costs = {"batch": tb, "pad": total + slack - estimate - before}
    if batches is None:
        costs[label] = 0.5
    clock = warmed(total, batches=1, elapsed=tb, clock=VirtualClock(costs=costs))
    if batches is None:
        assert clock.section(label, lambda: None) is not None  # the first one always runs
    run(clock, "pad")
    assert clock.consumed + estimate == total + slack
    count = clock.sections[label].count
    done = clock.section(label, lambda: "ran", batches=batches)
    if slack > 0:
        assert done is None
        assert clock.sections[label].count == count
        assert clock.consumed == total + slack - estimate
    else:
        assert done.value == "ran"


def test_nothing_is_refused_during_the_warmup():
    clock = BudgetClock(1.0, VirtualClock(costs={"batch": 0.25, "rank": 0.5}))
    # an estimate of a million batches, and a second rank past the budget, still run
    assert clock.section("batch", lambda: "ran", batches=10**6).value == "ran"
    assert clock.section("rank", lambda: "ran").value == "ran"
    assert clock.section("rank", lambda: "ran").value == "ran"
    assert clock.consumed == 1.25
    for label, batches in LABEL_BATCHES.items():
        if label != "batch":
            assert clock.section(label, lambda: "ran", batches=batches).value == "ran"
    # a warm-up batch after the budget is spent is an error, not a skipped batch
    with pytest.raises(BudgetError, match="exhausted during warm-up"):
        clock.section("batch", lambda: None)


def test_warmup_projection_and_overrun_raise_on_the_clock_alone():
    # a warm-up of 5 batches projects from all 5: 5 at 0.25 s, longer than
    # T = 1.0, so the fifth batch, the projecting one, raises
    clock = BudgetClock(1.0, VirtualClock(costs={"batch": 0.25}), warmup_batches=5)
    for _ in range(4):
        clock.section("batch", lambda: None, batches=1)
    with pytest.raises(BudgetError, match="projected warm-up cost 1.250s"):
        clock.section("batch", lambda: None, batches=1)

    # 4 projected batches fit exactly; a fifth warm-up batch overruns
    clock = BudgetClock(1.0, VirtualClock(costs={"batch": 0.25}), warmup_batches=4)
    for _ in range(4):
        clock.section("batch", lambda: None, batches=1)
    assert clock.consumed == 1.0
    with pytest.raises(BudgetError, match=r"exhausted during warm-up \(1.250s elapsed after 5"):
        clock.section("batch", lambda: None, batches=1)

    # unbudgeted, neither check applies
    clock = BudgetClock(None, VirtualClock(costs={"batch": 0.25}), warmup_batches=5)
    for _ in range(6):
        clock.section("batch", lambda: None, batches=1)
    assert clock.consumed == 1.5


def test_a_cold_first_batch_does_not_refuse_a_warmup_that_fits():
    # the first batch of a process is cold: 10x the rest.  Projected from it
    # alone, 40 batches would take 4 s; they take 0.49 s, within T = 1.0
    clock = BudgetClock(1.0, VirtualClock(sequences={"batch": [0.1] + [0.01] * 39}),
                        warmup_batches=40)
    run(clock, "batch", 40)
    clock.finish_warmup()
    assert clock.consumed == pytest.approx(0.49)
    assert clock.plan_iterations() > 0


def test_a_steady_warmup_past_the_budget_raises_before_the_budget_is_spent():
    # 100 batches of 0.02 s cannot fit T = 1.0; the eighth batch projects it
    clock = BudgetClock(1.0, VirtualClock(costs={"batch": 0.02}), warmup_batches=100)
    run(clock, "batch", 7)
    with pytest.raises(BudgetError, match=r"projected warm-up cost 2.000s \(100 batches"):
        run(clock, "batch")
    assert clock.consumed == pytest.approx(0.16)


def test_consumed_includes_time_between_sections():
    class SteppedClock(VirtualClock):
        """A virtual clock on which every read of the time takes half a second."""

        def now(self):
            self._t += 0.5
            return self._t

    clock = BudgetClock(10.0, SteppedClock(costs={"batch": 1.0}))
    run(clock, "batch")
    assert clock.sections["batch"].total == 1.0
    # the section, the read of the warm-up overrun check, and the read that ends it
    assert clock.consumed == 2.0


def test_randomized_schedules_never_overrun_by_more_than_one_batch():
    rng = np.random.default_rng(13)
    for _ in range(200):
        total = float(rng.uniform(0.5, 5.0))
        warm = float(rng.uniform(0.01, 0.2))
        # enough batches of at least 0.005 s to exhaust any budget drawn
        durations = rng.uniform(0.005, 0.4, size=math.ceil(total / 0.005) + 1).tolist()
        clock = warmed(total, batches=1, elapsed=warm,
                       clock=VirtualClock(sequences={"batch": [warm] + durations}))
        max_duration = clock.tb
        ran = 0
        while clock.plan_iterations() > 0:
            clock.section("batch", lambda: None, batches=1)
            max_duration = max(max_duration, durations[ran])
            ran += 1
        assert clock.consumed <= total + max_duration + 1e-9
        assert clock.tb_max == pytest.approx(max_duration)


def test_consumed_never_decreases():
    rng = np.random.default_rng(0)
    batch_like = rng.uniform(size=100) < 0.5
    clock = warmed(50.0, batches=4, elapsed=1.0, clock=VirtualClock(sequences={
        "batch": [0.25] * 4 + rng.uniform(0, 0.3, size=100).tolist(),
        "rank": rng.uniform(0, 0.1, size=100).tolist(),
    }))
    seen = [clock.consumed]
    for is_batch in batch_like:
        run(clock, "batch" if is_batch else "rank")
        assert clock.consumed >= seen[-1]
        seen.append(clock.consumed)


def test_budget_none_disables_enforcement_but_keeps_accounting():
    clock = BudgetClock(None, VirtualClock(sequences={"batch": [0.0, 0.0, 1.0]}))
    run(clock, "batch", 2)
    clock.finish_warmup()  # zero warm-up time is allowed when unbudgeted
    run(clock, "batch")
    assert clock.section("batch", lambda: "ran", batches=10**9).value == "ran"
    assert clock.plan_iterations() is None
    assert clock.trace()["consumed_total"] == pytest.approx(1.0)


def test_budgeted_zero_warmup_elapsed_is_an_error():
    clock = BudgetClock(5.0, VirtualClock())
    run(clock, "batch", 2)
    with pytest.raises(BudgetError, match="zero elapsed"):
        clock.finish_warmup()


def test_plan_iterations_requires_a_measured_batch_time():
    clock = BudgetClock(5.0, VirtualClock())
    with pytest.raises(BudgetError, match="warm-up"):
        clock.plan_iterations()


def test_ewma_tracks_batch_time_drift():
    clock = warmed(1000.0, batches=1, elapsed=0.1,
                   clock=VirtualClock(costs={"batch": 0.4}, sequences={"batch": [0.1]}))
    run(clock, "batch", 200)
    assert clock.tb == pytest.approx(0.4, rel=1e-3)
    assert clock.tb_initial == pytest.approx(0.1)


def test_virtual_clock_replays_scripted_sequences():
    clock = VirtualClock(costs={"batch": 0.5}, sequences={"batch": [0.1, 0.2]})
    elapsed = []
    for _ in range(4):
        with clock.measure("batch") as span:
            pass
        elapsed.append(span.elapsed)
    assert elapsed == [0.1, 0.2, 0.5, 0.5]  # sequence first, then the fixed cost
    assert clock.now() == pytest.approx(1.3)
    with clock.measure("other") as span:
        pass
    assert span.elapsed == 0.0


def test_wall_clock_measures_real_time():
    clock = WallClock()
    t0 = clock.now()
    with clock.measure("work") as span:
        sum(range(10000))
    assert span.elapsed >= 0.0
    assert clock.now() >= t0
