"""Unit tests for SimObject / Simulator."""

import pytest

from repro.sim.simobject import SimObject, Simulator


def test_full_name_walks_parents():
    sim = Simulator()
    system = SimObject(sim, "system")
    pcie = SimObject(sim, "pcie", parent=system)
    port = SimObject(sim, "port0", parent=pcie)
    assert port.full_name == "system.pcie.port0"
    assert system.children == [pcie]
    assert pcie.children == [port]


def test_full_name_is_the_dotted_path_for_nested_objects():
    sim = Simulator()
    node = None
    for name in ("system", "pcie", "switch", "port0"):
        node = SimObject(sim, name, parent=node)
    assert node.full_name == "system.pcie.switch.port0"
    assert node.parent.full_name == "system.pcie.switch"
    # Computed once at construction, not walked per access.
    assert vars(node)["full_name"] == "system.pcie.switch.port0"
    assert sim.find("system.pcie.switch.port0") is node


def test_name_must_be_non_empty():
    sim = Simulator()
    with pytest.raises(ValueError):
        SimObject(sim, "")


def test_find_by_full_name():
    sim = Simulator()
    system = SimObject(sim, "system")
    child = SimObject(sim, "dev", parent=system)
    assert sim.find("system.dev") is child
    assert sim.find("nope") is None


def test_stats_nest_under_parent():
    sim = Simulator()
    system = SimObject(sim, "system")
    dev = SimObject(sim, "dev", parent=system)
    dev.stats.scalar("count").inc(2)
    assert sim.dump_stats()["system.dev.count"] == 2


def test_schedule_helper_uses_relative_delay():
    sim = Simulator()
    obj = SimObject(sim, "obj")
    fired = []
    obj.schedule(100, lambda: fired.append(sim.curtick))
    sim.run()
    assert fired == [100]
    assert obj.curtick == 100


def test_two_simulators_are_independent():
    sim_a, sim_b = Simulator("a"), Simulator("b")
    obj_a = SimObject(sim_a, "x")
    obj_a.schedule(10, lambda: None)
    sim_b.run()
    assert sim_b.curtick == 0
    sim_a.run()
    assert sim_a.curtick == 10


def test_reset_stats():
    sim = Simulator()
    obj = SimObject(sim, "obj")
    counter = obj.stats.scalar("n")
    counter.inc(5)
    sim.reset_stats()
    assert counter.value() == 0


def test_duplicate_full_name_rejected():
    sim = Simulator()
    system = SimObject(sim, "system")
    SimObject(sim, "dev", parent=system)
    with pytest.raises(ValueError, match="duplicate SimObject full name"):
        SimObject(sim, "dev", parent=system)


def test_same_leaf_name_under_different_parents_is_fine():
    sim = Simulator()
    a = SimObject(sim, "a")
    b = SimObject(sim, "b")
    dev_a = SimObject(sim, "dev", parent=a)
    dev_b = SimObject(sim, "dev", parent=b)
    assert sim.find("a.dev") is dev_a
    assert sim.find("b.dev") is dev_b


def test_on_exit_fires_once_at_drain_in_order():
    sim = Simulator()
    obj = SimObject(sim, "obj")
    fired = []
    sim.on_exit(lambda: fired.append(("first", sim.curtick)))
    sim.on_exit(lambda: fired.append(("second", sim.curtick)))
    obj.schedule(50, lambda: None)
    sim.run()
    assert fired == [("first", 50), ("second", 50)]
    # Consumed: a later drained run does not re-fire old registrations.
    obj.schedule(10, lambda: None)
    sim.run()
    assert len(fired) == 2


def test_on_exit_waits_for_a_drained_run():
    sim = Simulator()
    obj = SimObject(sim, "obj")
    fired = []
    sim.on_exit(lambda: fired.append(sim.curtick))
    obj.schedule(10, lambda: None)
    obj.schedule(100, lambda: None)
    sim.run(until=20)
    assert fired == [], "queue still holds the tick-100 event"
    sim.run()
    assert fired == [100]


def test_schedule_label_is_lazy():
    # check=False keeps the checker's context window out of the tracer, so
    # the tracer is genuinely disabled even under REPRO_CHECK=on.
    sim = Simulator(check=False)
    system = SimObject(sim, "system")
    dev = SimObject(sim, "dev", parent=system)

    def tick():
        pass

    cold = dev.schedule(5, tick)
    assert cold.name == "tick", "untraced schedules keep the bare __name__"
    sim.tracer.enabled = True
    hot = dev.schedule(6, tick)
    assert hot.name == "system.dev.tick"
