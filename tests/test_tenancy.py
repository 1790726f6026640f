"""Tests for first-class tenancy: spec/set validation, legacy-priority
parity on every seed scenario, build-time core-budget validation, the
IOCA baseline FSM, the N-tenant scenario generator, and tenant-targeted
fault injection."""

import pytest

from repro.experiments.errors import ConfigError
from repro.experiments.scenarios import (
    build_server,
    chaos_workloads,
    daemon_interference_workloads,
    hpw_heavy_workloads,
    lpw_heavy_workloads,
    microbenchmark_workloads,
    validate_core_budgets,
)
from repro.telemetry.pcm import PRIORITY_HIGH, PRIORITY_LOW
from repro.tenancy import (
    CLASS_BEST_EFFORT,
    CLASS_LATENCY_CRITICAL,
    CLOS_POLICY_RESERVED,
    IMPLICIT_TENANT_NAMES,
    TenantConfigError,
    TenantSet,
    TenantSpec,
    canonical_pair,
)
from repro.workloads.base import Workload


class Dummy(Workload):
    def setup(self, server):
        self.cores = server.alloc_cores(self.num_cores)


# -- TenantSpec validation -------------------------------------------------


def test_spec_rejects_empty_name():
    with pytest.raises(TenantConfigError):
        TenantSpec(name="")


def test_spec_rejects_unknown_class():
    with pytest.raises(TenantConfigError, match="unknown tenant class"):
        TenantSpec(name="t", tenant_class="bronze")


def test_spec_rejects_zero_core_budget():
    with pytest.raises(TenantConfigError, match="core_budget"):
        TenantSpec(name="t", core_budget=0)


def test_spec_reserved_policy_needs_mask():
    with pytest.raises(TenantConfigError, match="clos_mask"):
        TenantSpec(name="t", clos_policy=CLOS_POLICY_RESERVED)


@pytest.mark.parametrize("mask", [(3, 1), (-1, 2), (0, 1, 2)])
def test_spec_rejects_bad_mask_span(mask):
    with pytest.raises(TenantConfigError):
        TenantSpec(name="t", clos_policy=CLOS_POLICY_RESERVED,
                   clos_mask=mask)


@pytest.mark.parametrize(
    "field", ["slo_p99_latency", "slo_min_throughput"]
)
@pytest.mark.parametrize("value", [0, -3.0])
def test_spec_rejects_nonpositive_slos(field, value):
    with pytest.raises(TenantConfigError, match=field):
        TenantSpec(name="t", **{field: value})


def test_spec_priority_is_derived_from_class():
    lc = TenantSpec(name="svc", tenant_class=CLASS_LATENCY_CRITICAL)
    be = TenantSpec(name="batch", tenant_class=CLASS_BEST_EFFORT)
    assert lc.priority == PRIORITY_HIGH and lc.latency_critical
    assert be.priority == PRIORITY_LOW and not be.latency_critical


def test_spec_fingerprint_stable_and_distinct():
    a = TenantSpec(name="t", core_budget=2)
    assert a.fingerprint() == TenantSpec(name="t", core_budget=2).fingerprint()
    assert a.token != TenantSpec(name="t", core_budget=3).token


# -- TenantSet validation --------------------------------------------------


def test_set_rejects_duplicate_names():
    with pytest.raises(TenantConfigError, match="duplicate"):
        TenantSet([TenantSpec(name="t"), TenantSpec(name="t",
                                                    core_budget=2)])


def test_set_rejects_overlapping_reserved_masks():
    a = TenantSpec(name="a", clos_policy=CLOS_POLICY_RESERVED,
                   clos_mask=(0, 4))
    b = TenantSpec(name="b", clos_policy=CLOS_POLICY_RESERVED,
                   clos_mask=(4, 7))
    with pytest.raises(TenantConfigError, match="overlapping"):
        TenantSet([a, b])
    # Adjacent, non-overlapping spans are fine.
    c = TenantSpec(name="b", clos_policy=CLOS_POLICY_RESERVED,
                   clos_mask=(5, 7))
    assert TenantSet([a, c]).total_core_budget == 2


def test_set_rejects_empty():
    with pytest.raises(TenantConfigError):
        TenantSet([])


def test_canonical_pair_shape():
    pair = canonical_pair(hpw_cores=3, lpw_cores=2)
    assert pair.names() == ["hpw", "lpw"]
    assert pair.get("hpw").priority == PRIORITY_HIGH
    assert pair.get("lpw").priority == PRIORITY_LOW
    assert pair.total_core_budget == 5
    assert all(t.implicit for t in pair)


def test_implicit_for_rejects_unknown_priority():
    with pytest.raises(TenantConfigError):
        TenantSpec.implicit_for("MPW", 1)


# -- legacy-priority parity on every seed scenario -------------------------

SEED_SCENARIOS = {
    "microbenchmark": microbenchmark_workloads,
    "hpw_heavy": hpw_heavy_workloads,
    "lpw_heavy": lpw_heavy_workloads,
    "daemon_interference": daemon_interference_workloads,
    "chaos": chaos_workloads,
}


@pytest.mark.parametrize("name", sorted(SEED_SCENARIOS))
def test_seed_scenarios_collapse_to_canonical_pair(name):
    """Every paper-era workload list sees tenancy as the implicit two-
    tenant set; the derived priority strings match the historic constants
    exactly (the bit-identity contract)."""
    workloads = SEED_SCENARIOS[name]()
    tenants = TenantSet.from_workloads(workloads)
    assert set(tenants.names()) <= set(IMPLICIT_TENANT_NAMES.values())
    for workload in workloads:
        assert workload.tenant.implicit
        assert workload.priority == workload.tenant.priority
        assert workload.priority in (PRIORITY_HIGH, PRIORITY_LOW)
        assert (
            workload.tenant.name
            == IMPLICIT_TENANT_NAMES[workload.priority]
        )
    for tenant in tenants:
        demand = sum(
            w.num_cores for w in workloads
            if w.tenant.name == tenant.name
        )
        assert tenant.core_budget == demand


@pytest.mark.parametrize("name", sorted(SEED_SCENARIOS))
def test_seed_scenarios_pass_budget_validation(name):
    workloads = SEED_SCENARIOS[name]()
    tenants = validate_core_budgets(workloads, cores=18)
    assert tenants == TenantSet.from_workloads(workloads)


def test_server_exposes_tenants():
    server = build_server(chaos_workloads(), scheme="a4")
    tenants = server.tenants()
    assert tenants.names() == ["hpw", "lpw"]
    hpw_names = {w.name for w in server.tenant_workloads("hpw")}
    assert hpw_names == {
        w.name for w in server.workloads if w.priority == PRIORITY_HIGH
    }


# -- build-time core-budget validation (ConfigError) -----------------------


def test_validate_names_oversubscribed_tenant():
    tenant = TenantSpec(name="svc", core_budget=1)
    workloads = [Dummy("a", cores=2, tenant=tenant)]
    with pytest.raises(ConfigError, match="svc"):
        validate_core_budgets(workloads, cores=18)


def test_validate_rejects_total_over_platform():
    workloads = [
        Dummy("a", cores=10, priority=PRIORITY_HIGH),
        Dummy("b", cores=10, priority=PRIORITY_LOW),
    ]
    with pytest.raises(ConfigError, match="20 cores"):
        validate_core_budgets(workloads, cores=18)


def test_build_server_raises_config_error_before_setup():
    with pytest.raises(ConfigError):
        build_server(microbenchmark_workloads(), cores=4)


# -- IOCA FSM units --------------------------------------------------------


def make_ioca(**kwargs):
    from repro.core.ioca import IocaManager

    return IocaManager(**kwargs)


def test_ioca_fsm_fires_after_patience():
    from repro.core.ioca import STATE_ADJUST, STATE_COOLDOWN, STATE_MONITOR

    mgr = make_ioca(patience=2, cooldown=3)
    assert mgr.state == STATE_MONITOR
    assert mgr.fsm_step(True) is False  # streak 1 < patience
    assert mgr.fsm_step(True) is True  # fires through transient ADJUST
    assert mgr.state == STATE_COOLDOWN
    assert mgr.transitions == [
        (STATE_MONITOR, STATE_ADJUST),
        (STATE_ADJUST, STATE_COOLDOWN),
    ]


def test_ioca_fsm_streak_resets_on_calm_epoch():
    mgr = make_ioca(patience=3)
    assert mgr.fsm_step(True) is False
    assert mgr.fsm_step(True) is False
    assert mgr.fsm_step(False) is False  # calm epoch resets the streak
    assert mgr.fsm_step(True) is False
    assert mgr.fsm_step(True) is False
    assert mgr.fsm_step(True) is True


def test_ioca_fsm_cooldown_ignores_pressure():
    from repro.core.ioca import STATE_COOLDOWN, STATE_MONITOR

    mgr = make_ioca(patience=1, cooldown=2)
    assert mgr.fsm_step(True) is True
    assert mgr.state == STATE_COOLDOWN
    # Pressure during cooldown never fires; the countdown runs instead.
    assert mgr.fsm_step(True) is False
    assert mgr.state == STATE_COOLDOWN
    assert mgr.fsm_step(True) is False
    assert mgr.state == STATE_MONITOR
    # Back in MONITOR the streak starts from zero again.
    assert mgr.fsm_step(True) is True


def test_ioca_partitions_cover_llc():
    from repro.experiments.tenants import build_tenant_server

    server = build_tenant_server(4, scheme="ioca", seed=11)
    spans = server.manager.tenant_spans()
    assert len(spans) == 4
    assert sum(spans.values()) == server.manager.total_ways
    assert all(s >= server.manager.min_ways for s in spans.values())
    result = server.run(6)
    assert server.manager.robustness_stats()["ioca_adjustments"] == \
        server.manager.adjustments
    assert result.samples


def test_ioca_way_moves_are_decisions():
    from repro import obsv
    from repro.experiments.tenants import build_tenant_server

    tracer = obsv.enable()
    server = build_tenant_server(6, scheme="ioca", seed=11)
    server.run(8)
    mgr = server.manager
    assert mgr.adjustments == len(mgr.decisions) > 0
    for d in mgr.decisions:
        assert d.action == "ioca_adjust"
        assert d.inputs["victim"] in d.reason
        assert d.inputs["score"] > 0
        assert sum(d.inputs["spans"].values()) == mgr.total_ways
    assert mgr.decisions[-1].inputs["spans"] == mgr.tenant_spans()
    # The trace carries each move once, as a decision event.
    events = tracer.by_kind(obsv.KIND_DECISION)
    assert [(e.epoch, e.name) for e in events] == [
        (d.epoch, d.action) for d in mgr.decisions
    ]
    assert "ioca_adjust" not in {
        e.name for e in tracer.by_kind(obsv.KIND_TENANT)
    }


# -- N-tenant generator determinism ----------------------------------------


def test_plan_tenants_is_deterministic():
    from repro.experiments.tenants import plan_tenants, traffic_trace

    a = plan_tenants(6, seed=42)
    b = plan_tenants(6, seed=42)
    assert a == b
    assert traffic_trace(6, seed=42) == traffic_trace(6, seed=42)
    assert plan_tenants(6, seed=43) != a


def test_plan_tenants_budget_and_classes():
    from repro.experiments.tenants import plan_tenants
    from repro.platform import DEFAULT_PLATFORM

    plans = plan_tenants(5, seed=7, spare_cores=2)
    names = [p.spec.name for p in plans]
    assert len(set(names)) == 5
    total = sum(p.spec.core_budget for p in plans)
    assert total == DEFAULT_PLATFORM.cores - 2
    classes = [p.spec.tenant_class for p in plans]
    assert classes[0] == CLASS_LATENCY_CRITICAL
    assert classes[1] == CLASS_BEST_EFFORT
    assert all(p.spec.slo_p99_latency for p in plans
               if p.spec.latency_critical)


def test_tenant_workloads_pass_validation():
    from repro.experiments.tenants import plan_tenants, tenant_workloads

    plans = plan_tenants(6, seed=3)
    workloads = tenant_workloads(plans)
    tenants = validate_core_budgets(workloads, cores=18)
    assert len(tenants) == 6
    assert not any(t.implicit for t in tenants)


# -- tenant-targeted fault injection ---------------------------------------


def test_fault_plan_describe_names_target():
    from repro.faults.plan import FaultPlan

    plan = FaultPlan.scaled(0.5, target_tenant="lpw")
    assert "target_tenant=lpw" in plan.describe()
    assert FaultPlan.scaled(0.5).describe().count("target_tenant") == 0


def test_targeted_chaos_spares_other_tenants():
    """A target no workload matches suppresses every telemetry and device
    fault while machine-wide control-plane faults keep firing."""
    from repro.faults.chaos import run_chaos

    res = run_chaos(1.0, epochs=10, fault_tenant="no-such-tenant")
    telemetry_and_device = (
        "samples_dropped", "samples_stale", "samples_corrupted",
        "zero_cycle_epochs", "nic_storms", "nvme_stalls", "phase_flips",
    )
    assert all(res.faults.get(k, 0) == 0 for k in telemetry_and_device)
    assert res.faults.get("cat_failures", 0) > 0


def test_targeted_chaos_hits_only_target():
    from repro.faults.chaos import run_chaos

    res = run_chaos(1.0, epochs=10, fault_tenant="lpw")
    assert sum(res.faults.values()) > 0
    assert res.ok


# -- the ablation-tenants figure ---------------------------------------------


def test_tenant_ablation_reports_every_tenant_and_replays():
    from repro.experiments import runcache
    from repro.experiments.figures import REGISTRY

    ablation = REGISTRY["ablation-tenants"]
    kwargs = dict(epochs=4, seed=0xA4, tenants=3, schemes=("a4", "ioca"))
    report = ablation(**kwargs)
    covered = {}
    for row in report.rows:
        covered.setdefault(row["scheme"], set()).add(row["tenant"])
    assert {scheme: len(names) for scheme, names in covered.items()} == {
        "a4": 3, "ioca": 3,
    }
    assert all(0.0 <= row["attainment"] <= 1.0 for row in report.rows)

    cache = runcache.get_cache()
    hits = cache.stats.hits
    assert ablation(**kwargs) == report
    assert cache.stats.hits == hits + 1
