import math

import pytest

from vet.channel_sim import (
    DEFAULT_M,
    POLICY_SUMMARIZED,
    SESSION_CAP,
    CalibrationPoint,
    CostModel,
    SessionWorkload,
    calibrate,
    direct_latency,
    first_round_latency,
    paper_calibration,
    plan,
    proxied_latency,
    simulate,
)
from vet.errors import ValidationError


def test_workload_byte_formula():
    w = SessionWorkload(rounds=6)
    for k in range(1, 7):
        assert w.up_bytes(k) == k * 500 + (k - 1) * 1000 + 5000
        assert w.down_bytes(k) == 1000
    assert w.round_bytes(3) == w.up_bytes(3) + 1000


def test_summarized_policy_caps_history():
    w = SessionWorkload(rounds=20, history_policy=POLICY_SUMMARIZED, summary_cap=2000)
    assert w.up_bytes(20) == 2000 + 5000
    assert w.up_bytes(1) == 500 + 5000  # below the cap, unchanged
    with pytest.raises(ValidationError):
        SessionWorkload(rounds=2, history_policy=POLICY_SUMMARIZED)


def test_naive_feasibility_boundary():
    assert plan("naive", SessionWorkload(rounds=6), 4096).feasible
    seven = plan("naive", SessionWorkload(rounds=7), 4096)
    assert not seven.feasible
    assert seven.failing_round == 7
    with pytest.raises(ValidationError):
        seven.require_feasible()


def test_optimized_feasibility_extends_past_naive_limit():
    assert plan("optimized", SessionWorkload(rounds=32), 4096).feasible
    # Infeasible only once one round's own request outgrows the session cap.
    assert not plan("optimized", SessionWorkload(rounds=42), 4096).feasible


def test_optimized_channels_are_base_multiples():
    channels = plan("optimized", SessionWorkload(rounds=6), 4096).channels
    assert len(channels) == 6
    w = SessionWorkload(rounds=6)
    for k, c in enumerate(channels, 1):
        assert c.cap_up % 4096 == 0 and c.cap_down % 4096 == 0
        assert c.cap_up == math.ceil(w.up_bytes(k) / 4096) * 4096
        assert c.cap_up >= w.up_bytes(k)


def test_naive_channel_covers_whole_dialogue():
    w = SessionWorkload(rounds=6)
    (channel,) = plan("naive", w, 4096).channels
    assert channel.cap_up == sum(w.up_bytes(k) for k in range(1, 7))
    assert channel.cap_down == 6000


def test_unknown_strategy():
    with pytest.raises(ValidationError):
        plan("magic", SessionWorkload(rounds=2))


def test_simulate_exact_arithmetic():
    model = CostModel(
        setup_base=1.0,
        setup_per_byte=1e-4,
        transfer_per_byte=1e-5,
        rtt=0.05,
        api_latency=2.0,
    )
    w = SessionWorkload(rounds=3)
    naive = simulate(plan("naive", w, 4096), model)
    (channel,) = plan("naive", w, 4096).channels
    setup = 1.0 + 1e-4 * (channel.cap_up + channel.cap_down)
    rounds = [0.05 + 1e-5 * w.round_bytes(k) + 2.0 for k in range(1, 4)]
    assert naive.setup_total == pytest.approx(setup)
    assert naive.setup_cost_total == pytest.approx(setup)
    assert naive.per_round == pytest.approx(tuple(rounds))
    assert naive.total == pytest.approx(setup + sum(rounds))

    optimized = simulate(plan("optimized", w, 4096), model)
    setups = [
        1.0 + 1e-4 * (c.cap_up + c.cap_down)
        for c in plan("optimized", w, 4096).channels
    ]
    # Overlap bound: only the part of setup k that outlives round k-1 is felt.
    expected_delays = [setups[0]] + [
        max(0.0, setups[k] - rounds[k - 1]) for k in range(1, 3)
    ]
    assert optimized.per_round_setup_delay == pytest.approx(tuple(expected_delays))
    assert optimized.setup_total == pytest.approx(sum(expected_delays))
    assert optimized.setup_cost_total == pytest.approx(sum(setups))
    assert optimized.total == pytest.approx(
        sum(expected_delays) + sum(rounds)
    )


def test_per_message_overhead_excludes_api_time():
    model = CostModel(setup_per_byte=1e-4, transfer_per_byte=1e-5, api_latency=2.0)
    w = SessionWorkload(rounds=3)
    naive = simulate(plan("naive", w, 4096), model)
    (channel,) = plan("naive", w, 4096).channels
    transfer = sum(1e-5 * w.round_bytes(k) for k in range(1, 4))
    expected = (1e-4 * (channel.cap_up + channel.cap_down) + transfer) / 3
    assert naive.per_message_overhead == pytest.approx(expected)


def test_calibrate_recovers_synthetic_model_exactly():
    truth = CostModel(
        setup_base=0.3,
        setup_per_byte=2e-4,
        transfer_per_byte=5e-5,
        api_latency=1.5,
    )
    w = SessionWorkload(rounds=6)
    naive = simulate(plan("naive", w, 4096), truth)
    optimized = simulate(plan("optimized", w, 4096), truth)
    points = [
        CalibrationPoint("naive-setup", 6, naive.setup_total),
        CalibrationPoint("optimized-setup", 6, simulate_visible_setup(truth)),
        CalibrationPoint("naive-per-message", 6, naive.per_message_overhead),
        CalibrationPoint(
            "first-round", 1, first_round_latency(SessionWorkload(rounds=1), truth)
        ),
    ]
    # Use only rows that are exact linear functions of the parameters.
    points[1] = CalibrationPoint(
        "optimized-setup",
        6,
        truth.setup_base
        + truth.setup_per_byte
        * (
            plan("optimized", w, 4096).channels[0].cap_up
            + plan("optimized", w, 4096).channels[0].cap_down
        ),
    )
    fitted = calibrate(points, api_latency=1.5, workload=w, base_capacity=4096)
    assert fitted.setup_base == pytest.approx(truth.setup_base, abs=1e-9)
    assert fitted.setup_per_byte == pytest.approx(truth.setup_per_byte, rel=1e-9)
    assert fitted.transfer_per_byte == pytest.approx(truth.transfer_per_byte, rel=1e-9)


def simulate_visible_setup(model):
    w = SessionWorkload(rounds=6)
    return simulate(plan("optimized", w, 4096), model).setup_total


def test_calibrate_input_validation():
    with pytest.raises(ValidationError):
        calibrate([CalibrationPoint("naive-setup", 6, 9.8)], api_latency=1.8)
    bad = [
        CalibrationPoint("naive-setup", 6, 9.8),
        CalibrationPoint("naive-setup", 6, 9.9),
        CalibrationPoint("bogus-kind", 6, 1.0),
    ]
    with pytest.raises(ValidationError):
        calibrate(bad, api_latency=1.8)


def test_paper_calibration_within_tolerance():
    model, workload = paper_calibration()
    naive = simulate(plan("naive", workload, 4096), model)
    optimized = simulate(plan("optimized", workload, 4096), model)
    checks = [
        (naive.setup_total, 9.8),
        (optimized.setup_total, 1.5),
        (naive.per_message_overhead, 2.1),
        (optimized.per_message_overhead, 2.5),
        (first_round_latency(SessionWorkload(rounds=1), model), 2.46),
    ]
    for predicted, observed in checks:
        assert abs(predicted - observed) / observed <= 0.20


def test_paper_calibration_prediction_fixed_point():
    # Feeding the model's own predictions back through calibrate must
    # reproduce those predictions (stability in prediction space).
    model, workload = paper_calibration()
    naive = simulate(plan("naive", workload, 4096), model)
    optimized = simulate(plan("optimized", workload, 4096), model)
    first = first_round_latency(SessionWorkload(rounds=1), model)
    points = [
        CalibrationPoint("naive-setup", 6, naive.setup_total),
        CalibrationPoint("optimized-setup", 6, optimized.setup_total),
        CalibrationPoint("naive-per-message", 6, naive.per_message_overhead),
        CalibrationPoint("optimized-per-message", 6, optimized.per_message_overhead),
        CalibrationPoint("first-round", 1, first),
    ]
    refit = calibrate(points, api_latency=1.8, workload=workload, base_capacity=4096)
    naive2 = simulate(plan("naive", workload, 4096), refit)
    optimized2 = simulate(plan("optimized", workload, 4096), refit)
    assert naive2.setup_total == pytest.approx(naive.setup_total, rel=0.01)
    # Optimized visible setup contains a max(0, .) term, so it is not an
    # exact linear function of the parameters; its refit drifts more.
    assert optimized2.setup_total == pytest.approx(optimized.setup_total, rel=0.10)
    assert naive2.per_message_overhead == pytest.approx(
        naive.per_message_overhead, rel=0.01
    )
    assert optimized2.per_message_overhead == pytest.approx(
        optimized.per_message_overhead, rel=0.03
    )


def test_latency_ordering_and_proxy_band():
    model, workload = paper_calibration()
    direct = direct_latency(workload, model)
    proxied = proxied_latency(workload, model)
    notarized = first_round_latency(workload, model)
    assert direct < proxied < notarized
    assert 0.01 <= (proxied - direct) / direct <= 0.20


def test_total_latency_crossover():
    # Naive wins a one-round dialogue; optimized wins from two rounds on.
    model, _ = paper_calibration()
    for rounds, optimized_wins in [(1, False), (2, True), (6, True)]:
        w = SessionWorkload(rounds=rounds)
        naive = simulate(plan("naive", w, 4096), model)
        optimized = simulate(plan("optimized", w, 4096), model)
        assert (optimized.total < naive.total) == optimized_wins


def test_per_round_latency_monotone_under_full_retransmit():
    model, workload = paper_calibration()
    naive = simulate(plan("naive", workload, 4096), model)
    assert list(naive.per_round) == sorted(naive.per_round)


def test_cost_model_persistence(tmp_path):
    model, _ = paper_calibration()
    path = tmp_path / "model.json"
    model.save(path)
    loaded = CostModel.load(path)
    for name in (
        "setup_base",
        "setup_per_byte",
        "transfer_per_byte",
        "rtt",
        "api_latency",
        "proxy_overhead",
    ):
        assert getattr(loaded, name) == pytest.approx(getattr(model, name), rel=1e-10)


def test_cost_model_validation():
    with pytest.raises(ValidationError):
        CostModel(setup_base=-0.1)
    with pytest.raises(ValidationError):
        CostModel(setup_base=math.nan)
    with pytest.raises(ValidationError):
        SessionWorkload(rounds=0)
