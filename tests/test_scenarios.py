import math
import re
from pathlib import Path

import numpy as np
import pytest

import helpers
from entroscope import (
    MeasurementSetup,
    PureState,
    ValidationError,
    epr_singlet,
    ghz,
    joint_entropies,
    orthodox_reference,
    premeasure,
    run_cat,
    run_chsh,
    run_epr_measure,
    run_epr_pair,
    run_scenario,
    sample_records,
)
from entroscope import _pcg64, scenarios
from entroscope.entropy import PartitionSpec
from entroscope.measurement import (
    TSIRELSON_BOUND,
    chsh_value,
    device_partition,
    full_partition,
)
from entroscope.report import load_state, report_document, serialize_document
from entroscope.scenarios import ORTHODOX_LABEL

ORTHOGONAL = math.pi / 2


def test_epr_pair_report():
    rep = run_epr_pair()
    joints = rep.diagram.joints
    atoms = rep.diagram.atoms
    assert joints[("L",)] == pytest.approx(1.0, abs=1e-9)
    assert joints[("R",)] == pytest.approx(1.0, abs=1e-9)
    assert joints[("L", "R")] == pytest.approx(0.0, abs=1e-9)
    assert atoms[("L",)] == pytest.approx(-1.0, abs=1e-9)
    assert atoms[("R",)] == pytest.approx(-1.0, abs=1e-9)
    assert atoms[("L", "R")] == pytest.approx(2.0, abs=1e-9)
    assert len(rep.diagram.audit.monotonicity_violated) == 2


def test_epr_measure_parallel():
    rep = run_epr_measure(0.0, 0.0)
    dev = rep.reduced.atoms
    assert dev[("A1",)] == pytest.approx(0.0, abs=1e-9)
    assert dev[("A2",)] == pytest.approx(0.0, abs=1e-9)
    assert dev[("A1", "A2")] == pytest.approx(1.0, abs=1e-9)
    assert rep.diagram.center == pytest.approx(0.0, abs=1e-9)
    assert rep.q_devices_mutual == pytest.approx(2.0, abs=1e-9)
    assert rep.orthodox is not None and rep.orthodox["case"] == "parallel"


def test_epr_measure_orthogonal():
    for t1, t2 in ((0.0, ORTHOGONAL), (ORTHOGONAL, 0.0)):
        rep = run_epr_measure(t1, t2)
        dev = rep.reduced.atoms
        assert dev[("A1",)] == pytest.approx(1.0, abs=1e-9)
        assert dev[("A2",)] == pytest.approx(1.0, abs=1e-9)
        assert dev[("A1", "A2")] == pytest.approx(0.0, abs=1e-9)
        assert rep.diagram.center == pytest.approx(0.0, abs=1e-9)
        assert rep.orthodox is not None and rep.orthodox["case"] == "orthogonal"


def test_epr_measure_intermediate_angle():
    rep = run_epr_measure(0.0, math.pi / 4)
    mutual = rep.reduced.atoms[("A1", "A2")]
    expect = 1.0 - helpers.binary_entropy(math.sin(math.pi / 8) ** 2)
    assert mutual == pytest.approx(expect, abs=1e-9)
    assert mutual == pytest.approx(0.399123963307, abs=1e-9)
    assert 0.0 < mutual < 1.0
    assert rep.diagram.center == pytest.approx(0.0, abs=1e-9)
    assert rep.orthodox is None


def test_epr_measure_full_diagram_matches_independent_route():
    t1, t2 = 0.6, 1.2
    rep = run_epr_measure(t1, t2)
    setup = MeasurementSetup.of((0, t1, "A1"), (1, t2, "A2"))
    rho = premeasure(epr_singlet(), setup).to_density()
    factor_map = {"Q": (0, 1), "A1": (2,), "A2": (3,)}
    for subset, val in rep.diagram.joints.items():
        keep = [f for name in subset for f in factor_map[name]]
        red = helpers.brute_partial_trace(rho.matrix, (2, 2, 2, 2), keep)
        assert val == pytest.approx(helpers.entropy_oracle(red), abs=1e-9), subset


def test_epr_measure_normalizes_angles():
    rep = run_epr_measure(math.pi + 0.25, -math.pi / 4)
    assert rep.parameters["theta1"] == pytest.approx(0.25, abs=1e-12)
    assert rep.parameters["theta2"] == pytest.approx(3 * math.pi / 4, abs=1e-12)


def test_orthodox_attachment_tolerance():
    assert run_epr_measure(1e-7, 0.0).orthodox is not None
    assert run_epr_measure(1e-3, 0.0).orthodox is None
    assert run_epr_measure(0.0, ORTHOGONAL - 1e-7).orthodox is not None


def test_orthodox_attachment_wraps_angles_mod_pi():
    # theta and theta + pi are one axis: 3.14159265 is z to within 4e-9
    rep = run_epr_measure(3.14159265, 0.0)
    assert rep.orthodox is not None and rep.orthodox["case"] == "parallel"
    rep = run_epr_measure(math.pi - 1e-7, ORTHOGONAL)
    assert rep.orthodox is not None and rep.orthodox["case"] == "orthogonal"
    assert run_epr_measure(ORTHOGONAL, -2e-7).orthodox["case"] == "orthogonal"
    assert run_epr_measure(math.pi - 1e-3, 0.0).orthodox is None


def test_orthodox_reference_blocks():
    par = orthodox_reference("parallel")
    assert par["label"] == ORTHODOX_LABEL
    assert par["consistent"] is False
    assert par["joints"][("Q",)] == pytest.approx(2.0)
    assert par["joints"][("A1",)] == pytest.approx(1.0)
    assert par["joints"][("A2",)] == pytest.approx(1.0)
    assert par["atoms"][("Q", "A1", "A2")] == pytest.approx(1.0)

    orth = orthodox_reference("orthogonal")
    j = orth["joints"]
    dev_mutual = j[("A1",)] + j[("A2",)] - j[("A1", "A2")]
    assert dev_mutual == pytest.approx(0.0)

    for block in (par, orth):
        assert helpers.resum_joints(block["atoms"]) == block["joints"]
        assert block["warning"]

    with pytest.raises(ValidationError):
        orthodox_reference("diagonal")


def test_sampled_block_contents():
    rep = run_epr_measure(0.0, 0.0, shots=4000, seed=2)
    s = rep.sampled
    assert s["shots"] == 4000 and s["seed"] == 2
    assert set(s["counts"]) == {"00", "01", "10", "11"}
    assert s["counts"]["00"] == 0 and s["counts"]["11"] == 0
    assert s["counts"]["01"] + s["counts"]["10"] == 4000
    assert sum(s["frequencies"].values()) == pytest.approx(1.0, abs=1e-12)
    assert s["exact_mutual"] == pytest.approx(1.0, abs=1e-9)
    assert s["mutual"] == pytest.approx(1.0, abs=0.05)


def test_sampled_seed_defaults_to_zero():
    rep = run_epr_measure(0.0, 0.0, shots=10)
    assert rep.seed == 0
    assert rep.sampled["seed"] == 0


@pytest.mark.parametrize("grouping", ["atom", "atom_gamma"])
def test_cat_with_observer(grouping):
    rep = run_cat(with_observer=True, grouping=grouping)
    pair = rep.reduced.atoms
    assert pair[("cat",)] == pytest.approx(0.0, abs=1e-9)
    assert pair[("observer",)] == pytest.approx(0.0, abs=1e-9)
    assert pair[("cat", "observer")] == pytest.approx(1.0, abs=1e-9)
    assert rep.diagram.center == pytest.approx(0.0, abs=1e-9)
    assert rep.q_devices_mutual == pytest.approx(2.0, abs=1e-9)
    # merging any grouping of the chain reproduces the three-party GHZ numbers
    ghz_joints = joint_entropies(ghz(3).to_density(), PartitionSpec.of(A=[0], B=[1], C=[2]))
    by_size = {len(s): v for s, v in ghz_joints.items()}
    for subset, val in rep.diagram.joints.items():
        assert val == pytest.approx(by_size[len(subset)], abs=1e-9), subset


@pytest.mark.parametrize("grouping", ["atom", "atom_gamma"])
def test_cat_without_observer(grouping):
    rep = run_cat(with_observer=False, grouping=grouping)
    assert rep.diagram.joints[("cat",)] == pytest.approx(1.0, abs=1e-9)
    assert rep.q_devices_mutual == pytest.approx(2.0, abs=1e-9)
    assert rep.diagram.center is None and rep.reduced is None


@pytest.mark.parametrize("grouping", ["observer", ["atom"], np.array(["atom"]), np.array(["atom", "x"])],
                         ids=["unknown", "list", "one-string-array", "two-string-array"])
def test_cat_rejects_unknown_grouping(grouping):
    # an array is compared elementwise: one element passed for its string,
    # two raised numpy's ambiguous-truth ValueError
    with pytest.raises(ValidationError, match="^grouping must be one of "):
        run_cat(with_observer=True, grouping=grouping)


@pytest.mark.parametrize("with_observer", ["no", 2, np.array([1, 0]), None, 1.0],
                         ids=["string", "int", "array", "none", "float"])
def test_cat_refuses_a_non_bool_observer_before_building(monkeypatch, with_observer):
    def no_state(*args, **kwargs):
        raise AssertionError("state built")

    monkeypatch.setattr(scenarios, "cat_chain", no_state)
    with pytest.raises(ValidationError, match=f"^with_observer must be a bool, got {re.escape(repr(with_observer))}$"):
        run_cat(with_observer=with_observer)


@pytest.mark.parametrize("with_observer", [True, False, np.True_, np.False_])
def test_cat_takes_bools_and_numpy_bools(with_observer):
    rep = run_cat(with_observer=with_observer)
    assert rep.parameters["with_observer"] is bool(with_observer)
    assert (rep.reduced is not None) is bool(with_observer)


def test_chsh_canonical_block():
    rep = run_chsh()
    block = rep.chsh
    assert block["value"] == pytest.approx(-2.0 * math.sqrt(2.0), abs=1e-9)
    assert block["abs_value"] == pytest.approx(TSIRELSON_BOUND, abs=1e-9)
    assert block["classical_bound"] == 2.0
    assert block["tsirelson_bound"] == pytest.approx(TSIRELSON_BOUND, abs=1e-15)
    assert block["violates_classical"] is True
    assert "scan" not in block


def test_chsh_degenerate_angles_do_not_violate():
    rep = run_chsh(angles=(0.3, 0.3, 1.1, 1.1))
    assert rep.chsh["violates_classical"] is False


def test_chsh_scan_reproducible_and_bounded():
    a = run_chsh(scan_points=200, seed=12)
    b = run_chsh(scan_points=200, seed=12)
    assert a.chsh["scan"] == b.chsh["scan"]
    assert a.chsh["scan"]["points"] == 200
    assert a.chsh["scan"]["max_abs_value"] <= TSIRELSON_BOUND + 1e-9


def test_chsh_scan_blocks_continue_one_stream(monkeypatch):
    one_block = run_chsh(scan_points=100, seed=3).chsh["scan"]
    # 8 quadruples a block, the last of the 13 blocks cut short to 4
    monkeypatch.setattr(_pcg64, "_LANES", 32)
    assert run_chsh(scan_points=100, seed=3).chsh["scan"] == one_block
    quads = np.random.default_rng(3).uniform(0.0, 2 * math.pi, size=(100, 4))
    best = max(abs(chsh_value(*q)) for q in quads)
    assert one_block["max_abs_value"] == pytest.approx(best, abs=1e-12)


def test_chsh_validates_angle_count():
    with pytest.raises(ValidationError, match="4 angles"):
        run_chsh(angles=(0.0, 1.0, 2.0))


@pytest.mark.parametrize("angles, message", [
    (("a", 1, 2, 3), "chsh angle must be a real number, got 'a'"),
    (5, "chsh needs 4 angles, got 5"),
    ((math.nan, 0, 0, 0), "chsh angle must be finite, got nan"),
    ((0, 0, math.inf, 0), "chsh angle must be finite, got inf"),
    ((0, "0.5", 0, 0), "chsh angle must be a real number, got '0.5'"),
    ((0, 0, None, 0), "chsh angle must be a real number, got None"),
    ((0, 0, 0, 1j), "chsh angle must be a real number, got 1j"),
], ids=["string", "not-a-sequence", "nan", "inf", "numeric-string", "none", "complex"])
def test_chsh_refuses_bad_angles_before_evaluating(monkeypatch, angles, message):
    def no_evaluation(*args, **kwargs):
        raise AssertionError("evaluation started")

    monkeypatch.setattr(scenarios, "chsh_values", no_evaluation)
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        run_chsh(angles=angles)


def test_chsh_takes_numpy_angles_and_reports_floats():
    rep = run_chsh(angles=np.array(scenarios.CANONICAL_CHSH_ANGLES, np.float32))
    assert all(type(a) is float for a in rep.chsh["angles"])
    assert run_chsh(angles=(np.int64(0), True, 0.5, np.float64(2))).chsh["angles"] == (0.0, 1.0, 0.5, 2.0)


@pytest.mark.parametrize("value, message", [
    ("x", "angle must be a real number, got 'x'"),
    ("0.5", "angle must be a real number, got '0.5'"),
    (None, "angle must be a real number, got None"),
    (1 + 0j, "angle must be a real number, got (1+0j)"),
    (math.nan, "angle must be finite, got nan"),
    (-math.inf, "angle must be finite, got -inf"),
], ids=["string", "numeric-string", "none", "complex", "nan", "inf"])
def test_device_angles_are_finite_real_numbers(value, message):
    pattern = f"^{re.escape(message)}$"
    with pytest.raises(ValidationError, match=pattern):
        MeasurementSetup.of((0, value, "A"))
    with pytest.raises(ValidationError, match=pattern):
        run_epr_measure(value, 0.0)
    with pytest.raises(ValidationError, match=pattern):
        run_epr_measure(0.0, value, shots=10)


def test_run_scenario_dispatch():
    assert run_scenario("epr_pair").scenario == "epr_pair"
    rep = run_scenario("epr_measure", theta1=0.0, theta2=0.0)
    assert rep.scenario == "epr_measure"
    assert run_scenario("cat").scenario == "cat"
    assert run_scenario("chsh").scenario == "chsh"


def test_scenario_config_validation():
    with pytest.raises(ValidationError, match="unknown scenario"):
        run_scenario("bell")
    with pytest.raises(ValidationError, match="epr_measure needs theta1 and theta2"):
        run_scenario("epr_measure")
    with pytest.raises(ValidationError, match="shots must be >= 0, got -1"):
        run_scenario("epr_measure", theta1=0.0, theta2=0.0, shots=-1)


def test_scan_points_are_capped(monkeypatch):
    class ScanStarted(Exception):
        pass

    def no_scan(quads):
        raise ScanStarted

    monkeypatch.setattr(scenarios, "chsh_values", no_scan)
    cap = scenarios.MAX_SCAN_POINTS
    with pytest.raises(ScanStarted):  # the cap itself passes the check
        run_chsh(scan_points=cap)
    for points in (cap + 1, 10**17):
        with pytest.raises(ValidationError, match=f"scan points must be <= {cap}, got {points}"):
            run_scenario("chsh", scan_points=points)


def test_config_leaves_grouping_and_angle_count_to_the_scenario():
    with pytest.raises(ValidationError, match="grouping must be one of"):
        run_scenario("cat", grouping="photon")
    with pytest.raises(ValidationError, match="chsh needs 4 angles, got 3"):
        run_scenario("chsh", angles=(0.0, 1.0, 2.0))


@pytest.mark.parametrize("scenario_id, params, stray", [
    ("epr_pair", {"shots": 5}, "shots"),
    ("epr_pair", {"shots": 5, "theta1": 0.3, "grouping": "atom", "with_observer": True},
     "shots, theta1, grouping, with_observer"),
    ("epr_measure", {"theta1": 0.0, "theta2": 0.0, "scan_points": 3}, "scan_points"),
    ("cat", {"seed": 1}, "seed"),
    ("chsh", {"shots": 0}, "shots"),
])
def test_run_scenario_rejects_parameters_the_scenario_does_not_use(scenario_id, params, stray):
    with pytest.raises(ValidationError, match=f"^scenario {scenario_id} does not use {stray}$"):
        run_scenario(scenario_id, **params)


def test_scenario_parameters_follow_the_runners():
    assert scenarios.scenario_parameters("epr_pair") == ()
    assert scenarios.scenario_parameters("epr_measure") == (
        "theta1", "theta2", "shots", "seed")
    assert scenarios.scenario_parameters("cat") == ("with_observer", "grouping")
    assert scenarios.scenario_parameters("chsh") == ("angles", "scan_points", "seed")
    with pytest.raises(ValidationError, match="unknown scenario"):
        scenarios.scenario_parameters("bell")


def _sample(**kwargs):
    setup = MeasurementSetup.of((0, 0.0, "A1"), (1, 0.0, "A2"))
    return sample_records(premeasure(epr_singlet(), setup), setup, **{"shots": 5, "seed": 0, **kwargs})


@pytest.mark.parametrize("runner, kwargs, message", [
    (run_epr_measure, {"shots": -5}, "shots must be >= 0, got -5"),
    (run_epr_measure, {"shots": 5, "seed": -1}, "seed must be >= 0, got -1"),
    (run_chsh, {"scan_points": 5, "seed": -1}, "seed must be >= 0, got -1"),
    (run_chsh, {"scan_points": -3}, "scan points must be >= 0, got -3"),
    (run_chsh, {"scan_points": scenarios.MAX_SCAN_POINTS + 1},
     f"scan points must be <= {scenarios.MAX_SCAN_POINTS}, got {scenarios.MAX_SCAN_POINTS + 1}"),
    (run_epr_measure, {"shots": 10.5}, "shots must be an integer, got 10.5"),
    (run_epr_measure, {"shots": 5, "seed": None}, "seed must be an integer, got None"),
    (run_chsh, {"scan_points": 3.7}, "scan points must be an integer, got 3.7"),
    (run_chsh, {"scan_points": 5, "seed": 1.9}, "seed must be an integer, got 1.9"),
    (_sample, {"shots": 2.7}, "shots must be an integer, got 2.7"),
    (_sample, {"shots": -1}, "shots must be >= 1, got -1"),
    (_sample, {"seed": None}, "seed must be an integer, got None"),
    (_sample, {"seed": -1}, "seed must be >= 0, got -1"),
    (_sample, {"seed": 1.5}, "seed must be an integer, got 1.5"),
    (_sample, {"seed": "3"}, "seed must be an integer, got '3'"),
], ids=["negative-shots", "negative-measure-seed", "negative-scan-seed", "negative-scan",
        "scan-over-the-cap", "fractional-shots", "no-measure-seed", "fractional-scan",
        "fractional-scan-seed", "sample-fractional-shots", "sample-negative-shots",
        "sample-no-seed", "sample-negative-seed", "sample-fractional-seed", "sample-string-seed"])
def test_runners_check_their_own_inputs(monkeypatch, runner, kwargs, message):
    # library callers who skip the CLI get the checks it relies on, before
    # anything is sampled or scanned: a fraction is refused, not truncated,
    # and no value reaches the random stream, whose seeding reads only
    # non-negative Python ints
    def no_draw(*args, **kwargs):
        raise AssertionError("drawing started")

    for owner, name in ((_pcg64, "uniforms"), (scenarios, "chsh_values"),
                        (scenarios, "sample_records")):
        monkeypatch.setattr(owner, name, no_draw)
    args = (0.0, 0.0) if runner is run_epr_measure else ()
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        runner(*args, **kwargs)


def test_runners_report_shots_seeds_and_scan_points_as_ints():
    # bools and numpy integers are integers; the report carries them as int,
    # so the document prints 1, not true
    rep = run_epr_measure(0.0, 0.0, shots=True, seed=np.int64(2))
    assert type(rep.parameters["shots"]) is int and rep.parameters["shots"] == 1
    assert type(rep.seed) is int and rep.seed == 2
    text = serialize_document(report_document(rep))
    assert '"shots": 1, "chunk_size": null' in text and '"shots": true' not in text
    scan = run_chsh(scan_points=np.int32(3), seed=np.uint8(4))
    assert type(scan.parameters["scan_points"]) is int and scan.chsh["scan"]["points"] == 3
    assert type(scan.seed) is int and scan.chsh["scan"]["seed"] == 4
    # the seed defaults to 0 whether or not anything is drawn
    assert run_epr_measure(0.0, 0.0).seed == 0
    assert run_chsh().seed == 0


def test_diagram_bundle_of_traces_out_uncovered_factors():
    rho = ghz(4).to_density()
    bundle = scenarios.DiagramBundle.of(rho, PartitionSpec.of(X=[3], Y=[1]))
    assert list(bundle.factors.items()) == [("X", (3,)), ("Y", (1,))]
    assert bundle.joints == pytest.approx({("X",): 1.0, ("Y",): 1.0, ("X", "Y"): 1.0})
    assert bundle.atoms[("X", "Y")] == pytest.approx(1.0)
    assert bundle.audit.monotonicity_violated == ()
    full = scenarios.DiagramBundle.of(rho, PartitionSpec.of(X=[0, 2, 3], Y=[1]))
    assert full.joints == joint_entropies(rho, PartitionSpec.of(X=[0, 2, 3], Y=[1]))


def _pure_states_and_partitions():
    """Pure states with full and partial partitions: the golden files,
    ghz(4), and the singlet premeasured at random angles."""
    states = Path(__file__).parent / "golden" / "states"
    yield load_state(states / "pure4.json"), [
        PartitionSpec.of(A=[0], B=[1], C=[2, 3]),
        PartitionSpec.of(X=[1], Y=[3]),
    ]
    yield load_state(states / "pure6.json"), [
        PartitionSpec.of(A=[0, 1], B=[2, 3], C=[4, 5]),
        PartitionSpec.of(A=[0], B=[1], C=[2], D=[3], E=[4, 5]),
        PartitionSpec.of(A=[5], B=[0, 2], C=[4]),
    ]
    yield ghz(4), [
        PartitionSpec.of(X=[0, 2, 3], Y=[1]),
        PartitionSpec.of(A=[0], B=[1], C=[2], D=[3]),
        PartitionSpec.of(X=[3], Y=[1]),
    ]
    rng = np.random.default_rng(71)
    for _ in range(8):
        t1, t2 = rng.uniform(-7.0, 7.0, size=2)
        setup = MeasurementSetup.of((0, float(t1), "A1"), (1, float(t2), "A2"))
        post = premeasure(epr_singlet(), setup)
        yield post, [full_partition(post, setup), device_partition(post, setup)]


def test_diagram_bundle_of_a_pure_state_agrees_with_its_density():
    # The Schmidt route against the dense one, kept in helpers as the
    # oracle, within 1e-12 a joint; an atom or slack sums at most
    # 2**(parties - 1) joints with signs.  Then against 40 digits.
    cases = 0
    for state, partitions in _pure_states_and_partitions():
        assert isinstance(state, PureState)
        for partition in partitions:
            bundle = scenarios.DiagramBundle.of(state, partition)
            dense = scenarios.DiagramBundle.of(state.to_density(), partition)
            assert dense.joints == helpers.dense_joint_entropies(state, partition)
            assert bundle.factors == dense.factors and list(bundle.joints) == list(dense.joints)
            assert all(abs(v - dense.joints[k]) < 1e-12 for k, v in bundle.joints.items())
            tol = 2 ** (len(partition.names) - 1) * 1e-12
            assert list(bundle.atoms) == list(dense.atoms)
            assert all(abs(v - dense.atoms[k]) < tol for k, v in bundle.atoms.items())
            assert bundle.audit.monotonicity_violated == dense.audit.monotonicity_violated
            for name in ("subadditivity", "triangle", "strong_subadditivity"):
                a, b = (getattr(x.audit, f"{name}_worst_slack") for x in (bundle, dense))
                assert (a is None) == (b is None) and (a is None or abs(a - b) < tol)
            helpers.assert_joints_match_reference(state, bundle.joints, partition.factors_of)
            cases += 1
    assert cases == 24


def test_reports_are_reproducible():
    def doc():
        rep = run_epr_measure(0.3, 1.1, shots=500, seed=9)
        return serialize_document(report_document(rep))

    assert doc() == doc()
