"""Scenario configs: validation with dotted-path errors, effective-config
echo, content hashing, and YAML loading."""

import ast
import copy
import hashlib
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from chlab import config
from chlab.config import (
    INITIAL_KINDS,
    POTENTIAL_SHAPES,
    WEIGHT_KINDS,
    ConfigError,
    Scenario,
    canonical_json,
    content_digest,
    load_scenario,
    parse_scenario,
    scenario_from_dict,
)
from chlab.field import Grid
from chlab.scenarios import (BUILTIN_SCENARIOS, builtin_names,
                             builtin_scenario, describe_builtins)
from chlab.weights import StandardFamily

TINY = {
    "name": "tiny",
    "grid": {"L": 20.0, "N": 256},
    "initial_data": {"kind": "gaussian", "amplitude": 1.0, "width": 1.0,
                     "center": 0.0},
    "solver": {"t_end": 0.1},
}


def tiny(**overrides) -> dict:
    data = {k: (dict(v) if isinstance(v, dict) else v) for k, v in TINY.items()}
    data.update(overrides)
    return data


class TestValidation:
    def test_minimal_config_parses(self):
        s = scenario_from_dict(TINY)
        assert s.name == "tiny"
        assert s.grid.N == 256
        assert s.solver.t_end == 0.1
        assert s.weights_to_track == ()
        assert not s.profiles_enabled and s.predictors_enabled
        assert s.rate_cap_factor is None

    @pytest.mark.parametrize("section", ["grid", "initial_data", "solver"])
    def test_required_sections(self, section):
        data = tiny()
        del data[section]
        with pytest.raises(ConfigError, match=rf"^{section}: required$"):
            scenario_from_dict(data)

    def test_name_required_and_clean(self):
        data = tiny()
        del data["name"]
        with pytest.raises(ConfigError, match="name: required"):
            scenario_from_dict(data)
        with pytest.raises(ConfigError, match="spaces or slashes"):
            scenario_from_dict(tiny(name="has space"))
        with pytest.raises(ConfigError, match="spaces or slashes"):
            scenario_from_dict(tiny(name="a/b"))

    def test_unknown_top_key_lists_allowed(self):
        with pytest.raises(ConfigError, match="unknown key.*'extra'.*allowed:"):
            scenario_from_dict(tiny(extra=1))

    def test_grid_errors_carry_dotted_paths(self):
        with pytest.raises(ConfigError, match="grid.N: required"):
            scenario_from_dict(tiny(grid={"L": 20.0}))
        with pytest.raises(ConfigError, match="grid: .*power of two"):
            scenario_from_dict(tiny(grid={"L": 20.0, "N": 100}))
        with pytest.raises(ConfigError, match="grid.N: expected an integer"):
            scenario_from_dict(tiny(grid={"L": 20.0, "N": 256.5}))
        with pytest.raises(ConfigError, match="grid.L: expected a number"):
            scenario_from_dict(tiny(grid={"L": "wide", "N": 256}))

    def test_initial_kind_error_lists_choices(self):
        bad = tiny(initial_data={"kind": "sine"})
        with pytest.raises(
            ConfigError,
            match="initial_data.kind: unknown initial-data kind 'sine'.*gaussian",
        ):
            scenario_from_dict(bad)

    def test_initial_unknown_field(self):
        bad = tiny(initial_data=dict(TINY["initial_data"], skew=2.0))
        with pytest.raises(ConfigError, match="initial_data: unknown key.*'skew'"):
            scenario_from_dict(bad)

    def test_potential_shape_validated(self):
        bad = tiny(initial_data={"kind": "from_potential",
                                 "m0": {"shape": "box"}})
        with pytest.raises(ConfigError, match="initial_data.m0.shape"):
            scenario_from_dict(bad)

    def test_solver_errors_carry_dotted_paths(self):
        data = tiny(solver={})
        with pytest.raises(ConfigError, match="solver.t_end: required"):
            scenario_from_dict(data)
        with pytest.raises(ConfigError, match="solver: .*cfl"):
            scenario_from_dict(tiny(solver={"t_end": 0.1, "cfl": 0.0}))
        with pytest.raises(ConfigError, match="solver.dealias: expected true/false"):
            scenario_from_dict(tiny(solver={"t_end": 0.1, "dealias": "yes"}))

    def test_tracked_weight_paths(self):
        bad = tiny(weights_to_track=[{"p": 2}])
        with pytest.raises(ConfigError, match=r"weights_to_track\[0\].weight: required"):
            scenario_from_dict(bad)
        bad = tiny(weights_to_track=[
            {"weight": {"kind": "standard"}, "p": 0.5}])
        with pytest.raises(ConfigError, match=r"weights_to_track\[0\].p: .*>= 1"):
            scenario_from_dict(bad)
        bad = tiny(weights_to_track=[
            {"weight": {"kind": "gaussian_weight"}}])
        with pytest.raises(
            ConfigError, match=r"weights_to_track\[0\].weight.kind: unknown"
        ):
            scenario_from_dict(bad)
        with pytest.raises(ConfigError, match="expected a list"):
            scenario_from_dict(tiny(weights_to_track="all"))

    def test_p_accepts_inf_spelling(self):
        s = scenario_from_dict(tiny(weights_to_track=[
            {"weight": {"kind": "standard", "a": 0.5}, "p": "inf"}]))
        assert math.isinf(s.weights_to_track[0].p)
        echoed = s.effective_config()["weights_to_track"][0]["p"]
        assert echoed == "inf"
        with pytest.raises(ConfigError, match="expected a number or 'inf'"):
            scenario_from_dict(tiny(weights_to_track=[
                {"weight": {"kind": "standard"}, "p": "sup"}]))

    # null is what YAML gives for the key left with nothing under it
    @pytest.mark.parametrize("tracked", [{}, {"weights_to_track": None},
                                         {"weights_to_track": []}],
                             ids=["omitted", "null", "empty"])
    def test_no_tracked_weights(self, tracked):
        s = scenario_from_dict(tiny(**tracked))
        assert s.weights_to_track == ()
        assert s.effective_config()["weights_to_track"] == []

    def test_null_rate_cap_factor_is_none(self):
        assert scenario_from_dict(tiny(rate_cap_factor=None)).rate_cap_factor is None

    @pytest.mark.parametrize("field, value", [
        ("name", "a b"), ("name", ""), ("rate_cap_factor", 1.0)])
    def test_scenario_checks_its_own_fields(self, field, value):
        s = scenario_from_dict(TINY)
        with pytest.raises(ConfigError) as info:
            replace(s, **{field: value})
        assert info.value.path == field

    def test_rate_cap_factor_must_exceed_one(self):
        with pytest.raises(ConfigError, match="rate_cap_factor: must exceed 1"):
            scenario_from_dict(tiny(rate_cap_factor=1.0))
        s = scenario_from_dict(tiny(rate_cap_factor=1.5))
        assert s.rate_cap_factor == 1.5

    def test_noncertifiable_tracked_weight_warns_but_parses(self):
        data = tiny(weights_to_track=[
            {"weight": {"kind": "standard", "a": 0.1, "b": 2.0}, "p": 2}])
        s = parse_scenario(yaml.safe_dump(data))
        assert not s.weights_to_track[0].weight.certifiable
        [message] = s.weight_warnings()
        assert "faster than exponential" in message
        assert scenario_from_dict(data) == s

    def test_every_reader_gives_one_scenario_and_its_warnings(self, tmp_path):
        # one message per uncertifiable weight, in weights_to_track order
        data = tiny(name="w", weights_to_track=[
            {"weight": {"kind": "standard", "a": 0.1, "b": 2.0}},
            {"weight": {"kind": "standard", "c": 2.0}},
            {"weight": {"kind": "standard", "c": -1.0}}])
        path = tmp_path / "w.yaml"
        path.write_text(yaml.safe_dump(data))
        readers = [parse_scenario(path.read_text()), load_scenario(path),
                   scenario_from_dict(data)]
        assert readers[0] == readers[1] == readers[2]
        said = [s.weight_warnings() for s in readers]
        assert said[0] == said[1] == said[2]
        assert [m.split(":")[0] for m in said[0]] == [
            "weights_to_track[0]", "weights_to_track[2]"]

    @pytest.mark.parametrize("weight,condition", [
        ({"kind": "standard", "a": -0.5, "b": 1.0}, "(a < 0)"),
        ({"kind": "standard", "c": -1.0}, "(c < 0)"),
        ({"kind": "standard", "a": -0.5, "b": 1.0, "d": -1.0},
         "(a < 0, d < 0)"),
        ({"kind": "one_sided", "a": -0.5}, "(a < 0)"),
        ({"kind": "truncated", "cap": 10.0,
          "base": {"kind": "standard", "c": -1.0}}, "(c < 0)"),
    ])
    def test_decaying_tracked_weight_warns_with_its_condition(self, weight,
                                                              condition):
        data = tiny(weights_to_track=[{"weight": weight}])
        s = parse_scenario(yaml.safe_dump(data))
        [message] = s.weight_warnings()
        assert f"has a negative exponent {condition}" in message
        assert not s.weights_to_track[0].weight.certifiable

    def test_growth_exponent_without_exponential_factor_is_quiet(self):
        # a = 0 makes b moot: the weight is (1+|x|)
        data = tiny(weights_to_track=[
            {"weight": {"kind": "standard", "a": 0.0, "b": 2.0, "c": 1.0}}])
        s = parse_scenario(yaml.safe_dump(data))
        assert s.weights_to_track[0].weight.certifiable
        assert s.weight_warnings() == []

    def test_boundary_contaminated_initial_rejected(self):
        # tails of e^{-|x|/10} are ~e^{-2} at the edge of a half-width-20 box
        bad = tiny(initial_data={"kind": "mollified_exponential",
                                 "amplitude": 1.0, "rate": 0.1,
                                 "center": 0.0, "mollify_width": 0.1})
        s = scenario_from_dict(bad)  # the decode builds no datum
        assert isinstance(s, Scenario)
        with pytest.raises(ConfigError, match="boundary-contaminated on grid"):
            s.build_initial()

    def test_boundary_check_honours_a_tighter_solver_tol(self):
        # edge ~1.5e-11: under the 1e-10 default, over boundary_tol 1e-12
        data = tiny(grid={"L": 25.0, "N": 1024},
                    initial_data={"kind": "mollified_exponential", "rate": 1})
        scenario_from_dict(data).build_initial()
        data["solver"] = {"t_end": 0.1, "boundary_tol": 1.0e-12}
        with pytest.raises(ConfigError, match="exceeds 1e-12"):
            scenario_from_dict(data).build_initial()

    def test_non_finite_initial_samples_rejected(self):
        bad = tiny(initial_data={"kind": "odd_gaussian_derivative",
                                 "amplitude": 1.0e308})
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ConfigError, match="initial_data: non-finite"):
            scenario_from_dict(bad).build_initial()

    @pytest.mark.parametrize("value", [-1.0, 0.0])
    @pytest.mark.parametrize("initial, path, field", [
        ({"kind": "gaussian"}, "initial_data", "width"),
        ({"kind": "odd_gaussian_derivative"}, "initial_data", "width"),
        ({"kind": "from_potential", "m0": {"shape": "gaussian"}},
         "initial_data.m0", "width"),
        ({"kind": "from_potential", "m0": {"shape": "tanh_gaussian"}},
         "initial_data.m0", "slope_width"),
        ({"kind": "from_potential", "m0": {"shape": "tanh_gaussian"}},
         "initial_data.m0", "envelope_width"),
        ({"kind": "mollified_peakon"}, "initial_data", "mollify_width"),
        ({"kind": "mollified_exponential"}, "initial_data", "rate"),
        ({"kind": "mollified_exponential"}, "initial_data", "mollify_width"),
    ], ids=["gaussian", "odd-gaussian-derivative", "m0-gaussian",
            "m0-tanh-slope", "m0-tanh-envelope", "mollified-peakon-width",
            "mollified-exponential-rate", "mollified-exponential-width"])
    def test_non_positive_width_rejected(self, initial, path, field, value):
        # a negative width used to restate a positive one under another
        # config hash; a zero one divided by zero.  The decode refuses
        # either without building the datum.
        initial = copy.deepcopy(initial)
        initial.get("m0", initial)[field] = value
        with pytest.raises(ConfigError) as err:
            scenario_from_dict(tiny(initial_data=initial))
        assert str(err.value) == (f"{path}: {field} must be positive, "
                                  f"got {value}")

    def test_zero_initial_samples_rejected(self):
        # the predictors and the rate cap are relative to u0, so zero data
        # would otherwise fail inside the run
        bad = tiny(grid={"L": 20.0, "N": 256},
                   initial_data={"kind": "gaussian", "amplitude": 0.0})
        s = scenario_from_dict(bad)
        assert isinstance(s, Scenario)
        with pytest.raises(ConfigError,
                           match="initial_data: all samples are zero"):
            s.build_initial()

    @pytest.mark.parametrize("key, value, match", [
        ("initial_data", "{kind: gaussian, amplitude: true}",
         "initial_data.amplitude: expected a number, got bool True"),
        ("initial_data", "{kind: gaussian, amplitude: big}",
         "initial_data.amplitude: expected a number, got str 'big'"),
        ("initial_data", "{kind: gaussian, amplitude: .nan}",
         "initial_data.amplitude: expected a finite number"),
        ("initial_data", "{kind: from_potential, m0: {shape: gaussian, width: x}}",
         "initial_data.m0.width: expected a number"),
        ("name", "5", "name: expected a string, got int 5"),
    ], ids=["bool", "str", "nan", "potential-field", "name"])
    def test_nested_initial_fields_are_type_checked(self, key, value, match):
        lines = {"name": "t", "grid": "{L: 20.0, N: 256}",
                 "initial_data": "{kind: gaussian}", "solver": "{t_end: 0.1}",
                 key: value}
        text = "".join(f"{k}: {v}\n" for k, v in lines.items())
        with pytest.raises(ConfigError, match=match):
            parse_scenario(text)

    @pytest.mark.parametrize("weight, match", [
        ("{kind: standard, a: true}", r"\.weight\.a: expected a number"),
        ("{kind: standard, a: .inf}", r"\.weight\.a: expected a finite"),
        ("{kind: one_sided}", r"\.weight\.a: required"),
        ("{kind: truncated, cap: 5.0, base: {kind: one_sided, a: yes}}",
         r"\.weight\.base\.a: expected a number"),
    ], ids=["bool", "inf", "missing", "truncated-base"])
    def test_nested_weight_fields_are_type_checked(self, weight, match):
        text = (f"name: t\ngrid: {{L: 20.0, N: 256}}\n"
                f"initial_data: {{kind: gaussian}}\nsolver: {{t_end: 0.1}}\n"
                f"weights_to_track:\n  - weight: {weight}\n")
        with pytest.raises(ConfigError, match=r"weights_to_track\[0\]" + match):
            parse_scenario(text)


class TestEffectiveConfigAndHash:
    def test_echo_spells_out_every_default(self):
        eff = scenario_from_dict(TINY).effective_config()
        assert sorted(eff) == [
            "grid", "initial_data", "name", "predictors_enabled",
            "profiles_enabled", "rate_cap_factor", "solver",
            "weights_to_track",
        ]
        assert sorted(eff["solver"]) == [
            "boundary_tol", "cfl", "dealias", "dt_floor", "dt_max",
            "slope_stop", "snapshot_stride", "t_end",
        ]
        assert eff["solver"]["cfl"] == 0.3
        assert eff["weights_to_track"] == []

    def test_echo_reparses_to_the_same_hash(self):
        s = scenario_from_dict(TINY)
        again = scenario_from_dict(s.effective_config())
        assert again.content_hash() == s.content_hash()
        assert again == s

    def test_hash_canary(self):
        # frozen: any change to defaults, canonicalization, or echo layout
        # shows up here before it silently relocates artifact directories
        s = scenario_from_dict(TINY)
        assert s.content_hash() == "3ccc62056ab5"
        assert s.run_dirname() == "tiny-3ccc62056ab5"

    def test_explicit_default_hashes_like_omitted_default(self):
        explicit = tiny(solver={"t_end": 0.1, "cfl": 0.3})
        assert (scenario_from_dict(explicit).content_hash()
                == scenario_from_dict(TINY).content_hash())

    def test_any_value_change_moves_the_hash(self):
        changed = tiny(solver={"t_end": 0.2})
        assert (scenario_from_dict(changed).content_hash()
                != scenario_from_dict(TINY).content_hash())

    def test_canonical_json_is_order_insensitive(self):
        a = canonical_json({"b": 1, "a": [1, 2]})
        b = canonical_json({"a": [1, 2], "b": 1})
        assert a == b == '{"a":[1,2],"b":1}'

    def test_with_profiles_flips_one_flag(self):
        s = scenario_from_dict(TINY)
        p = s.with_profiles()
        assert p.profiles_enabled and not s.profiles_enabled
        assert p.content_hash() != s.content_hash()

    def test_tracked_weights_roundtrip(self):
        data = tiny(weights_to_track=[
            {"weight": {"kind": "standard", "a": 0.5, "c": 1.0}, "p": 2},
            {"weight": {"kind": "one_sided", "a": 0.25}},
        ])
        s = scenario_from_dict(data)
        assert s.weights_to_track[0].weight == StandardFamily(a=0.5, c=1.0)
        assert s.weights_to_track[1].p == math.inf
        again = scenario_from_dict(s.effective_config())
        assert again.weights_to_track == s.weights_to_track


# One non-default example per registered kind and shape.  The echo test
# below is parametrized over the registries, so a kind added without an
# entry here fails instead of shipping without echo coverage.
EXAMPLES = {
    "initial_data": {
        "mollified_peakon": {"c": 1.5, "x0": -2.0, "mollify_width": 0.1},
        "mollified_exponential": {"amplitude": 0.5, "rate": 1.2,
                                  "center": 1.0, "mollify_width": 0.2},
        "gaussian": {"amplitude": 2.0, "width": 0.7, "center": -1.0},
        "odd_gaussian_derivative": {"amplitude": 3.0, "width": 1.1},
        "from_potential": {"m0": {"shape": "gaussian", "width": 2.0}},
    },
    "potential": {
        "gaussian": {"amplitude": 0.5, "width": 2.0, "center": 1.0},
        "tanh_gaussian": {"amplitude": 1.0, "slope_width": 0.5,
                          "envelope_width": 4.0},
    },
    "weight": {
        "standard": {"a": 0.5, "b": 1.0, "c": 0.5, "d": 1.0},
        "one_sided": {"a": 0.25},
        "truncated": {"cap": 50.0, "base": {"kind": "standard", "c": 2.0}},
    },
}

REGISTERED = ([("initial_data", k) for k in INITIAL_KINDS]
              + [("potential", k) for k in POTENTIAL_SHAPES]
              + [("weight", k) for k in WEIGHT_KINDS])


@pytest.mark.parametrize("family, name", REGISTERED,
                         ids=[f"{f}-{n}" for f, n in REGISTERED])
def test_every_registered_kind_echoes_exactly(family, name):
    example = EXAMPLES[family][name]
    data = tiny(grid={"L": 40.0, "N": 512})
    if family == "initial_data":
        data["initial_data"] = {"kind": name, **example}
    elif family == "potential":
        data["initial_data"] = {"kind": "from_potential",
                                "m0": {"shape": name, **example}}
    else:
        data["weights_to_track"] = [{"weight": {"kind": name, **example},
                                     "p": 2}]
    s = scenario_from_dict(data)
    again = scenario_from_dict(s.effective_config())
    assert again.effective_config() == s.effective_config()
    assert again == s
    assert np.array_equal(again.build_initial().values,
                          s.build_initial().values)
    x = Grid(40.0, 512).x
    for ours, theirs in zip(again.weights_to_track, s.weights_to_track):
        assert np.array_equal(ours.weight.value(x), theirs.weight.value(x))


def test_one_class_serves_two_families_under_its_own_tag():
    # one Gaussian formula is both a datum kind and a potential shape; each
    # echo spells the tag of the field it fills
    datum = {"kind": "gaussian", "amplitude": 2.0, "width": 0.7,
             "center": -1.0}
    shape = {"shape": "gaussian", "amplitude": 2.0, "width": 0.7,
             "center": -1.0}
    direct = scenario_from_dict(tiny(initial_data=datum))
    potential = scenario_from_dict(tiny(
        initial_data={"kind": "from_potential", "m0": shape}))
    assert type(direct.initial_data) is type(potential.initial_data.m0)
    assert direct.initial_data == potential.initial_data.m0
    assert direct.effective_config()["initial_data"] == datum
    assert potential.effective_config()["initial_data"] == {
        "kind": "from_potential", "m0": shape}
    for s in (direct, potential):
        assert scenario_from_dict(s.effective_config()) == s


CONFIGS = Path(__file__).parent.parent / "configs"


@pytest.mark.parametrize("name", ["gaussian-hump", "peakon-rate-cap",
                                  "steepening-breakdown"])
def test_shipped_config_loads_and_echoes(name):
    s = load_scenario(CONFIGS / f"{name}.yaml")
    assert s.name == name
    again = scenario_from_dict(s.effective_config())
    assert again == s
    assert again.content_hash() == s.content_hash()


def _hashlib_digest(data) -> str:
    return hashlib.sha256(canonical_json(data).encode()).hexdigest()[:12]


def test_content_digest_matches_hashlib():
    # the built-in SHA-256 gives the digest hashlib gives
    for data in ({}, [], "", {"b": 1, "a": [1.5, None, "\u00e9"]}, TINY):
        assert content_digest(data) == _hashlib_digest(data)


HASHED = ([f"builtin/{n}" for n in builtin_names()]
          + [f"configs/{p.name}" for p in sorted(CONFIGS.glob("*.yaml"))])


@pytest.mark.parametrize("source", HASHED)
def test_content_hash_matches_hashlib(source):
    # every run-directory name and config_hash stays where it was
    group, _, name = source.partition("/")
    s = (builtin_scenario(name) if group == "builtin"
         else load_scenario(CONFIGS / name))
    assert s.content_hash() == _hashlib_digest(s.effective_config())


INPUTS_FILE = Path(__file__).parent.parent / "perfbench" / "inputs.py"

# The field a tagged mapping sits under -> the registry its tag names.
TAGGED_FIELDS = {"initial_data": ("kind", INITIAL_KINDS),
                 "m0": ("shape", POTENTIAL_SHAPES),
                 "weight": ("kind", WEIGHT_KINDS),
                 "base": ("kind", WEIGHT_KINDS)}


def _tagged(node, found: set) -> set:
    """Add (registry id, name) for every tagged mapping in a nested config."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key in TAGGED_FIELDS and isinstance(value, dict):
                tag, registry = TAGGED_FIELDS[key]
                found.add((id(registry), value.get(tag)))
            _tagged(value, found)
    elif isinstance(node, (list, tuple)):
        for value in node:
            _tagged(value, found)
    return found


def _benchmark_literals() -> list:
    """The literal module-level values of perfbench/inputs.py, read from
    its source so that nothing of the benchmark is imported or run."""
    values = []
    for node in ast.parse(INPUTS_FILE.read_text()).body:
        if isinstance(node, ast.Assign):
            try:
                values.append(ast.literal_eval(node.value))
            except ValueError:
                pass
    return values


def test_every_registered_kind_is_exercised():
    # a kind that no builtin, shipped config or benchmark input names is
    # grammar only its own tests reach
    sources = ([builtin_scenario(n).effective_config() for n in builtin_names()]
               + [yaml.safe_load(p.read_text())
                  for p in sorted(CONFIGS.glob("*.yaml"))]
               + _benchmark_literals())
    found = _tagged(sources, set())
    unexercised = [name for registry in (INITIAL_KINDS, POTENTIAL_SHAPES,
                                         WEIGHT_KINDS)
                   for name in registry if (id(registry), name) not in found]
    assert not unexercised, f"registered but never exercised: {unexercised}"


class TestYamlFront:
    def test_parse_yaml_text(self):
        s = parse_scenario(
            """
            name: demo
            grid: {L: 20.0, N: 256}
            initial_data: {kind: gaussian, amplitude: 1.0, width: 1.0, center: 0.0}
            solver: {t_end: 0.1}
            """
        )
        assert s.name == "demo"

    # YAML 1.1 reads an exponent without a dot or without a sign as a
    # string; YAML 1.2, and the config loader, read it as a float
    @pytest.mark.parametrize("plain", ["1e-3", "1E-3", "+1e-3", ".1e-2",
                                       "0.1e-2"])
    def test_plain_exponent_is_a_float(self, plain):
        text = ("name: exp\ngrid: {L: 20.0, N: 256}\n"
                "initial_data: {kind: gaussian, amplitude: 1.0, width: 1.0}\n"
                "solver: {t_end: 0.1, boundary_tol: %s}\n")
        s = parse_scenario(text % plain)
        assert s.solver.boundary_tol == 1e-3
        assert s.content_hash() == parse_scenario(text % "1.0e-3").content_hash()

    def test_exponent_without_sign_is_a_float(self):
        assert (yaml.load("a: 1.0e308", Loader=config._YAMLLoader)
                == {"a": 1e308})
        s = parse_scenario("name: big\ngrid: {L: 20.0, N: 512}\n"
                           "initial_data: {kind: odd_gaussian_derivative,"
                           " amplitude: 1.0e308}\n"
                           "solver: {t_end: 0.1}\n")
        assert s.initial_data.amplitude == 1e308
        with pytest.raises(ConfigError, match="non-finite samples"):
            with np.errstate(over="ignore", invalid="ignore"):
                s.build_initial()

    def test_quoted_exponent_stays_a_string(self):
        with pytest.raises(ConfigError,
                           match="solver.boundary_tol: expected a number, "
                                 "got str '1e-3'"):
            parse_scenario("name: quoted\ngrid: {L: 20.0, N: 256}\n"
                           "initial_data: {kind: gaussian, amplitude: 1.0}\n"
                           "solver: {t_end: 0.1, boundary_tol: '1e-3'}\n")

    def test_safe_loader_is_left_as_it_is(self):
        assert yaml.safe_load("a: 1e-3") == {"a": "1e-3"}
        assert yaml.load("a: 1e-3", Loader=yaml.CSafeLoader) == {"a": "1e-3"}

    def test_yaml_error_reports_position(self):
        with pytest.raises(ConfigError, match=r"invalid YAML at line \d+"):
            parse_scenario("name: [unclosed\ngrid: {L: 1}\n: ]]")

    DUPLICATE_FRONT = ("name: dup\ngrid: {L: 20.0, N: 256}\n"
                       "initial_data: {kind: gaussian, amplitude: 1.0}\n")

    def test_repeated_section_is_refused(self):
        # the second solver: would drop cfl and t_end without a word
        text = (self.DUPLICATE_FRONT + "solver:\n  cfl: 0.2\n  t_end: 0.5\n"
                "solver:\n  snapshot_stride: 2\n")
        with pytest.raises(ConfigError, match=r"^invalid YAML at line 7, column 1: "
                           r"found duplicate key 'solver'"):
            parse_scenario(text)

    def test_repeated_field_is_refused(self):
        text = self.DUPLICATE_FRONT + "solver:\n  t_end: 0.5\n  t_end: 0.1\n"
        with pytest.raises(ConfigError, match=r"^invalid YAML at line 6, column 3: "
                           r"found duplicate key 't_end'"):
            parse_scenario(text)

    def test_merged_key_may_be_overridden(self):
        # explicit keys are compared before the merge is flattened in
        text = (self.DUPLICATE_FRONT + "solver: {t_end: 0.1}\n"
                "weights_to_track:\n"
                "  - weight: &w {kind: standard, a: 0.5, c: 2.0}\n"
                "  - weight: {<<: *w, c: 1.0}\n")
        assert (yaml.load(text, Loader=config._YAMLLoader)
                == yaml.safe_load(text))
        first, second = parse_scenario(text).weights_to_track
        assert first.weight == StandardFamily(a=0.5, c=2.0)
        assert second.weight == StandardFamily(a=0.5, c=1.0)

    @pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"),
                        reason="PyYAML built without libyaml")
    @pytest.mark.parametrize("source", sorted(
        [f"configs/{p.name}" for p in CONFIGS.glob("*.yaml")]
        + [f"builtin:{name}" for name in builtin_names()]))
    def test_libyaml_and_python_loaders_agree(self, source):
        if source.startswith("builtin:"):
            name = source.split(":", 1)[1]
            text = yaml.safe_dump(builtin_scenario(name).effective_config())
        else:
            text = (CONFIGS.parent / source).read_text()
        assert issubclass(config._YAMLLoader, yaml.CSafeLoader)
        fast = yaml.load(text, Loader=config._YAMLLoader)
        slow = yaml.load(text, Loader=yaml.SafeLoader)
        assert isinstance(fast, dict) and fast == slow

    def test_empty_and_non_mapping(self):
        with pytest.raises(ConfigError, match="empty config"):
            parse_scenario("")
        with pytest.raises(ConfigError, match="mapping at top level, got list"):
            parse_scenario("- a\n- b\n")

    def test_load_uses_stem_as_default_name(self, tmp_path):
        text = (
            "grid: {L: 20.0, N: 256}\n"
            "initial_data: {kind: gaussian, amplitude: 1.0, width: 1.0, center: 0.0}\n"
            "solver: {t_end: 0.1}\n"
        )
        path = tmp_path / "my-run.yaml"
        path.write_text(text)
        assert load_scenario(path).name == "my-run"
        # an explicit name wins over the stem
        path.write_text("name: other\n" + text)
        assert load_scenario(path).name == "other"

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            load_scenario(tmp_path / "absent.yaml")


def _containers(node):
    """Every dict and list in a nested config, ``node`` included."""
    if isinstance(node, (dict, list)):
        yield node
        for child in (node.values() if isinstance(node, dict) else node):
            yield from _containers(child)


class TestBuiltins:
    def test_nine_builtins_with_stable_names(self):
        assert builtin_names() == [
            "algebraic-persistence", "decay-threshold-sweep",
            "exponential-rate-cap", "fast-decay-breakdown", "peakon-travel",
            "positive-momentum-global", "sign-change-momentum",
            "steep-odd-breakdown", "tail-profiles",
        ]

    @pytest.mark.parametrize("name", [
        "algebraic-persistence", "decay-threshold-sweep",
        "exponential-rate-cap", "fast-decay-breakdown", "peakon-travel",
        "positive-momentum-global", "sign-change-momentum",
        "steep-odd-breakdown", "tail-profiles",
    ])
    def test_each_builtin_validates(self, name):
        s = builtin_scenario(name)
        assert s.name == name
        assert s.weight_warnings() == []
        s.build_initial()  # the datum passes its judge
        # the echo must reparse to the identical scenario
        assert scenario_from_dict(s.effective_config()) == s

    @pytest.mark.parametrize("dirname", [
        "algebraic-persistence-d289439f1c0c",
        "decay-threshold-sweep-9ab4cbbc99dd",
        "exponential-rate-cap-45b9c6bc0a62",
        "fast-decay-breakdown-4fbe849cf5f7",
        "peakon-travel-a88e133665ca",
        "positive-momentum-global-f3e7df14e774",
        "sign-change-momentum-b6311478c781",
        "steep-odd-breakdown-4357a5c9e0ad",
        "tail-profiles-3e700ae65325",
    ])
    def test_dirname_canary(self, dirname):
        name = dirname.rpartition("-")[0]
        assert builtin_scenario(name).run_dirname() == dirname

    def test_building_leaves_the_catalog_unchanged(self):
        # every build reads the catalog's own dicts, never a fresh copy
        before = copy.deepcopy(BUILTIN_SCENARIOS)
        for name in builtin_names():
            builtin_scenario(name)
        assert BUILTIN_SCENARIOS == before
        containers = [id(node) for _, config in BUILTIN_SCENARIOS.values()
                      for node in _containers(config)]
        assert len(containers) == len(set(containers)), "shared sub-dict"

    def test_unknown_builtin_lists_names(self):
        with pytest.raises(KeyError, match="peakon-travel"):
            builtin_scenario("nonesuch")

    def test_descriptions_cover_all(self):
        entries = dict(describe_builtins())
        assert sorted(entries) == builtin_names()
        assert all(desc for desc in entries.values())
