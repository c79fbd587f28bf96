"""The JSON codec: checked-in format fixtures and what every schema may raise."""

import copy
import dataclasses
import functools
import json
import operator
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from prosodia.cli.config import CLI_MODES, RunConfig, SplitSpec, build_run_config, load_run_config
from prosodia.cli.pipeline import BaselineStats, load_lg_stats
from prosodia.cli.synth import SynthCorpusSpec
from prosodia.cyclegan import LossWeights, TrainSchedule, load_model_checkpoint, save_model_checkpoint
from prosodia.cyclegan.checkpoint import Metadata
from prosodia.errors import FormatError, ValidationError
from prosodia.jsonio import from_json, read_json, read_record, to_json, write_json
from prosodia.prosody import NormStats

FIXTURES = Path(__file__).parent / "fixtures"


class TestFixtures:
    """Files written by the codecs before the one JSON codec load and write back unchanged."""

    def test_checkpoint(self, tmp_path):
        loaded = load_model_checkpoint(FIXTURES / "checkpoint")
        assert loaded.model.feature_stats is not None
        assert loaded.model.gen_config.base_channels == 2
        save_model_checkpoint(
            tmp_path, loaded.model, loaded.weights, loaded.schedule, loaded.stats, loaded.wavelet
        )
        names = sorted(p.name for p in (FIXTURES / "checkpoint").iterdir())
        assert sorted(p.name for p in tmp_path.iterdir()) == names
        for name in names:
            assert (tmp_path / name).read_bytes() == (FIXTURES / "checkpoint" / name).read_bytes()

    def test_config_snapshot(self, tmp_path):
        config = load_run_config(FIXTURES / "config.json")
        defaults = RunConfig()
        for f in dataclasses.fields(RunConfig):
            if f.name not in ("manifest", "output_dir"):
                assert getattr(config, f.name) != getattr(defaults, f.name), f.name
        write_json(tmp_path / "config.json", config)
        assert (tmp_path / "config.json").read_bytes() == (FIXTURES / "config.json").read_bytes()

    def test_lg_stats(self, tmp_path):
        stats = load_lg_stats(FIXTURES)
        write_json(tmp_path / "lg_stats.json", stats)
        assert (tmp_path / "lg_stats.json").read_bytes() == (
            FIXTURES / "lg_stats.json"
        ).read_bytes()


class TestCodec:
    def test_writes_fields_not_instance_attributes(self):
        class Clocked(TrainSchedule):
            pass

        schedule = Clocked(total_iters=2, constant_lr_iters=1, decay_iters=1)
        schedule.clock = object()
        assert set(to_json(schedule)) == {f.name for f in dataclasses.fields(TrainSchedule)}

    def test_missing_key_named_and_unknown_keys_ignored(self):
        with pytest.raises(ValueError, match="'decay_iters': missing required key"):
            from_json(TrainSchedule, {"total_iters": 2, "constant_lr_iters": 1})
        weights = from_json(LossWeights, {"lambda_cyc": 3, "extra": [1]})
        assert weights == LossWeights(lambda_cyc=3.0)
        assert type(weights.lambda_cyc) is float

    def test_split_section_names_both_emotions(self):
        with pytest.raises(ValueError, match="'target_emotion': missing required key"):
            from_json(SplitSpec, {"source_emotion": "A"})
        assert SplitSpec(n_train_each=3, n_eval=1).target_emotion == "B"

    def test_unrepresentable_numbers_are_value_errors(self):
        with pytest.raises(ValueError, match="total_iters"):
            from_json(TrainSchedule, {"total_iters": float("inf"), "constant_lr_iters": 1,
                                      "decay_iters": 1})
        with pytest.raises(ValueError, match="mean"):
            from_json(NormStats, {"mean": 10**400, "std": 1.0})

    def test_read_json_maps_every_decode_failure(self, tmp_path):
        path = tmp_path / "x.json"
        for text in ("[" * 100_000, "1" * 5_000, "{", "[]"):
            path.write_text(text, encoding="utf-8")
            with pytest.raises(ValidationError, match="x.json"):
                read_json(path, ValidationError)
        assert read_json(path, ValidationError, expect=list) == []


# -- properties ---------------------------------------------------------------

# Values at the edges of what a cast takes: every one is tried at every key.
EDGE_VALUES = [float("inf"), 10**400, 2**64, float("nan"), -1, 0, True, None, "", "1", "\0",
               [], {}, [[1]]]
JSON_VALUES = st.sampled_from(EDGE_VALUES) | st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
DROP = object()  # an edit that deletes the key or item

# One valid document per top-level schema; together they nest every other schema.
DOCUMENTS = {
    Metadata: json.loads((FIXTURES / "checkpoint" / "metadata.json").read_text()),
    BaselineStats: json.loads((FIXTURES / "lg_stats.json").read_text()),
    SynthCorpusSpec: to_json(SynthCorpusSpec()),
}
CONFIG = json.loads((FIXTURES / "config.json").read_text())


def key_paths(doc, prefix=()):
    """Every key or index path into a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from key_paths(value, prefix + (key,))


def edited(doc, path, value):
    """A copy of ``doc`` with the value at ``path`` replaced, or deleted for DROP."""
    out = copy.deepcopy(doc)
    parent = functools.reduce(operator.getitem, path[:-1], out)
    if value is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return out


def edits(doc):
    """``doc`` with one value anywhere in it replaced by any JSON value, or deleted."""
    return st.builds(
        functools.partial(edited, doc), st.sampled_from(list(key_paths(doc))),
        st.just(DROP) | JSON_VALUES,
    )


def raises_only(call, errors, edit):
    try:
        call()
    except errors:
        pass
    except Exception as err:  # noqa: BLE001 - the property under test
        pytest.fail(f"{edit}: {err!r}")


MAPPED = ValueError  # from_json lists every bad key in one ValueError


@pytest.mark.parametrize("cls", DOCUMENTS, ids=lambda c: c.__name__)
def test_edge_value_at_any_key_raises_only_what_readers_map(cls):
    doc = DOCUMENTS[cls]
    for path in key_paths(doc):
        for value in [DROP, *EDGE_VALUES]:
            bad = edited(doc, path, value)
            raises_only(lambda: from_json(cls, bad), MAPPED, f"{path} = {value!r}")


def test_edge_value_at_any_config_key_raises_only_validation_error():
    for path in key_paths(CONFIG):
        for value in [DROP, *EDGE_VALUES]:
            bad = edited(CONFIG, path, value)
            raises_only(
                lambda: build_run_config(bad, base_dir=FIXTURES, overrides={"paper_scale": True}),
                ValidationError, f"{path} = {value!r}",
            )


# The one error each file's reader raises for any malformed file.
READ_ERRORS = {Metadata: FormatError, BaselineStats: FormatError, SynthCorpusSpec: ValidationError}


@pytest.mark.parametrize("cls", DOCUMENTS, ids=lambda c: c.__name__)
@given(data=st.data())
def test_from_json_raises_only_what_readers_map(tmp_path_factory, cls, data):
    doc = data.draw(edits(DOCUMENTS[cls]) | JSON_VALUES)
    raises_only(lambda: from_json(cls, doc), MAPPED, doc)
    path = tmp_path_factory.getbasetemp() / f"{cls.__name__}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    raises_only(lambda: read_record(path, cls, READ_ERRORS[cls]), READ_ERRORS[cls], doc)


@given(
    raw=edits(CONFIG),
    overrides=st.fixed_dictionaries({}, optional={
        "paper_scale": st.booleans(),
        "seed": st.integers(0, 9),
        "mode": st.sampled_from(CLI_MODES),
    }),
)
def test_run_config_raises_only_validation_error(raw, overrides):
    raises_only(
        lambda: build_run_config(raw, base_dir=FIXTURES, overrides=overrides),
        ValidationError, (raw, overrides),
    )


# -- strict types -------------------------------------------------------------


def dotted(path) -> str:
    """How an error names the key at ``path``: ``schedule.total_iters``, ``pairs[0][1]``."""
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path).lstrip(".")


# Each reader of a record file, the one error it raises and a valid document.
READERS = {
    "Metadata": (lambda p: read_record(p, Metadata, FormatError), FormatError, DOCUMENTS[Metadata]),
    "BaselineStats": (
        lambda p: read_record(p, BaselineStats, FormatError), FormatError, DOCUMENTS[BaselineStats]
    ),
    "SynthCorpusSpec": (
        lambda p: read_record(p, SynthCorpusSpec, ValidationError), ValidationError,
        DOCUMENTS[SynthCorpusSpec],
    ),
    "RunConfig": (load_run_config, ValidationError, CONFIG),
}
# Per JSON type of a valid leaf, values of other JSON types its field must refuse.
WRONG_TYPES = {
    int: [True, "7", 1.5, float("nan"), float("inf")],
    float: [False, "0.5", float("nan"), float("inf"), float("-inf")],
    str: [True, 7, 0.5, float("nan")],
    list: ["789"],
}


def read_edited(tmp_path, reader, path, value):
    """The error text ``reader`` gives its document with ``value`` at ``path``, or None."""
    read, error, doc = READERS[reader]
    file = tmp_path / "doc.json"
    file.write_text(json.dumps(edited(doc, path, value)), encoding="utf-8")
    try:
        read(file)
    except error as err:
        return str(err)
    return None


@pytest.mark.parametrize("reader", READERS)
def test_value_of_another_json_type_is_refused_by_its_dotted_key(reader, tmp_path):
    doc = READERS[reader][2]
    misses = []
    for path in key_paths(doc):
        valid = functools.reduce(operator.getitem, path, doc)
        for value in WRONG_TYPES.get(type(valid), ()):
            message = read_edited(tmp_path, reader, path, value)
            if message is None or f"'{dotted(path)}'" not in message:
                misses.append(f"{dotted(path)} = {value!r}: {message}")
    assert not misses, "\n".join(misses)


# Values the reader once coerced without complaint, one case each.
COERCED = [
    ("RunConfig", ("schedule", "total_iters"), 1500.9),
    ("RunConfig", ("schedule", "constant_lr_iters"), True),
    ("RunConfig", ("wavelet", "tau0"), True),
    ("RunConfig", ("wavelet", "n_scales"), "10"),
    ("RunConfig", ("schedule", "lr_g"), float("nan")),
    ("SynthCorpusSpec", ("contour_periods",), "789"),
]


@pytest.mark.parametrize("reader, path, value", COERCED, ids=[dotted(p) for _, p, _ in COERCED])
def test_once_coerced_values_are_refused(reader, path, value, tmp_path):
    message = read_edited(tmp_path, reader, path, value)
    assert message is not None and f"'{dotted(path)}'" in message


def test_every_bad_key_is_listed():
    raw = edited(edited(CONFIG, ("schedule", "total_iters"), 1500.9), ("wavelet", "n_scales"), "10")
    raw = edited(edited(raw, ("seed",), True), ("split", "target_emotion"), DROP)
    with pytest.raises(ValidationError) as info:
        build_run_config(raw, base_dir=FIXTURES, overrides={})
    for key in ("schedule.total_iters", "wavelet.n_scales", "seed", "split.target_emotion"):
        assert f"'{key}'" in str(info.value)
    assert str(info.value).count("\n  - ") == 4


def test_constructor_checks_wait_for_well_typed_fields():
    doc = edited(CONFIG, ("schedule", "decay_iters"), 1)  # totals no longer add up
    with pytest.raises(ValidationError, match="'schedule': total_iters") as info:
        build_run_config(doc, base_dir=FIXTURES, overrides={})
    assert str(info.value).count("\n  - ") == 1
    doc = edited(doc, ("schedule", "lr_g"), "fast")
    with pytest.raises(ValidationError) as info:
        build_run_config(doc, base_dir=FIXTURES, overrides={})
    assert "'schedule.lr_g'" in str(info.value) and "must equal" not in str(info.value)


@pytest.mark.parametrize("spelling", ["spectrum", "spectrum-separate"])
def test_both_mode_spellings_read_as_the_stored_name(spelling):
    config = build_run_config(edited(CONFIG, ("mode",), spelling), base_dir=FIXTURES, overrides={})
    assert config.mode == "spectrum-separate"


DEEP = functools.reduce(lambda inner, _: [inner], range(900), 3)  # within the decoder's reach


@pytest.mark.parametrize("kernel", [[3, 4], DEEP], ids=["pair", "deep"])
def test_generator_kernel_sizes_must_be_integers(tmp_path, kernel):
    message = read_edited(tmp_path, "Metadata", ("gen_config", "kernel_sizes", 0), kernel)
    assert message is not None and "gen_config" in message


@pytest.mark.parametrize("overrides", [{"seed": 3}, {"paper_scale": True}])
def test_overrides_apply_over_the_default_sections(overrides):
    config = build_run_config({}, base_dir=FIXTURES, overrides=overrides)
    defaults = RunConfig()
    if "seed" in overrides:
        assert config.seed == config.schedule.seed == 3
        assert config.schedule.total_iters == defaults.schedule.total_iters
    else:
        assert config.schedule.total_iters == 400_000
        assert config.split == defaults.split
