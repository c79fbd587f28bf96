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
        with pytest.raises(KeyError, match="decay_iters"):
            from_json(TrainSchedule, {"total_iters": 2, "constant_lr_iters": 1})
        weights = from_json(LossWeights, {"lambda_cyc": 3, "extra": [1]})
        assert weights == LossWeights(lambda_cyc=3.0)
        assert type(weights.lambda_cyc) is float

    def test_split_section_names_both_emotions(self):
        with pytest.raises(KeyError, match="target_emotion"):
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


MAPPED = (KeyError, TypeError, ValueError, ValidationError)


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
